"""Command-line behavior: CSV output, exit codes, determinism, atomicity."""

import contextlib
import copy
import hashlib
import io
import math
import os
import tempfile

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import crnoma.scenario
from crnoma.cli import main

EXACT_SCENARIO = """
label: exact

env:
  bandwidth_hz: 1.0
  noise_psd_dbm_hz: 30.0
  carrier_ghz: 5.0

sensing:
  transmit_time_s: 1.0
  sense_time_s: 1.0
  p_false_alarm: 0.1
  p_detection: 0.9

devices:
  hrc_power: 0.7
  mrc_power: 0.3
  hrc_gains: [1.0]
  mrc_gains: [0.5]

primary:
  power: 0.0
  gain: 1.0

overheads:
  circuit_power: 1.0
  sensing_power: 7.3890560989306495

sweep:
  start: 0.0
  stop: 1.0
  step: 0.5
"""

SYMMETRIC_SCENARIO = """
label: symmetric

env:
  bandwidth_hz: 1.0e+6
  noise_psd_dbm_hz: -174.0
  carrier_ghz: 5.0

sensing:
  transmit_time_s: 0.125e-3
  sense_time_s: 0.125e-3
  p_false_alarm: 0.5
  p_detection: 0.5

devices:
  hrc_power: 0.7
  mrc_power: 0.3
  hrc_gains: [1.0e-13]
  mrc_gains: [8.0e-14]

primary:
  power: 0.0
  gain: 1.5e-14

overheads:
  circuit_power: 99.0
  sensing_power: 1.0
"""

INFEASIBLE_SCENARIO = """
label: infeasible

env:
  bandwidth_hz: 1.0e+6
  noise_psd_dbm_hz: -174.0
  carrier_ghz: 5.0

sensing:
  transmit_time_s: 0.125e-3
  sense_time_s: 0.125e-3
  p_false_alarm: 0.1
  p_detection: 0.9

devices:
  hrc_power: 0.7
  mrc_power: 0.3
  hrc_gains: [1.0e-18]
  mrc_gains: [8.0e-19]

primary:
  power: 0.0
  gain: 1.5e-14

overheads:
  circuit_power: 99.0
  sensing_power: 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def data_rows(csv_text):
    return [line for line in csv_text.splitlines() if line and not line.startswith("#")]


def test_sweep_csv_structure(tmp_path, default_scenario):
    out = tmp_path / "hrc_effectual.csv"
    rc = main(["sweep", "--state", "effectual", "--device", "hrc", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    assert any("scenario_hash" in line for line in meta)
    assert any("unit_mode: watt" in line for line in meta)
    assert any("infeasible_pairs: 0" in line for line in meta)
    rows = data_rows(text)
    header, body = rows[0], rows[1:]
    assert header == (
        "p_x,throughput_bps_original,throughput_bps_optimized,"
        "ee_original,ee_optimized,improvement_pct"
    )
    assert len(body) == 101
    assert all(row.count(",") == 5 for row in body)


def test_sweep_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["sweep", "--state", "interference", "--device", "mrc", "--out", str(first)])
    main(["sweep", "--state", "interference", "--device", "mrc", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_sweep_improvement_constant_off_origin(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--state", "effectual", "--device", "hrc", "--out", str(out)])
    body = data_rows(out.read_text())[1:]
    first = body[0].split(",")
    assert float(first[0]) == 0.0
    assert first[5] == "nan"
    improvements = [float(row.split(",")[5]) for row in body[1:]]
    spread = max(improvements) - min(improvements)
    assert spread <= 1e-9 * abs(improvements[0])
    assert all(i > 50.0 for i in improvements)


def test_sweep_interference_matches_effectual_without_primary(tmp_path):
    """With no primary power and equal detection weights the states coincide."""
    scenario = write(tmp_path, "sym.yaml", SYMMETRIC_SCENARIO)
    eff = tmp_path / "eff.csv"
    intf = tmp_path / "intf.csv"
    main(["sweep", scenario, "--state", "effectual", "--device", "hrc", "--out", str(eff)])
    main(["sweep", scenario, "--state", "interference", "--device", "hrc", "--out", str(intf)])
    assert data_rows(eff.read_text()) == data_rows(intf.read_text())


def test_sweep_to_stdout(capsys):
    rc = main(["sweep", "--state", "effectual", "--device", "mrc"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "p_x,throughput_bps_original" in captured
    assert len(data_rows(captured)) == 102  # header + 101 rows


# sha256 of the stdout bytes on the bundled scenario. A change that alters
# any output byte must say so and update these digests.
GOLDEN_SWEEP_SHA256 = {
    ("effectual", "hrc", "nominal"): "edc5600b173286a3a3ba795037299241c429850dcff5db646b5502222bfff12f",
    ("effectual", "hrc", "cascaded"): "22e7c28e6b0e4cbc67a9842ecb822a97e8065a890d835879744e768e18856f75",
    ("effectual", "mrc", "nominal"): "b7c4098191d564d695323b1b5a10870784c9339bcc7846ed2b6255586dc8f889",
    ("effectual", "mrc", "cascaded"): "8382b8f2b5beab7bb1b081c888106704a84c8d8a6241af2d94614f98fd80f54e",
    ("interference", "hrc", "nominal"): "571d4e858d646eb585058e81f8a042922f5a7a254abafe57b6a758b4ddea1646",
    ("interference", "hrc", "cascaded"): "33fd18303a91b952376ab9a41871d06c0541576481d8c83ca77680601a913dfe",
    ("interference", "mrc", "nominal"): "1876e11f935a332cf4ab409d83168d140752e94853089f2ad1a6658866f2ab78",
    ("interference", "mrc", "cascaded"): "6da36d52840088a3f94a0221c9dbbd4680aa47036537cbf69933c76b760bf624",
}
GOLDEN_VALIDATE_SHA256 = "a5069a07c8439b624c60e7730742f9fbb6e63d2ea5a6669637d2a3841983e28f"


def _stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("state, device, coupling", list(GOLDEN_SWEEP_SHA256))
def test_sweep_bytes_are_golden(capsys, monkeypatch, state, device, coupling):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["sweep", "--state", state, "--device", device, "--coupling", coupling]
    assert _stdout_sha256(capsys, argv) == GOLDEN_SWEEP_SHA256[(state, device, coupling)]


def test_validate_bytes_are_golden(capsys, monkeypatch):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["validate", "--trials", "1000", "--seed", "0"]
    assert _stdout_sha256(capsys, argv) == GOLDEN_VALIDATE_SHA256


def test_optimize_exact_power(tmp_path, capsys):
    scenario = write(tmp_path, "exact.yaml", EXACT_SCENARIO)
    rc = main(["optimize", scenario, "--state", "effectual"])
    assert rc == 0
    out = capsys.readouterr().out
    expected = math.e**2 - 1.0
    assert f"{expected:.12e}" in out


def test_optimize_flags_infeasible_rows(tmp_path, capsys):
    scenario = write(tmp_path, "infeasible.yaml", INFEASIBLE_SCENARIO)
    rc = main(["optimize", scenario, "--state", "effectual"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no" in out
    assert "nan" in out


def test_optimize_cascaded_changes_only_mrc(tmp_path, capsys):
    rc = main(["optimize", "--state", "interference", "--coupling", "nominal"])
    assert rc == 0
    nominal = capsys.readouterr().out
    rc = main(["optimize", "--state", "interference", "--coupling", "cascaded"])
    assert rc == 0
    cascaded = capsys.readouterr().out

    def rows_for(device, text):
        return [line for line in text.splitlines() if f"  {device}" in line]

    assert rows_for("hrc", nominal) == rows_for("hrc", cascaded)
    assert rows_for("mrc", nominal) != rows_for("mrc", cascaded)


def test_optimize_csv_output(tmp_path):
    out = tmp_path / "optima.csv"
    rc = main(["optimize", "--state", "effectual", "--out", str(out)])
    assert rc == 0
    rows = data_rows(out.read_text())
    assert rows[0] == "pair,device,feasible,p_star_w,ee_bps_per_watt,lambert_arg"
    assert len(rows) == 11  # header + 5 hrc + 5 mrc


def test_pathloss_command(capsys):
    rc = main(["pathloss", "--d", "100", "--f", "5", "--omega", "0.5"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "los_db: 85.979400" in out
    assert "nlos_db: 114.273220" in out
    assert "average_db: 100.126310" in out
    assert "power_gain: 9.713348929289e-11" in out


def test_pathloss_omega_one_is_los(capsys):
    rc = main(["pathloss", "--d", "100", "--f", "5", "--omega", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    los = [line for line in out.splitlines() if line.startswith("los_db")][0]
    avg = [line for line in out.splitlines() if line.startswith("average_db")][0]
    assert los.split(": ")[1] == avg.split(": ")[1]


def test_pathloss_rejects_zero_distance(capsys):
    rc = main(["pathloss", "--d", "0", "--f", "5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_validate_default_passes(capsys):
    rc = main(["validate", "--trials", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "closed_form_vs_oracle" in out
    assert "reference_ee_hrc_interference" in out


def test_validate_is_reproducible(capsys):
    main(["validate", "--trials", "40", "--seed", "7"])
    first = capsys.readouterr().out
    main(["validate", "--trials", "40", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_validate_fails_on_uncalibrated_scenario(tmp_path, capsys):
    """Strong-gain scenario: optimization gains fall under the 50% floor."""
    text = SYMMETRIC_SCENARIO.replace("hrc_gains: [1.0e-13]", "hrc_gains: [1.0e-9]")
    text = text.replace("mrc_gains: [8.0e-14]", "mrc_gains: [8.0e-10]")
    assert "hrc_gains: [1.0e-9]" in text and "mrc_gains: [8.0e-10]" in text
    scenario = write(tmp_path, "strong.yaml", text)
    rc = main(["validate", scenario, "--trials", "30"])
    assert rc == 1
    assert "FAIL  default_scenario_improvement_floor" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    scenario = write(tmp_path, "broken.yaml", "env: [unclosed")
    rc = main(["sweep", scenario, "--state", "effectual", "--device", "hrc"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def _sweep_exit(tmp_path, extra):
    scenario = write(tmp_path, "probe.yaml", SYMMETRIC_SCENARIO + extra)
    return main(["sweep", scenario, "--state", "effectual", "--device", "hrc"])


def test_scalar_sweep_section_is_config_error(tmp_path, capsys):
    assert _sweep_exit(tmp_path, "\nsweep: 5\n") == 2
    assert "sweep: missing or not a table" in capsys.readouterr().err


def test_list_pathloss_section_is_config_error(tmp_path, capsys):
    assert _sweep_exit(tmp_path, "\npathloss: [0.5]\n") == 2
    assert "pathloss: missing or not a table" in capsys.readouterr().err


def test_infinite_sweep_stop_is_config_error(tmp_path, capsys):
    assert _sweep_exit(tmp_path, "\nsweep:\n  stop: .inf\n") == 2
    assert "sweep.stop: must be finite" in capsys.readouterr().err


def test_nan_sweep_step_is_config_error(tmp_path, capsys):
    assert _sweep_exit(tmp_path, "\nsweep:\n  step: .nan\n") == 2
    assert "sweep.step: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1.0e-12", "5.0e-324"])
def test_oversized_grid_rejected_before_it_is_built(tmp_path, capsys, monkeypatch, step):
    # The grid is built with round(); failing on its first call proves the
    # size check runs before any of the 1e12 or more points is allocated.
    def refuse(*args):
        raise AssertionError("grid construction reached despite the size cap")

    monkeypatch.setattr(crnoma.scenario, "round", refuse, raising=False)
    assert _sweep_exit(tmp_path, f"\nsweep:\n  step: {step}\n") == 2
    assert "sweep.step: grid would exceed" in capsys.readouterr().err


def test_missing_scenario_file_exit_code(capsys):
    rc = main(["sweep", "/no/such/file.yaml", "--state", "effectual", "--device", "hrc"])
    assert rc == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_no_partial_output_on_write_failure(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    rc = main(["sweep", "--state", "effectual", "--device", "hrc", "--out", str(target)])
    assert rc == 2
    assert not target.exists()
    assert not (tmp_path / "missing_dir").exists()


def test_scenario_env_var_override(tmp_path, monkeypatch, capsys):
    scenario = write(tmp_path, "sym.yaml", SYMMETRIC_SCENARIO)
    monkeypatch.setenv("CRNOMA_SCENARIO", scenario)
    rc = main(["sweep", "--state", "effectual", "--device", "hrc"])
    assert rc == 0
    assert "scenario_label: symmetric" in capsys.readouterr().out


def test_leftover_temp_files_are_not_kept(tmp_path):
    out = tmp_path / "clean.csv"
    main(["sweep", "--state", "effectual", "--device", "hrc", "--out", str(out)])
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".crnoma-")]
    assert leftovers == []


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_malformed_yaml_is_config_error_under_each_loader(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", loader)
    with pytest.raises(crnoma.scenario.ConfigError, match="parse"):
        crnoma.scenario.load_scenario("env: [unclosed")
    scenario = write(tmp_path, "broken.yaml", "env: [unclosed")
    assert main(["sweep", scenario, "--state", "effectual", "--device", "hrc"]) == 2
    assert "YAML parse failure" in capsys.readouterr().err


def _with_line(after, line):
    """SYMMETRIC_SCENARIO with ``line`` added below the line starting ``after``."""
    head, tail = SYMMETRIC_SCENARIO.split(after, 1)
    first, rest = tail.split("\n", 1)
    return f"{head}{after}{first}\n{line}\n{rest}"


UNKNOWN_KEYS = [
    (_with_line("  sense_time_s:", "  p_inactve: 0.9"), "sensing.p_inactve"),
    (SYMMETRIC_SCENARIO + "\nsweep:\n  stpe: 0.5\n", "sweep.stpe"),
    (SYMMETRIC_SCENARIO + "\nextras:\n  note: 1\n", "extras"),
    # Keys that once fed fields nothing read are now plain unknown keys.
    (_with_line("  carrier_ghz:", "  speed_of_light_m_s: 3.0e+8"), "env.speed_of_light_m_s"),
    (_with_line("  gain:", "  snr_db: -25.0"), "primary.snr_db"),
    (_with_line("  gain:", "  snr_threshold_db: -20.0"), "primary.snr_threshold_db"),
]


@pytest.mark.parametrize(
    "text, field", [pytest.param(text, field, id=field) for text, field in UNKNOWN_KEYS]
)
def test_unknown_key_is_config_error(tmp_path, capsys, text, field):
    assert _probe_exit(tmp_path, text) == 2
    assert f"configuration error: {field}: unknown key" in capsys.readouterr().err


def _probe_exit(tmp_path, text, command="sweep"):
    scenario = write(tmp_path, "probe.yaml", text)
    args = ["--device", "hrc"] if command == "sweep" else []
    return main([command, scenario, "--state", "effectual"] + args)


def test_list_label_is_config_error(tmp_path, capsys):
    text = SYMMETRIC_SCENARIO.replace("label: symmetric", "label: [a, b]")
    assert _probe_exit(tmp_path, text) == 2
    assert "label: must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_nan_bandwidth_is_config_error(tmp_path, capsys, command):
    text = SYMMETRIC_SCENARIO.replace("bandwidth_hz: 1.0e+6", "bandwidth_hz: .nan")
    assert _probe_exit(tmp_path, text, command) == 2
    assert "env: bandwidth_hz must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "optimize"])
@pytest.mark.parametrize(
    "psd, message",
    [
        ("-5000.0", "noise power must be finite and > 0 W, got 0.0"),
        ("5000.0", "dBm power 5000.0 overflows in watts"),
    ],
)
def test_extreme_noise_psd_is_config_error(tmp_path, capsys, command, psd, message):
    text = SYMMETRIC_SCENARIO.replace("noise_psd_dbm_hz: -174.0", f"noise_psd_dbm_hz: {psd}")
    assert _probe_exit(tmp_path, text, command) == 2
    assert f"env.noise_psd_dbm_hz: {message}" in capsys.readouterr().err


def test_dbm_power_overflow_is_config_error(tmp_path, capsys):
    text = "unit_mode: dbm\n" + SYMMETRIC_SCENARIO.replace("hrc_power: 0.7", "hrc_power: 5000.0")
    assert _probe_exit(tmp_path, text) == 2
    assert "devices.hrc_power: dBm power 5000.0 overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_tiny_distance_gain_overflow_is_config_error(tmp_path, capsys, command):
    text = SYMMETRIC_SCENARIO.replace("hrc_gains: [1.0e-13]", "hrc_distances_m: [1.0e-300]")
    assert _probe_exit(tmp_path, text, command) == 2
    assert "devices.hrc[0]: pathloss" in capsys.readouterr().err


def test_pathloss_gain_overflow_is_usage_error(capsys):
    assert main(["pathloss", "--d", "1e-300", "--f", "5"]) == 2
    err = capsys.readouterr().err
    assert "note: distance 1e-300 m outside the model validity range (10.0, 2000.0) m\n" in err
    assert "overflows as a power gain" in err


def _yaml_paths(node, prefix=()):
    """Every key and list index of a parsed YAML document, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _yaml_paths(value, prefix + (key,))


DEFAULT_DOC = yaml.safe_load(crnoma.scenario.default_scenario_text())
DEFAULT_PATHS = list(_yaml_paths(DEFAULT_DOC))
MUTATIONS = st.sampled_from(["delete", "rename"]) | st.sampled_from(
    ["text", [1.0, "x"], math.nan, math.inf, -math.inf, 1e308]
).map(lambda value: ("set", value))


def _has(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _mutate(doc, path, mutation):
    parent = doc
    for key in path[:-1]:
        if not _has(parent, key):
            return  # an earlier edit removed or replaced this path
        parent = parent[key]
    key = path[-1]
    if not _has(parent, key):
        return
    if mutation == "delete":
        del parent[key]
    elif mutation == "rename":
        if isinstance(parent, dict):
            parent[f"{key}_renamed"] = parent.pop(key)
    else:
        parent[key] = mutation[1]


@settings(max_examples=150)
@given(
    edits=st.lists(st.tuples(st.sampled_from(DEFAULT_PATHS), MUTATIONS), min_size=1, max_size=3),
    state=st.sampled_from(["effectual", "interference"]),
    device=st.sampled_from(["hrc", "mrc"]),
    coupling=st.sampled_from(["nominal", "cascaded"]),
)
def test_mutated_default_yaml_ends_in_a_documented_exit_code(edits, state, device, coupling):
    doc = copy.deepcopy(DEFAULT_DOC)
    for path, mutation in edits:
        _mutate(doc, path, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        argv = ["sweep", path, "--state", state, "--device", device, "--coupling", coupling]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)
