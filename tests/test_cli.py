"""Command-line behavior: CSV output, exit codes, determinism, atomicity."""

import contextlib
import copy
import difflib
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import crnoma.scenario
from crnoma import OptProblem, PowerOverheads, SensingProfile, optimal_power, throughput
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
    assert meta.index("# infeasible_pairs: 0") + 1 == meta.index("# sic_violations: 0")
    rows = data_rows(text)
    header, body = rows[0], rows[1:]
    assert header == (
        "p_x,throughput_bps_original,throughput_bps_optimized,"
        "ee_original,ee_optimized,improvement_pct"
    )
    assert len(body) == 101
    assert all(row.count(",") == 5 for row in body)


def test_sweep_prints_the_optimized_series_sic_violations(capsys, monkeypatch):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["sweep", "--state", "effectual", "--device", "mrc", "--coupling", "cascaded"]
    assert main(argv) == 0
    assert "\n# sic_violations: 5\n" in capsys.readouterr().out


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


# The bundled scenario's output bytes live in tests/golden/ (rewritten by
# tests/golden/regenerate.py), each pinned by its sha256 here. A change that
# alters any output byte must say so and update both file and digest.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SWEEP_SHA256 = {
    ("effectual", "hrc", "nominal"): "ec6d6302be41f8c6f01502c77e4cf3280e1f6b332dcef3ba7107e5ec3b65cb3d",
    ("effectual", "hrc", "cascaded"): "7da1762aa556284d3b2d096e2518ef22294adb5aa4bcd317831b27b4f993d739",
    ("effectual", "mrc", "nominal"): "942c59c500d818689b192b90019c473eb8784815739d08f99ef8985229cf8cef",
    ("effectual", "mrc", "cascaded"): "927f6f17eb86b7c864ecebbea3cad1be8fbf6bc65a13f2f3043adceeb903e894",
    ("interference", "hrc", "nominal"): "310ce0d0e8a461d6baa225ffe1c17ae804c76191e495fd92a1bb2fb0795e64fd",
    ("interference", "hrc", "cascaded"): "45975a16d928699a944f5f3699ede24847144c429a7f8ccad5a722f8246373d7",
    ("interference", "mrc", "nominal"): "bfc8b898fc07824e04a08bb634296fbed59002fb72ce0498b19a7fe15d0aa00a",
    ("interference", "mrc", "cascaded"): "38dc6d7c3ab0510c752fccc38d241caf863c4afcacd5e4b0d81aa864d8cad94e",
}
GOLDEN_VALIDATE_SHA256 = "88353f01cee9e9e713e87343bd65d845605748fa8a8763c23ea8da6b98487119"
# `validate` at the 8,000 trials of one `validate_oracle` benchmark op.
GOLDEN_VALIDATE_8000_SHA256 = "479fa86557e396a6e1c18d225e8fac8e2e854e0f12641b809d9c4a8b12a165e8"
# (text stdout, --out CSV file) of `crnoma optimize` per (state, coupling).
GOLDEN_OPTIMIZE_SHA256 = {
    ("effectual", "nominal"): (
        "9002c8a138d1baa16fb3255edf9ba6721d3590b888b18e7e061016bf570e5224",
        "6ec7eca1d704352b26cb879466b1e0ffa1492e581441e23a584aa02781df57aa",
    ),
    ("effectual", "cascaded"): (
        "f8aac23c5327b4cc4a91856efabd6e8c27e1731dfb74f9024d1a1b3cf9cd50be",
        "8b6c3519a489bd852fc60dec419f83021cf95ed81761c5c41759a3a81aad3e43",
    ),
    ("interference", "nominal"): (
        "f4b7b0ff80e13fa1a7e55bfb84596da30619172341638ecdbb0bc72474f57e90",
        "a49a2c0d67e2a6b7d34c5efc7c20fbfda5d71301faff92fed2d3b07f65c9f531",
    ),
    ("interference", "cascaded"): (
        "ee7d80349ac0b4ea228570d4a52ab302d1598307c30a60227183aca2fdd51aa3",
        "181b5cabad4650e542be83eff7877d3a61b0b2439ba2275fded5d09752cd7609",
    ),
}


def _golden_files():
    """(file name, sha256) of every golden output."""
    for (state, device, coupling), digest in GOLDEN_SWEEP_SHA256.items():
        yield f"sweep_{state}_{device}_{coupling}.csv", digest
    yield "validate.txt", GOLDEN_VALIDATE_SHA256
    yield "validate_trials8000_seed7.txt", GOLDEN_VALIDATE_8000_SHA256
    for (state, coupling), (text, csv) in GOLDEN_OPTIMIZE_SHA256.items():
        yield f"optimize_{state}_{coupling}.txt", text
        yield f"optimize_{state}_{coupling}.csv", csv


GOLDEN_FILE_SHA256 = dict(_golden_files())


@pytest.mark.parametrize("name", list(GOLDEN_FILE_SHA256))
def test_golden_file_matches_its_digest(name):
    digest = hashlib.sha256((GOLDEN_DIR / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_FILE_SHA256[name]


def test_golden_dir_holds_only_pinned_files():
    pinned = set(GOLDEN_FILE_SHA256) | {"regenerate.py"}
    assert {path.name for path in GOLDEN_DIR.iterdir() if path.is_file()} == pinned


def _assert_golden(name, actual):
    """Compare output bytes with tests/golden/<name>; on a mismatch, fail
    with the first differing lines as a unified diff."""
    expected = (GOLDEN_DIR / name).read_bytes()
    if actual == expected:
        return
    diff = difflib.unified_diff(
        expected.decode("utf-8").splitlines(),
        actual.decode("utf-8").splitlines(),
        f"golden/{name}",
        "output",
        n=0,
        lineterm="",
    )
    pytest.fail("output differs from its golden file:\n" + "\n".join(islice(diff, 12)))


def _stdout_bytes(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("state, device, coupling", list(GOLDEN_SWEEP_SHA256))
def test_sweep_bytes_are_golden(capsys, monkeypatch, state, device, coupling):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["sweep", "--state", state, "--device", device, "--coupling", coupling]
    _assert_golden(f"sweep_{state}_{device}_{coupling}.csv", _stdout_bytes(capsys, argv))


def test_validate_bytes_are_golden(capsys, monkeypatch):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["validate", "--trials", "1000", "--seed", "0"]
    _assert_golden("validate.txt", _stdout_bytes(capsys, argv))


def test_validate_bytes_at_benchmark_trials_are_golden(capsys, monkeypatch):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["validate", "--trials", "8000", "--seed", "7"]
    _assert_golden("validate_trials8000_seed7.txt", _stdout_bytes(capsys, argv))


# `crnoma sweep` of the bundled scenario at sweep.step 0.0001: the 10,001
# p_x rows of one `sweep_dense` benchmark series. Only the digests are kept
# (each CSV is about 1 MB); tests/golden/regenerate.py prints them.
DENSE_SWEEP_SHA256 = {
    ("effectual", "hrc", "nominal"): "3c7cea9ebee952a6e70a72477d64a7402e994b3676f728a63902b6a96cfd1ba5",
    ("effectual", "hrc", "cascaded"): "764219307436eeabe586d220092a8446b4436ae59653ba02ef2473bd7449efc0",
    ("effectual", "mrc", "nominal"): "85a3fe9333bca5c2f2af02b7a5c398f1326010ecc890e14bdb1c3c5f96082929",
    ("effectual", "mrc", "cascaded"): "a69e797e0bf96380a465749c048f47c035319d90ee374e39d7eae928362a8f68",
    ("interference", "hrc", "nominal"): "6b0b0a8e4d208a118052e5acfa4f98bb94e7a26e09a05443d3c5adee55e6cd4c",
    ("interference", "hrc", "cascaded"): "0b3c5d98f12f5ef9c30c4ff755491f899fbbb8ac0d350261b3cec6a04f94a4f2",
    ("interference", "mrc", "nominal"): "6bd114dd179f4fc256a7e85aa51fcbd5b07d2b2f05580bf6120bb76d443ff138",
    ("interference", "mrc", "cascaded"): "1f42b566323fd447b56d1bf94661a95de5d0bd15fc2b28f3a553a4dec269a9aa",
}


@pytest.fixture(scope="module")
def dense_scenario(tmp_path_factory):
    text = crnoma.scenario.default_scenario_text()
    assert text.count("step: 0.01\n") == 1
    path = tmp_path_factory.mktemp("dense") / "dense.yaml"
    path.write_text(text.replace("step: 0.01\n", "step: 0.0001\n"), "utf-8")
    return str(path)


@pytest.mark.parametrize("state, device, coupling", list(DENSE_SWEEP_SHA256))
def test_dense_sweep_bytes_match_their_digest(capsys, dense_scenario, state, device, coupling):
    argv = ["sweep", dense_scenario, "--state", state, "--device", device, "--coupling", coupling]
    out = _stdout_bytes(capsys, argv)
    assert len(data_rows(out.decode("utf-8"))) == 1 + 10_001
    assert hashlib.sha256(out).hexdigest() == DENSE_SWEEP_SHA256[state, device, coupling]


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN_DIR / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The outputs for tests/golden/regenerate.py's seeded 3,000-pair scenario,
# the `scenario_wide` benchmark shape (one p_x, about 2% of the distances
# outside the pathloss model's range), under each combine rule: its notes,
# its `crnoma optimize --out` tables and its one-point sweep CSVs. Only the
# digests are kept; regenerate.py prints them.
WIDE_SHA256 = {
    "wide db notes": "880d6cf3a8f9f76c88c11c358375e9fc9e725ca1cf07c6e205628d44d89de1d6",
    "wide db optimize effectual nominal": "875029552684ce161b3674cf2e4c72005d5bcf9ed8b306636c9e569e120ed1c0",
    "wide db optimize effectual cascaded": "5a71636fc5c1499a50491acc348d840efa8837b4dbbde65fd168fae6cc830e87",
    "wide db optimize interference nominal": "1ee18f064b1eb5e6636d453bbdb3348e53a4970d05f7d8d8704ea36971590a77",
    "wide db optimize interference cascaded": "94dd80c7230ae1a124794f7cd58e1631665fe84e72d0d5274015c6613e9afd5e",
    "wide db sweep effectual hrc nominal": "ab9eb390255b5f1723e848dad6cc6389470162682321cf61596dc3747953acff",
    "wide db sweep effectual hrc cascaded": "6f76f40e39119a0938d8c39772070e74269c7054f6fb5fd33237674d78730e4f",
    "wide db sweep effectual mrc nominal": "de5d29688a4c9229396db1741a41fe6dcd9a9632d9638207a452fa7481efb1b0",
    "wide db sweep effectual mrc cascaded": "cd47cc0f8b62a4d5a73c5bc39c73e29f4d67c40dfe62050a2ac608fd72cb8810",
    "wide db sweep interference hrc nominal": "f54927b3d762b0a26eff3c8b0bf7846221c021be93a72d3af5c22f858b5dc574",
    "wide db sweep interference hrc cascaded": "fcacffae6e1f0e7889b5b549ff6c1c5889ce5883ee1d5e1939ee675d9148f263",
    "wide db sweep interference mrc nominal": "29e7eb1db20487c4d6774e4ec1078105313fe13d8181b0023effb2a142c73482",
    "wide db sweep interference mrc cascaded": "e4c6e57fce65371506c8d35f3767414fb83e5da27d2e36099f60b8903a13d521",
    "wide linear notes": "5c0b40ec2fa13446286c7adde3f83601ca60219345ff269a3b9db1c663ce00ee",
    "wide linear optimize effectual nominal": "c21b32aa0bfa031053af69c6d3678d9c941ac13296115f6d4ebc37362dcb5a1b",
    "wide linear optimize effectual cascaded": "aacb9cd1c3e901fc63a1448ae7e624356951d5039ce8aaab98f0a27dcf5dd909",
    "wide linear optimize interference nominal": "523b1dbddd134906fcb21674973f83bae326a857912c50029aa55fbc1bf398ff",
    "wide linear optimize interference cascaded": "bb4bf03b35b555a9f3805746dd7223bec7eb5fae1dad72c4ea2a73debf8c9a53",
    "wide linear sweep effectual hrc nominal": "3511cbf7b178bbc0ba076542cf2c8bf6002c74d1b62370e025ac5637f87a1b3b",
    "wide linear sweep effectual hrc cascaded": "e214022f52fbbc707ebab7a837d3c0243275219227833fb8fbbc42e0dc65b26f",
    "wide linear sweep effectual mrc nominal": "5337e42a71d5af26a0bc48dc8bf6a0b5b6435703bb3517bcf0138c91662fcbed",
    "wide linear sweep effectual mrc cascaded": "d309408153ad623d1a51f6ec3cded2a69a407cb3b8bd08557f1b6b76430ac62b",
    "wide linear sweep interference hrc nominal": "48c61dd7cc922cefbb2d4494982b3928e8821d230ed3422b947c58e1b9b773ad",
    "wide linear sweep interference hrc cascaded": "bd30028c2868645f7a0d1c5978cb50b10fddbff4ce3be8e2342413d92fdd253a",
    "wide linear sweep interference mrc nominal": "6d8d967b612289a59ed25684a5528e91a93c34b8a8c940abfcb8b204b3ad91bb",
    "wide linear sweep interference mrc cascaded": "29a03806b3cf875cf305a90d5a5213ca8934dd8bc40ee9e2dc71dfb21050e118",
}


@pytest.fixture(scope="module")
def wide_scenarios(tmp_path_factory):
    regenerate = _regenerate_module()
    directory = tmp_path_factory.mktemp("wide")
    paths = {}
    for combine in regenerate.COMBINES:
        path = directory / f"wide_{combine}.yaml"
        path.write_text(regenerate.wide_scenario_text(combine), "utf-8")
        paths[combine] = str(path)
    return paths


@pytest.mark.parametrize("name", list(WIDE_SHA256))
def test_wide_outputs_match_their_digest(tmp_path, capsys, wide_scenarios, name):
    _, combine, command, *args = name.split()
    path = wide_scenarios[combine]
    if command == "notes":
        notes = crnoma.scenario.load_scenario_file(path).notes
        data = "".join(f"{note}\n" for note in notes).encode("utf-8")
    elif command == "optimize":
        state, coupling = args
        out = tmp_path / "optima.csv"
        argv = ["optimize", path, "--state", state, "--coupling", coupling, "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"wrote 6000 rows to {out}\n"
        data = out.read_bytes()
    else:
        state, device, coupling = args
        argv = ["sweep", path, "--state", state, "--device", device, "--coupling", coupling]
        data = _stdout_bytes(capsys, argv)
        assert len(data_rows(data.decode("utf-8"))) == 1 + 1
    assert hashlib.sha256(data).hexdigest() == WIDE_SHA256[name]


@pytest.mark.parametrize("state, coupling", list(GOLDEN_OPTIMIZE_SHA256))
def test_optimize_bytes_are_golden(tmp_path, capsys, monkeypatch, state, coupling):
    monkeypatch.delenv("CRNOMA_SCENARIO", raising=False)
    argv = ["optimize", "--state", state, "--coupling", coupling]
    _assert_golden(f"optimize_{state}_{coupling}.txt", _stdout_bytes(capsys, argv))
    out = tmp_path / "optima.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 10 rows to {out}\n"
    _assert_golden(f"optimize_{state}_{coupling}.csv", out.read_bytes())


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_validate_trials_below_one_is_usage_error(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--trials", trials])
    assert exc.value.code == 2
    assert f"argument --trials: must be >= 1, got {trials}\n" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "prefix", [b"", b"label: ok\n# " + b"x" * 10_000], ids=["first-byte", "past-8-KiB"]
)
def test_non_utf8_scenario_file_is_config_error(tmp_path, capsys, prefix):
    # A UnicodeDecodeError is a ValueError, which exited 3 as a domain error.
    # The offset counts from the start of the file, past the first read chunk too.
    path = tmp_path / "bad.yaml"
    path.write_bytes(prefix + b"\xff\xfe")
    rc = main(["sweep", str(path), "--state", "effectual", "--device", "hrc"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        f"configuration error: <file>: scenario {str(path)!r} is not UTF-8: "
        f"invalid start byte at byte offset {len(prefix)}\n"
    )


# One invocation of each command that takes --out.
OUT_COMMANDS = [
    ["sweep", "--state", "effectual", "--device", "hrc"],
    ["optimize", "--state", "effectual"],
    ["validate", "--trials", "1"],
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_empty_out_path_is_usage_error(capsys, argv):
    # "" used to count as no --out: the output went to stdout with exit 0.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --out: must not be empty\n" in captured.err


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


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_out_file_mode_follows_the_umask(tmp_path, umask, command):
    # Files come out as open() would create them, not owner-only.
    out = tmp_path / f"{command}.csv"
    args = ["--device", "hrc"] if command == "sweep" else []
    previous = os.umask(umask)
    try:
        assert main([command, "--state", "effectual", *args, "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_out_never_sets_the_umask(tmp_path, monkeypatch, argv):
    # Setting the umask, even to restore it at once, leaves the files that
    # other threads create in the meantime unmasked.
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") != ""


# 50,000 levels crashed libyaml's recursive composer, so each case runs in
# its own process, where a crash shows as a signal exit instead of killing pytest.
DEEP_DOCUMENTS = {
    "flow": ("carrier_ghz: 5.0", "carrier_ghz: " + "[" * 50_000 + "5.0" + "]" * 50_000),
    "block": ("carrier_ghz: 5.0", "carrier_ghz:\n    " + "- " * 50_000 + "5.0"),
}


@pytest.mark.parametrize("kind", sorted(DEEP_DOCUMENTS))
def test_deeply_nested_document_exits_2_in_a_fresh_process(tmp_path, kind):
    old, new = DEEP_DOCUMENTS[kind]
    text = crnoma.scenario.default_scenario_text()
    assert text.count(old) == 1
    scenario = write(tmp_path, "deep.yaml", text.replace(old, new))
    src = str(Path(crnoma.scenario.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-m", "crnoma.cli", "sweep", scenario, "--state", "effectual",
         "--device", "hrc"],
        env=env,
        capture_output=True,
    )
    assert completed.returncode == 2, completed.stderr[-400:]
    assert completed.stderr.startswith(b"configuration error: <document>: ")
    assert len(completed.stderr) < 400


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
        ("-3184.0", "noise power 4.00193173e-316 W is below the smallest normal float"),
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


def test_overflowing_power_sum_is_named_domain_error(tmp_path, capsys):
    # Each 1e308 W power is valid; the sum over the five pairs is not.
    text = crnoma.scenario.default_scenario_text().replace("hrc_power: 0.7", "hrc_power: 1.0e+308")
    assert _probe_exit(tmp_path, text) == 3
    assert capsys.readouterr().err == (
        "domain error: sum of the 5 pairs' hrc transmit powers overflows to inf\n"
    )


def test_overflowing_sinr_is_named_domain_error(tmp_path, capsys):
    # A 1e300 W HRC power over a -1000 dBm/Hz noise floor: S/D overflows.
    text = crnoma.scenario.default_scenario_text()
    for old, new in (
        ("hrc_power: 0.7", "hrc_power: 1.0e+300"),
        ("noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: -1000.0"),
    ):
        assert old in text
        text = text.replace(old, new)
    message = "hrc pair 0: S/D = inf is not finite"
    scenario = crnoma.scenario.load_scenario(text)
    for call in (
        lambda: crnoma.scenario.run_sweep(scenario, "effectual", "hrc", False),
        lambda: throughput(scenario.sensing, scenario.env, scenario.pairs, "hrc"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    assert _probe_exit(tmp_path, text) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"


def test_overflowing_throughput_is_named_domain_error(tmp_path, capsys):
    # Every S/D is finite, but a 1e306 Hz bandwidth times the rate sum is not.
    text = crnoma.scenario.default_scenario_text()
    for old, new in (
        ("bandwidth_hz: 1.0e+6", "bandwidth_hz: 1.0e+306"),
        ("noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: -3000.0"),
        ("hrc_power: 0.7", "hrc_power: 1.0e+300"),
    ):
        assert old in text
        text = text.replace(old, new)
    scenario = crnoma.scenario.load_scenario(text)
    # The message names K = duty * miss * b, the prefactor without p_x.
    message = _overflow_message(scenario)
    assert message.startswith("hrc throughput overflows to inf: prefactor 4.5e+305 Hz")
    with pytest.raises(ValueError) as err:
        crnoma.scenario.run_sweep(scenario, "effectual", "hrc", False)
    assert str(err.value) == message
    # The optimized powers give another rate sum, under the same K.
    with pytest.raises(ValueError, match="^hrc throughput overflows to inf: prefactor 4.5e"):
        crnoma.scenario.run_sweep(scenario, "effectual", "hrc", True)
    assert _probe_exit(tmp_path, text) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"


def test_overflowing_rate_raises_at_zero_p_x(tmp_path, capsys):
    # One pair with a 1e300 HRC gain under a 1.5e308 Hz bandwidth: K * rate
    # sum overflows, and at p_inactive = 0 the throughput and the optimum's
    # EE would be 0 * inf = NaN.  Each raises instead.
    text = crnoma.scenario.default_scenario_text()
    for old, new in (
        ("bandwidth_hz: 1.0e+6", "bandwidth_hz: 1.5e+308"),
        ("noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: -3000.0"),
        ("p_inactive: 0.5", "p_inactive: 0.0"),
        ("hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]", "hrc_gains: [1.0e+300]"),
        ("mrc_distances_m: [1300.0, 1500.0, 1700.0, 1900.0, 2000.0]", "mrc_gains: [1.0e+200]"),
    ):
        assert old in text
        text = text.replace(old, new)
    scenario = crnoma.scenario.load_scenario(text)
    message = _overflow_message(scenario)
    assert message.startswith("hrc throughput overflows to inf: prefactor 6.75e+307 Hz")
    with pytest.raises(ValueError) as err:
        crnoma.scenario.run_sweep(scenario, "effectual", "hrc", False)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="^energy efficiency is not finite: inf over "):
        crnoma.scenario.optimize_scenario(scenario, "effectual")
    assert _probe_exit(tmp_path, text) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"


def _overflow_message(scenario):
    """The message of the nominal HRC ``throughput``, which must raise at
    every p_inactive, 0 included, once K * rate sum overflows."""
    messages = set()
    for p_x in (scenario.sensing.p_inactive, 0.0, 1.0):
        sensing = scenario.sensing._replace(p_inactive=p_x)
        with pytest.raises(ValueError) as err:
            throughput(sensing, scenario.env, scenario.pairs, "hrc")
        messages.add(str(err.value))
    (message,) = messages
    return message


@pytest.mark.parametrize("n", [45, 100])
def test_overflowing_sweep_row_raises_as_throughput_does(tmp_path, capsys, n):
    # 1e300 HRC gains under a 1e304 Hz bandwidth: every S/D is finite, each
    # rate is about 989 bits, and K * rate sum overflows.  With 45 pairs
    # p_x * K * rate sum is still finite at p_x = 0.5, but throughput and
    # every sweep raise as they do with 100 pairs, whatever their p_x.
    text = crnoma.scenario.default_scenario_text()
    hrc_gains = ", ".join(["1.0e+300"] * n)
    mrc_gains = ", ".join(["1.0e+100"] * n)
    for old, new in (
        ("bandwidth_hz: 1.0e+6", "bandwidth_hz: 1.0e+304"),
        ("noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: -2990.0"),
        ("hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]", f"hrc_gains: [{hrc_gains}]"),
        ("mrc_distances_m: [1300.0, 1500.0, 1700.0, 1900.0, 2000.0]", f"mrc_gains: [{mrc_gains}]"),
    ):
        assert old in text
        text = text.replace(old, new)
    scenario = crnoma.scenario.load_scenario(text)
    assert len(scenario.pairs) == n
    message = _overflow_message(scenario)
    assert message.startswith("hrc throughput overflows to inf: prefactor 4.5e+303 Hz")
    # A grid that stops at 0.5 raises too, and so does a series after an
    # earlier one of the same scenario.
    half_text = text.replace("stop: 1.0", "stop: 0.5")
    half = crnoma.scenario.load_scenario(half_text)
    assert half.sweep_grid[-1] == 0.5
    warm = scenario._replace()
    assert math.isfinite(max(crnoma.scenario.run_sweep(warm, "effectual", "mrc", False).throughput_bps))
    for scn in (scenario, half, warm):
        with pytest.raises(ValueError) as err:
            crnoma.scenario.run_sweep(scn, "effectual", "hrc", False)
        assert str(err.value) == message
    for probe in (text, half_text):
        assert _probe_exit(tmp_path, probe) == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"


# A 401-digit integer overflows a float; a 5,000-digit one is over Python's
# default 4,300-digit int conversion limit, so PyYAML itself rejects it.
HUGE_INTEGER_SITES = [
    ("carrier_ghz: 5.0", "carrier_ghz: {}", 401, "env.carrier_ghz"),
    ("1600.0, 1800.0, 2000.0]", "1600.0, {}, 2000.0]", 401, "devices.hrc_distances_m[3]"),
    ("power: 50.0", "power: {}", 401, "primary.power"),
    ("step: 0.01", "step: {}", 401, "sweep.step"),
    ("carrier_ghz: 5.0", "carrier_ghz: {}", 5000, "<document>"),
    # 16**4000 - 1 has 4,817 decimal digits, over Python's int-to-str limit.
    ("carrier_ghz: 5.0", "carrier_ghz: 0x{}", 4817, "env.carrier_ghz"),
]

# The literal written for each digit count: decimal nines, or hex f's.
HUGE_LITERALS = {401: "9" * 401, 5000: "9" * 5000, 4817: "f" * 4000}


@pytest.mark.parametrize(
    "old, new, digits, field",
    [pytest.param(*site, id=f"{site[3]}-{site[2]}") for site in HUGE_INTEGER_SITES],
)
def test_huge_integer_literal_is_config_error(tmp_path, capsys, old, new, digits, field):
    text = crnoma.scenario.default_scenario_text()
    assert text.count(old) == 1
    assert _probe_exit(tmp_path, text.replace(old, new.format(HUGE_LITERALS[digits]))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}: ")
    if field != "<document>":
        assert err.endswith(f": integer too large for a float ({digits} digits)\n")
    assert len(err) < 400


# About 250 bytes of YAML: each anchor lists the previous one ten times, so
# the last item expands to 10**5 leaves.
ALIAS_CHAIN = "[" + ", ".join(
    ["&a0 [" + ", ".join(["1"] * 10) + "]"]
    + [f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 5)]
) + "]"

# Values whose full repr runs to kilobytes or more. Python's int-to-str digit
# limit (4,300) is under the 4,817 digits of the hex one, where repr raises.
LONG_VALUES = {
    "digits": "1" * 4000,
    "hex": "0x" + "f" * 4000,
    "alias": ALIAS_CHAIN,
    "text": "x" * 4000,
}

# Every site that echoes a rejected value.
ECHO_SITES = [
    ("unit_mode: watt", "unit_mode: {}", "digits", "unit_mode"),
    ("unit_mode: watt", "unit_mode: {}", "hex", "unit_mode"),
    ("label: default", "label: {}", "digits", "label"),
    ("label: default", "label: {}", "alias", "label"),
    ("combine: db", "combine: {}", "digits", "pathloss.combine"),
    ("carrier_ghz: 5.0", "carrier_ghz: {}", "alias", "env.carrier_ghz"),
    ("hrc_power: 0.7", "hrc_power: {}", "text", "devices.hrc_power"),
]


@pytest.mark.parametrize(
    "old, new, kind, field",
    [pytest.param(*site, id=f"{site[3]}-{site[2]}") for site in ECHO_SITES],
)
def test_rejected_value_is_echoed_in_short_form(tmp_path, capsys, old, new, kind, field):
    text = crnoma.scenario.default_scenario_text()
    assert text.count(old) == 1
    assert _probe_exit(tmp_path, text.replace(old, new.format(LONG_VALUES[kind]))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}: ")
    assert len(err.encode()) < 400


def _default_with(*edits):
    text = crnoma.scenario.default_scenario_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


# Each value is finite; the sum, duty_factor's denominator or EE's
# overhead power, is not.
OVERFLOWING_SUMS = {
    "sensing": (
        lambda: SensingProfile(t_transmit_s=1e308, t_sense_s=1e308),
        (
            ("transmit_time_s: 0.125e-3", "transmit_time_s: 1.0e+308"),
            ("sense_time_s: 0.125e-3", "sense_time_s: 1.0e+308"),
        ),
        "t_transmit_s + t_sense_s must be finite, got inf",
    ),
    "overheads": (
        lambda: PowerOverheads(circuit_w=1e308, sensing_w=1e308),
        (
            ("circuit_power: 99.0", "circuit_power: 1.0e+308"),
            ("sensing_power: 1.0", "sensing_power: 1.0e+308"),
        ),
        "circuit_w + sensing_w must be finite, got inf",
    ),
}


@pytest.mark.parametrize("section", sorted(OVERFLOWING_SUMS))
def test_overflowing_sum_is_config_error(tmp_path, capsys, section):
    build, edits, message = OVERFLOWING_SUMS[section]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
    assert _probe_exit(tmp_path, _default_with(*edits)) == 2
    assert capsys.readouterr().err == f"configuration error: {section}: {message}\n"


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_overflowing_lambert_argument_is_named_domain_error(tmp_path, capsys, command):
    # C * g2 - D is finite, but dividing it by the noise power D is not.
    problem = OptProblem(
        gain=1e-13, denom_power_w=1e-14, overheads=PowerOverheads(circuit_w=1e308, sensing_w=0.0)
    )
    with pytest.raises(ValueError) as err:
        optimal_power(problem)
    assert str(err.value) == (
        "Lambert argument (C*g2 - D) / (e*D) overflows to inf: "
        f"C*g2 - D = {1e308 * 1e-13 - 1e-14!r}, D = 1e-14"
    )
    text = _default_with(("circuit_power: 99.0", "circuit_power: 1.0e+308"))
    assert _probe_exit(tmp_path, text, command) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: Lambert argument (C*g2 - D) / (e*D) overflows to inf: ")


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_overflowing_closed_form_power_is_named_domain_error(tmp_path, capsys, command):
    # The Lambert argument 0.5 / e is finite, but p* = (C*g2 - D) / (W0 * g2) - D / g2
    # is not: W0 = 0.157..., and 5e7 / 1.57e-301 overflows.
    problem = OptProblem(
        gain=1e-300, denom_power_w=1e8, overheads=PowerOverheads(circuit_w=1.5e308, sensing_w=0.0)
    )
    message = (
        "closed-form power overflows to inf: "
        "C*g2 - D = 50000000.0, W0 = 0.157184951483814, g2 = 1e-300"
    )
    with pytest.raises(ValueError) as err:
        optimal_power(problem)
    assert str(err.value) == message
    # noise 50 dBm/Hz over 1 MHz is the same D = 1e8 W.
    text = _default_with(
        ("noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: 50.0"),
        (
            "  hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]\n",
            "  hrc_gains: [1.0e-300, 1.0e-300, 1.0e-300, 1.0e-300, 1.0e-300]\n",
        ),
        ("circuit_power: 99.0", "circuit_power: 1.5e+308"),
    )
    assert _probe_exit(tmp_path, text, command) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"


# One pair at 1e10 / 1e-12 gains, a -3000 dBm/Hz noise PSD and no sensing power.
TINY_NOISE_EDITS = (
    ("noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: -3000.0"),
    (
        "hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]",
        "hrc_gains: [1.0e+10]",
    ),
    ("mrc_distances_m: [1300.0, 1500.0, 1700.0, 1900.0, 2000.0]", "mrc_gains: [1.0e-12]"),
    ("sensing_power: 1.0", "sensing_power: 0.0"),
)


def test_overflowing_optimum_ee_is_named_domain_error(tmp_path, capsys):
    # At a 1e-306 W overhead the HRC rate over p* + C overflows.
    text = _default_with(*TINY_NOISE_EDITS, ("circuit_power: 99.0", "circuit_power: 1.0e-306"))
    assert _probe_exit(tmp_path, text, "optimize") == 3
    assert capsys.readouterr().err.startswith("domain error: energy efficiency is not finite: ")


def test_overflowing_consumed_power_is_named_domain_error(tmp_path, capsys):
    # One pair whose nominal HRC power plus the 1e308 W overhead overflows:
    # every EE of the series would read 0.0 beside a finite throughput.
    text = _default_with(
        ("hrc_power: 0.7", "hrc_power: 1.0e+308"),
        ("circuit_power: 99.0", "circuit_power: 1.0e+308"),
        ("hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]", "hrc_gains: [1.0e-300]"),
        ("mrc_distances_m: [1300.0, 1500.0, 1700.0, 1900.0, 2000.0]", "mrc_gains: [1.0e-300]"),
    )
    scenario = crnoma.scenario.load_scenario(text)
    with pytest.raises(ValueError) as err:
        crnoma.scenario.run_sweep(scenario, "effectual", "hrc", False)
    message = "energy efficiency is not finite: 33485035.19646461 over inf W"
    assert str(err.value) == message
    assert _probe_exit(tmp_path, text) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"


def test_improvement_column_is_finite_at_a_huge_optimized_ee(tmp_path, capsys):
    # The optimized EE is about 8e306, so 100 * (optimized - original) overflows.
    text = _default_with(*TINY_NOISE_EDITS, ("circuit_power: 99.0", "circuit_power: 1.0e-300"))
    assert _probe_exit(tmp_path, text) == 0
    rows = data_rows(capsys.readouterr().out)
    assert rows[-1].endswith(",1.000000000000e+02")
    assert not any("inf" in row for row in rows)


def test_validate_fails_on_zero_optimized_series(tmp_path, capsys):
    # p_detection = 1 zeroes every interference series; no improvement is defined.
    text = _default_with(("p_detection: 0.9", "p_detection: 1.0"))
    assert main(["validate", write(tmp_path, "zero.yaml", text), "--trials", "20"]) == 1
    zero = ", ".join(
        f"interference {device} {measure}"
        for device in ("hrc", "mrc")
        for measure in ("ee_bps_per_watt", "throughput_bps")
    )
    assert (
        "FAIL  default_scenario_improvement_floor: measured -inf (limit 5.000000e+01)  "
        f"[optimized series is 0 at the last p_x: {zero}]\n"
    ) in capsys.readouterr().out


def test_invalid_yaml_date_is_config_error(tmp_path, capsys):
    # PyYAML resolves 2020-13-45 as a timestamp and its constructor raises ValueError.
    text = crnoma.scenario.default_scenario_text()
    text = text.replace("carrier_ghz: 5.0", "carrier_ghz: 2020-13-45")
    assert _probe_exit(tmp_path, text) == 2
    assert capsys.readouterr().err.startswith("configuration error: <document>: YAML parse failure: ")


def test_pathloss_gain_overflow_is_usage_error(capsys):
    assert main(["pathloss", "--d", "1e-300", "--f", "5"]) == 2
    err = capsys.readouterr().err
    assert "note: distance 1e-300 m outside the model validity range (10.0, 2000.0) m\n" in err
    assert "overflows as a power gain" in err


def test_pathloss_gain_underflow_is_usage_error(capsys):
    assert main(["pathloss", "--d", "1e200", "--f", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: pathloss 5911.426310099729 dB underflows to a power gain of 0\n"
    )


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
    ["text", [1.0, "x"], math.nan, math.inf, -math.inf, 1e308, 10**400]
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
