"""Scenario loading, validation diagnostics, and sweeps."""

import math
import random
import sys
import threading
import warnings
from dataclasses import fields, replace

import pytest
import yaml

import crnoma.scenario

from crnoma import (
    ConfigError,
    EFFECTUAL,
    INTERFERENCE,
    MetricPoint,
    dbm_to_watt,
    energy_efficiency,
    load_scenario,
    optimize_scenario,
    pathloss_average_db,
    power_gain,
    run_sweep,
    throughput,
)
from crnoma.scenario import default_scenario_text
from conftest import make_scenario

MINIMAL = """
label: minimal

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
  hrc_gains: [1.0e-13]
  mrc_gains: [8.0e-14]

primary:
  power: 50.0
  gain: 1.5e-14

overheads:
  circuit_power: 99.0
  sensing_power: 1.0
"""


def test_default_scenario_parameters(default_scenario):
    scn = default_scenario
    assert scn.label == "default"
    assert scn.unit_mode == "watt"
    assert scn.env.bandwidth_hz == 1e6
    assert scn.env.noise_psd_dbm_hz == -174.0
    assert scn.env.carrier_ghz == 5.0
    assert scn.sensing.t_transmit_s == 0.125e-3
    assert scn.sensing.t_sense_s == 0.125e-3
    assert scn.sensing.p_false_alarm == 0.1
    assert scn.sensing.p_detection == 0.9
    assert scn.overheads.circuit_w == 99.0
    assert scn.overheads.sensing_w == 1.0
    assert scn.primary.power_w == 50.0
    assert len(scn.pairs) == 5
    assert len(scn.sweep_grid) == 101
    assert scn.sweep_grid[0] == 0.0 and scn.sweep_grid[-1] == 1.0


def test_default_gains_come_from_pathloss(default_scenario):
    scn = default_scenario
    first = scn.pairs[0]
    assert first.hrc_distance_m == 1200.0
    expected = power_gain(pathloss_average_db(1200.0, 5.0, scn.los_probability))
    assert first.hrc_gain == expected


def test_default_pairs_keep_sic_ordering(default_scenario):
    for pair in default_scenario.pairs:
        assert pair.sic_ordering_ok()


def test_minimal_scenario_with_explicit_gains():
    scn = load_scenario(MINIMAL)
    assert scn.pairs[0].hrc_gain == 1e-13
    assert scn.pairs[0].hrc_distance_m is None
    # omega was not given: defaulted and recorded.
    assert any("los_probability defaulted" in note for note in scn.notes)


def test_infinite_noise_power_names_field():
    # Each factor is finite; their product, the noise power, is not.
    text = MINIMAL.replace("bandwidth_hz: 1.0e+6", "bandwidth_hz: 1.0e+300").replace(
        "noise_psd_dbm_hz: -174.0", "noise_psd_dbm_hz: 300.0"
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.field == "env.noise_psd_dbm_hz"
    assert "got inf" in str(err.value)


def test_parse_failure_is_config_error():
    with pytest.raises(ConfigError) as err:
        load_scenario("env: [unclosed")
    assert "parse" in str(err.value)


def test_non_mapping_document_rejected():
    with pytest.raises(ConfigError) as err:
        load_scenario("just a scalar")
    assert "mapping" in str(err.value)


def test_bad_omega_names_field():
    text = MINIMAL + "\npathloss:\n  los_probability: 2.0\n"
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "los_probability" in str(err.value)


def test_both_gain_and_distance_rejected():
    text = MINIMAL.replace(
        "hrc_gains: [1.0e-13]",
        "hrc_gains: [1.0e-13]\n  hrc_distances_m: [1200.0]",
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "not both" in str(err.value)


def test_missing_gain_and_distance_rejected():
    text = MINIMAL.replace("hrc_gains: [1.0e-13]", "")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "devices.hrc" in str(err.value)


def test_pair_count_mismatch_rejected():
    text = MINIMAL.replace("mrc_gains: [8.0e-14]", "mrc_gains: [8.0e-14, 4.0e-14]")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "counts must match" in str(err.value)


def test_missing_section_names_it():
    text = MINIMAL.replace("overheads:", "overheadz:")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "overheads" in str(err.value)


SECTIONS = ("env", "sensing", "pathloss", "sweep", "devices", "primary", "overheads")


@pytest.mark.parametrize("section", SECTIONS)
def test_unknown_key_in_section_names_it(section):
    if f"\n{section}:\n" in MINIMAL:
        text = MINIMAL.replace(f"\n{section}:\n", f"\n{section}:\n  bogus: 1\n")
    else:
        text = MINIMAL + f"\n{section}:\n  bogus: 1\n"
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.field == f"{section}.bogus"
    assert str(err.value) == f"{section}.bogus: unknown key"


def test_unknown_top_level_key_names_it():
    with pytest.raises(ConfigError) as err:
        load_scenario(MINIMAL + "\nextras: {note: 1}\n")
    assert err.value.field == "extras"
    assert str(err.value) == "extras: unknown key"


def test_dbm_unit_mode_converts_powers():
    text = "unit_mode: dbm\n" + MINIMAL.replace("label: minimal", "")
    scn = load_scenario(text)
    assert scn.unit_mode == "dbm"
    assert scn.overheads.circuit_w == pytest.approx(dbm_to_watt(99.0), rel=1e-15)
    assert scn.overheads.sensing_w == pytest.approx(dbm_to_watt(1.0), rel=1e-15)
    assert scn.primary.power_w == pytest.approx(dbm_to_watt(50.0), rel=1e-15)
    assert scn.pairs[0].hrc_power_w == pytest.approx(dbm_to_watt(0.7), rel=1e-15)


def test_bad_unit_mode_rejected():
    text = "unit_mode: joules\n" + MINIMAL.replace("label: minimal", "")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "unit_mode" in str(err.value)


def test_string_exponent_floats_are_coerced():
    # YAML 1.1 only treats signed exponents as floats; unsigned ones arrive
    # as strings and must still load.
    text = MINIMAL.replace("bandwidth_hz: 1.0e+6", "bandwidth_hz: 1.0e6")
    scn = load_scenario(text)
    assert scn.env.bandwidth_hz == 1.0e6


def test_non_numeric_value_rejected():
    text = MINIMAL.replace("circuit_power: 99.0", "circuit_power: lots")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "overheads.circuit_power" in str(err.value)


def test_out_of_range_distance_recorded_as_note():
    text = MINIMAL.replace("hrc_gains: [1.0e-13]", "hrc_distances_m: [5.0]")
    scn = load_scenario(text)
    assert any("outside" in note for note in scn.notes)


def test_sic_violation_recorded_as_note():
    text = MINIMAL.replace("mrc_gains: [8.0e-14]", "mrc_gains: [9.0e-13]")
    scn = load_scenario(text)
    assert any("SIC" in note for note in scn.notes)


def test_range_notes_appear_once_per_section():
    text = (
        MINIMAL.replace("carrier_ghz: 5.0", "carrier_ghz: 7.0")
        .replace("hrc_gains: [1.0e-13]", "hrc_distances_m: [5.0, 2500.0, 5.0]")
        .replace("mrc_gains: [8.0e-14]", "mrc_distances_m: [100.0, 100.0, 100.0]")
    )
    assert load_scenario(text).notes == (
        "pathloss.los_probability defaulted to 0.5",
        "devices.hrc: distance 5.0 m outside the model validity range (10.0, 2000.0) m",
        "devices.hrc: carrier 7.0 GHz outside the model validity range (2.0, 6.0) GHz",
        "devices.hrc: distance 2500.0 m outside the model validity range (10.0, 2000.0) m",
        "devices.mrc: carrier 7.0 GHz outside the model validity range (2.0, 6.0) GHz",
        "devices[pair]: received HRC power does not exceed the paired MRC power "
        "(2.474e-15 W <= 1.344e-11 W); SIC ordering strained",
    )


def test_notes_are_exact_under_concurrent_sweeps():
    """Loads racing optimized sweeps see their own notes and no filter edits."""
    text = default_scenario_text().replace("[1200.0,", "[5000.0,")
    scn = load_scenario(text)
    assert len(scn.notes) == 2
    filters = list(warnings.filters)
    done = threading.Event()

    def sweeps():
        while not done.is_set():
            run_sweep(scn, EFFECTUAL, "mrc", True, "cascaded")

    # A short switch interval makes the threads interleave inside each call.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker = threading.Thread(target=sweeps)
    worker.start()
    try:
        wrong = sum(load_scenario(text).notes != scn.notes for _ in range(200))
    finally:
        done.set()
        worker.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert wrong == 0
    assert list(warnings.filters) == filters


def test_custom_grid_is_exact_progression():
    text = MINIMAL + "\nsweep:\n  start: 0.0\n  stop: 0.2\n  step: 0.05\n"
    scn = load_scenario(text)
    expected = tuple(round(0.0 + i * 0.05, 12) for i in range(5))
    assert scn.sweep_grid == expected


def test_default_grid_is_exact_progression(default_scenario):
    expected = tuple(round(i * 0.01, 12) for i in range(101))
    assert default_scenario.sweep_grid == expected
    assert all(b > a for a, b in zip(default_scenario.sweep_grid, default_scenario.sweep_grid[1:]))


def test_bad_sweep_step_rejected():
    text = MINIMAL + "\nsweep:\n  start: 0.0\n  stop: 1.0\n  step: -0.01\n"
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert "sweep.step" in str(err.value)


def test_grid_outside_probability_is_config_error():
    text = MINIMAL + "\nsweep:\n  start: 0.0\n  stop: 1.5\n  step: 0.5\n"
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.field == "sweep"
    assert "p_x must be a probability in [0, 1], got 1.5" in str(err.value)


def test_default_scenario_text_round_trips(default_scenario):
    assert load_scenario(default_scenario_text()) == default_scenario


def test_sweep_origin_and_grid(default_scenario):
    series = run_sweep(default_scenario, EFFECTUAL, "hrc", optimized=False)
    assert series.points[0].p_x == 0.0
    assert series.points[0].throughput_bps == 0.0
    assert series.points[0].ee_bps_per_watt == 0.0
    assert tuple(p.p_x for p in series.points) == default_scenario.sweep_grid


def test_sweep_ee_identity(default_scenario):
    total_overhead = default_scenario.overheads.total_w
    for state in (EFFECTUAL, INTERFERENCE):
        for device in ("hrc", "mrc"):
            for optimized in (False, True):
                series = run_sweep(default_scenario, state, device, optimized)
                for point in series.points:
                    expected = point.throughput_bps / (point.tx_power_w + total_overhead)
                    assert point.ee_bps_per_watt == pytest.approx(expected, rel=1e-12)


def test_sweep_determinism(default_scenario):
    a = run_sweep(default_scenario, INTERFERENCE, "mrc", optimized=True)
    b = run_sweep(default_scenario, INTERFERENCE, "mrc", optimized=True)
    assert a == b


def test_sweep_optimized_dominates_original(default_scenario):
    for state in (EFFECTUAL, INTERFERENCE):
        for device in ("hrc", "mrc"):
            original = run_sweep(default_scenario, state, device, optimized=False)
            optimized = run_sweep(default_scenario, state, device, optimized=True)
            assert optimized.infeasible_pairs == ()
            for orig, opt in zip(original.points, optimized.points):
                assert opt.ee_bps_per_watt >= orig.ee_bps_per_watt
                assert opt.throughput_bps >= orig.throughput_bps


def test_sweep_rejects_unknown_state_and_device(default_scenario):
    with pytest.raises(ValueError):
        run_sweep(default_scenario, "quiet", "hrc", optimized=False)
    with pytest.raises(ValueError):
        run_sweep(default_scenario, EFFECTUAL, "xrc", optimized=False)


def test_infeasible_pairs_fall_back_to_nominal():
    scn = make_scenario(hrc_gains=(1e-18, 1e-13), mrc_gains=(5e-19, 8e-14))
    original = run_sweep(scn, EFFECTUAL, "hrc", optimized=False)
    optimized = run_sweep(scn, EFFECTUAL, "hrc", optimized=True)
    assert optimized.infeasible_pairs == (0,)
    # The fallback pair carries nominal power, so the optimized series still
    # dominates but by less than a fully feasible scenario would.
    for orig, opt in zip(original.points, optimized.points):
        assert opt.throughput_bps >= orig.throughput_bps


# A dBm scenario with explicit gains, three pairs, a non-default grid and a
# duty factor (2/3) whose products round, unlike the default 1/2.
DBM_GAINS = """
unit_mode: dbm
env: {bandwidth_hz: 1.0e+6, noise_psd_dbm_hz: -174.0, carrier_ghz: 5.0}
sensing: {transmit_time_s: 0.1e-3, sense_time_s: 0.05e-3, p_false_alarm: 0.07, p_detection: 0.93}
devices:
  hrc_power: 28.0
  mrc_power: 24.0
  hrc_gains: [1.0e-13, 3.0e-13, 7.0e-14]
  mrc_gains: [8.0e-14, 1.0e-13, 2.0e-14]
primary: {power: 47.0, gain: 1.5e-14}
overheads: {circuit_power: 49.0, sensing_power: 30.0}
sweep: {start: 0.0, stop: 1.0, step: 0.003}
"""

# All eight (state, device, optimized) series plus cascaded MRC per state.
SERIES = [
    (state, device, optimized, "nominal")
    for state in (EFFECTUAL, INTERFERENCE)
    for device in ("hrc", "mrc")
    for optimized in (False, True)
] + [(EFFECTUAL, "mrc", True, "cascaded"), (INTERFERENCE, "mrc", True, "cascaded")]


def _reference_pairs(scn, state, device, optimized, coupling):
    """Device pairs a series evaluates: nominal, or with feasible optima swapped in."""
    if not optimized:
        return scn.pairs
    optima = optimize_scenario(scn, state, coupling)
    pairs = []
    for pair, hrc, mrc in zip(scn.pairs, optima.hrc, optima.mrc):
        if device == "hrc":
            pairs.append(replace(pair, hrc_power_w=hrc.power_w) if hrc.feasible else pair)
        elif not mrc.feasible:
            pairs.append(pair)
        else:
            hrc_power = pair.hrc_power_w
            if coupling == "cascaded" and hrc.feasible:
                hrc_power = hrc.power_w
            pairs.append(replace(pair, mrc_power_w=mrc.power_w, hrc_power_w=hrc_power))
    return pairs


def _reference_points(scn, state, device, pairs):
    """Per-point values the straightforward way: one public ``throughput``
    call per pair and grid point over a SensingProfile rebuilt with p_x,
    totalled by plain running sums (sum() rounds differently from 3.12 on)."""
    n = len(pairs)
    tx_total = 0.0
    for p in pairs:
        tx_total += p.hrc_power_w if device == "hrc" else p.mrc_power_w
    mean_tx = tx_total / n
    for p_x in scn.sweep_grid:
        if state == EFFECTUAL:
            sensing, primary = replace(scn.sensing, p_inactive=p_x), None
        else:
            sensing, primary = replace(scn.sensing, p_active=p_x), scn.primary
        total = 0.0
        for pair in pairs:
            total += throughput(sensing, scn.env, [pair], device, primary)
        mean = total / n
        yield mean, energy_efficiency(mean, mean_tx, scn.overheads)


@pytest.mark.parametrize("state, device, optimized, coupling", SERIES)
@pytest.mark.parametrize("scenario_kind", ["default", "dbm_gains"])
def test_sweep_is_bit_identical_to_per_pair_path(
    default_scenario, scenario_kind, state, device, optimized, coupling
):
    scn = default_scenario if scenario_kind == "default" else load_scenario(DBM_GAINS)
    series = run_sweep(scn, state, device, optimized, coupling)
    pairs = _reference_pairs(scn, state, device, optimized, coupling)
    expected = list(_reference_points(scn, state, device, pairs))
    assert series.p_x == scn.sweep_grid
    assert series.throughput_bps == tuple(mean for mean, _ in expected)
    assert series.ee_bps_per_watt == tuple(ee for _, ee in expected)
    assert len(series.points) == len(expected) == len(scn.sweep_grid)
    for point, (mean, ee) in zip(series.points, expected):
        assert point.throughput_bps == mean
        assert point.ee_bps_per_watt == ee


@pytest.mark.parametrize("state, device, optimized, coupling", SERIES)
def test_points_view_rebuilds_metric_points_from_columns(
    default_scenario, state, device, optimized, coupling
):
    series = run_sweep(default_scenario, state, device, optimized, coupling)
    points = series.points
    assert len(points) == len(series.p_x)
    for point, p_x, mean, ee in zip(
        points, series.p_x, series.throughput_bps, series.ee_bps_per_watt
    ):
        expected = MetricPoint(p_x, state, device, mean, ee, series.tx_power_w, optimized)
        for field in fields(MetricPoint):
            assert repr(getattr(point, field.name)) == repr(getattr(expected, field.name))
    # A view, not a cache: each access builds a new, equal tuple.
    again = series.points
    assert again == points and again is not points


def test_sweep_counts_sic_violations(default_scenario):
    # The MRC optimum (about 36 W) dwarfs the nominal 0.7 W HRC power, so
    # every optimized MRC signal outgrows its HRC partner; raising HRC
    # power alone never breaks the ordering.
    n = len(default_scenario.pairs)
    assert run_sweep(default_scenario, EFFECTUAL, "mrc", True).sic_violations == n
    assert run_sweep(default_scenario, EFFECTUAL, "mrc", True, "cascaded").sic_violations == n
    assert run_sweep(default_scenario, EFFECTUAL, "hrc", True).sic_violations == 0
    assert run_sweep(default_scenario, EFFECTUAL, "mrc", False).sic_violations == 0
    # Infeasible pairs keep their nominal powers and are not counted.
    cascaded = run_sweep(default_scenario, INTERFERENCE, "mrc", True, "cascaded")
    assert cascaded.infeasible_pairs == tuple(range(n))
    assert cascaded.sic_violations == 0


@pytest.mark.parametrize("optimized", [False, True])
def test_sweep_rejects_unknown_coupling(default_scenario, optimized):
    with pytest.raises(ValueError, match="coupling must be 'nominal' or 'cascaded', got 'bogus'"):
        run_sweep(default_scenario, EFFECTUAL, "hrc", optimized, "bogus")


def test_scenario_rejects_grid_value_outside_probability(default_scenario):
    # Checked when the Scenario is built, so no sweep can see such a grid.
    for bad in (1.5, math.nan):
        message = rf"p_x must be a probability in \[0, 1\], got {bad!r}"
        with pytest.raises(ValueError, match=message):
            replace(default_scenario, sweep_grid=(0.0, 0.5, bad))


def test_content_hash_tracks_content(default_scenario):
    assert default_scenario.content_hash() == default_scenario.content_hash()
    other = replace(default_scenario, los_probability=0.6)
    assert other.content_hash() != default_scenario.content_hash()


needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)

# DBM_GAINS with unsigned exponents, which YAML 1.1 reads as strings.
DBM_UNSIGNED = DBM_GAINS.replace("bandwidth_hz: 1.0e+6", "bandwidth_hz: 1.0e6").replace(
    "circuit_power: 49.0", "circuit_power: 4.9e1"
)


def _wide_document(pairs=300, seed=7):
    """Many pairs at seeded distances, about 2% below the model's 10 m floor."""
    rng = random.Random(seed)

    def distances():
        return ", ".join(
            f"{rng.uniform(5.0, 9.9) if rng.random() < 0.02 else rng.uniform(10.0, 2000.0):.2f}"
            for _ in range(pairs)
        )

    return (
        "label: wide\n"
        "env: {bandwidth_hz: 1.0e6, noise_psd_dbm_hz: -174.0, carrier_ghz: 5.0}\n"
        "sensing: {transmit_time_s: 0.125e-3, sense_time_s: 0.125e-3,"
        " p_false_alarm: 0.1, p_detection: 0.9}\n"
        "pathloss: {los_probability: 0.5, combine: linear}\n"
        "sweep: {start: 0.5, stop: 0.5, step: 0.01}\n"
        "devices:\n"
        "  hrc_power: 0.7\n"
        "  mrc_power: 0.3\n"
        f"  hrc_distances_m: [{distances()}]\n"
        f"  mrc_distances_m: [{distances()}]\n"
        "primary: {power: 50.0, distance_m: 1800.0}\n"
        "overheads: {circuit_power: 99.0, sensing_power: 1.0}\n"
    )


@needs_libyaml
@pytest.mark.parametrize("kind", ["default", "dbm_unsigned", "wide_300"])
def test_libyaml_loader_builds_the_same_scenario(monkeypatch, kind):
    text = {
        "default": default_scenario_text(),
        "dbm_unsigned": DBM_UNSIGNED,
        "wide_300": _wide_document(),
    }[kind]
    assert crnoma.scenario._YAML_LOADER is yaml.CSafeLoader
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    assert fast == yaml.load(text, Loader=yaml.SafeLoader)
    if kind == "dbm_unsigned":
        assert fast["env"]["bandwidth_hz"] == "1.0e6"
        assert fast["overheads"]["circuit_power"] == "4.9e1"

    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", yaml.SafeLoader)
    expected = load_scenario(text)
    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", yaml.CSafeLoader)
    assert load_scenario(text) == expected
    if kind == "wide_300":
        assert len(expected.pairs) == 300
        assert any("outside" in note for note in expected.notes)


@pytest.mark.parametrize("value", ["[a, b]", "42", "{name: x}"])
def test_non_string_label_is_config_error(value):
    with pytest.raises(ConfigError) as err:
        load_scenario(MINIMAL.replace("label: minimal", f"label: {value}"))
    assert err.value.field == "label"


def test_null_label_means_unnamed():
    assert load_scenario(MINIMAL.replace("label: minimal", "label:")).label == "unnamed"


def test_dbm_power_overflow_names_field():
    text = "unit_mode: dbm\n" + MINIMAL.replace("circuit_power: 99.0", "circuit_power: 5000.0")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.field == "overheads.circuit_power"


def test_gain_overflow_from_tiny_distance_names_field():
    text = MINIMAL.replace("mrc_gains: [8.0e-14]", "mrc_distances_m: [1.0e-300]")
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.field == "devices.mrc[0]"
