"""Scenario loading, validation diagnostics, and sweeps."""

import copy
import gc
import math
import random
import re
import struct
import sys
import threading
import warnings

import pytest
import yaml
from hypothesis import example, given, strategies as st

import crnoma.lambertw
import crnoma.metrics
import crnoma.optimizer
import crnoma.scenario

from crnoma import (
    ConfigError,
    EFFECTUAL,
    INTERFERENCE,
    MetricPoint,
    ScenarioOptima,
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
    expected = power_gain(pathloss_average_db(1200.0, 5.0, 0.5))
    assert first.hrc_gain == expected


def test_default_pairs_keep_sic_ordering(default_scenario):
    for pair in default_scenario.pairs:
        assert pair.sic_ordering_ok()


def test_minimal_scenario_with_explicit_gains():
    scn = load_scenario(MINIMAL)
    assert scn.pairs[0].hrc_gain == 1e-13
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


@pytest.mark.parametrize(
    "p_detection, p_false_alarm, outside",
    [
        ("0.9", "0.1", False),
        ("1.0", "0.0", False),
        ("0.8999", "0.1", True),
        ("0.9", "0.1001", True),
    ],
)
def test_regulatory_note_only_outside_envelope(p_detection, p_false_alarm, outside):
    text = MINIMAL.replace("p_false_alarm: 0.1", f"p_false_alarm: {p_false_alarm}").replace(
        "p_detection: 0.9", f"p_detection: {p_detection}"
    )
    note = (
        "sensing: p_detection/p_false_alarm outside the regulatory "
        "envelope (p_d >= 0.9, p_f <= 0.1)"
    )
    assert (note in load_scenario(text).notes) is outside


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
# Every (state, device, optimized, coupling) combination run_sweep accepts.
ALL_SERIES = SERIES + [
    (state, device, optimized, "cascaded")
    for state in (EFFECTUAL, INTERFERENCE)
    for device, optimized in (("hrc", False), ("hrc", True), ("mrc", False))
]


def _reference_pairs(scn, state, device, optimized, coupling):
    """Device pairs a series evaluates: nominal, or with feasible optima swapped in."""
    if not optimized:
        return scn.pairs
    optima = optimize_scenario(scn, state, coupling)
    pairs = []
    for pair, hrc, mrc in zip(scn.pairs, optima.hrc, optima.mrc):
        if device == "hrc":
            pairs.append(pair._replace(hrc_power_w=hrc.power_w) if hrc.feasible else pair)
        elif not mrc.feasible:
            pairs.append(pair)
        else:
            hrc_power = pair.hrc_power_w
            if coupling == "cascaded" and hrc.feasible:
                hrc_power = hrc.power_w
            pairs.append(pair._replace(mrc_power_w=mrc.power_w, hrc_power_w=hrc_power))
    return pairs


def _reference_points(scn, state, device, pairs):
    """Per-point values the straightforward way: one public ``throughput``
    call over all pairs per grid point, on a SensingProfile rebuilt with
    p_x, divided by n.  The mean transmit power is a plain running sum
    (sum() rounds differently from 3.12 on)."""
    n = len(pairs)
    tx_total = 0.0
    for p in pairs:
        tx_total += p.hrc_power_w if device == "hrc" else p.mrc_power_w
    mean_tx = tx_total / n
    for p_x in scn.sweep_grid:
        if state == EFFECTUAL:
            sensing, primary = scn.sensing._replace(p_inactive=p_x), None
        else:
            sensing, primary = scn.sensing._replace(p_active=p_x), scn.primary
        mean = throughput(sensing, scn.env, pairs, device, primary) / n
        yield mean, energy_efficiency(mean, mean_tx, scn.overheads)


def _default_with_pairs(n):
    """The default scenario cut to its first n device pairs, its distance
    lists taken twice over so that n may exceed their 5."""
    data = yaml.safe_load(default_scenario_text())
    devices = data["devices"]
    for key in ("hrc_distances_m", "mrc_distances_m"):
        devices[key] = (devices[key] * 2)[:n]
    return load_scenario(yaml.safe_dump(data))


# Each sweep row divides by the pair count n; with these and dbm_gains'
# three pairs the test below covers n = 1, 3, 5 and 7.
SLICED_DEFAULTS = {"default_1_pair": 1, "default_3_pairs": 3, "default_7_pairs": 7}


@pytest.mark.parametrize("state, device, optimized, coupling", ALL_SERIES)
@pytest.mark.parametrize("scenario_kind", ["default", "dbm_gains", *SLICED_DEFAULTS])
def test_sweep_is_bit_identical_to_per_pair_path(
    default_scenario, scenario_kind, state, device, optimized, coupling
):
    """Every row is ``throughput()`` over the series' pairs at that p_x,
    divided by n, and its EE is ``energy_efficiency`` of that, bit for bit."""
    if scenario_kind == "default":
        scn = default_scenario
    elif scenario_kind == "dbm_gains":
        scn = load_scenario(DBM_GAINS)
    else:
        scn = _default_with_pairs(SLICED_DEFAULTS[scenario_kind])
        assert len(scn.pairs) == SLICED_DEFAULTS[scenario_kind]
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


@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    n=st.integers(min_value=1, max_value=2**53),
)
@example(x=5e-324, n=3)
@example(x=-0.0, n=7)
@example(x=sys.float_info.min, n=2**53 - 1)
@example(x=sys.float_info.max, n=1)
@example(x=-sys.float_info.max, n=2**53)
def test_dividing_by_an_int_or_by_its_float_gives_the_same_double(x, n):
    # run_sweep divides by float(n) in place of the int pair count n. Any
    # n <= 2**53 converts to a double exactly, so both are the one
    # correctly rounded quotient.
    assert struct.pack("<d", x / n) == struct.pack("<d", x / float(n))


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
        for field in MetricPoint._fields:
            assert repr(getattr(point, field)) == repr(getattr(expected, field))
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


def _random_scenario(rng):
    """Log-uniform gains from hopeless to strong, so each state mixes feasible
    and infeasible optima, including cascaded MRC pairs whose HRC optimum is
    infeasible and which therefore fall back to the nominal HRC power."""

    def gains(n):
        return tuple(10.0 ** rng.uniform(-19.0, -12.0) for _ in range(n))

    n = rng.randint(1, 6)
    return make_scenario(
        hrc_gains=gains(n),
        mrc_gains=gains(n),
        hrc_power_w=rng.uniform(0.0, 2.0),
        mrc_power_w=rng.uniform(0.0, 2.0),
        primary_power_w=10.0 ** rng.uniform(-1.0, 2.5),
        primary_gain=10.0 ** rng.uniform(-16.0, -12.0),
        circuit_w=rng.uniform(0.0, 150.0),
        sensing_w=rng.uniform(0.1, 5.0),
        p_false_alarm=rng.random(),
        p_detection=rng.random(),
        grid=sorted(rng.random() for _ in range(rng.randint(1, 7))),
    )


def _memo_scenarios(default_scenario):
    rng = random.Random(20)
    randoms = [_random_scenario(rng) for _ in range(22)]
    return [default_scenario, load_scenario(DBM_GAINS)] + randoms


# Every optimize_scenario call and every run_sweep series of one scenario.
MEMO_CALLS = [
    (optimize_scenario, (state, coupling))
    for state in (EFFECTUAL, INTERFERENCE)
    for coupling in ("nominal", "cascaded")
] + [
    (run_sweep, (state, device, optimized, coupling))
    for state in (EFFECTUAL, INTERFERENCE)
    for device in ("hrc", "mrc")
    for optimized in (False, True)
    for coupling in ("nominal", "cascaded")
]


def test_memoized_results_do_not_depend_on_call_order(default_scenario):
    cases = {"infeasible hrc": 0, "infeasible mrc": 0, "cascaded fallback": 0}
    for scn in _memo_scenarios(default_scenario):
        for i, (fn, args) in enumerate(MEMO_CALLS):
            first = fn(scn._replace(), *args)
            late = scn._replace()
            for fn_other, other_args in MEMO_CALLS[:i] + MEMO_CALLS[i + 1 :]:
                fn_other(late, *other_args)
            # repr compares the floats bit for bit, NaN powers included.
            assert repr(fn(late, *args)) == repr(first), (scn.label, fn.__name__, args)
            if fn is optimize_scenario and args[1] == "cascaded":
                cases["infeasible hrc"] += sum(not r.feasible for r in first.hrc)
                cases["infeasible mrc"] += sum(not r.feasible for r in first.mrc)
                cases["cascaded fallback"] += sum(
                    not h.feasible and m.feasible for h, m in zip(first.hrc, first.mrc)
                )
    assert all(cases.values()), cases


@pytest.mark.parametrize("coupling", ["nominal", "cascaded"])
def test_optimized_series_match_per_pair_copies(default_scenario, coupling):
    """The power columns give what copying each optimized pair gave."""
    for scn in _memo_scenarios(default_scenario):
        for state in (EFFECTUAL, INTERFERENCE):
            for device in ("hrc", "mrc"):
                series = run_sweep(scn, state, device, True, coupling)
                # A fresh scenario, so the reference solves its own optima.
                fresh = scn._replace()
                optima = optimize_scenario(fresh, state, coupling)
                results = optima.hrc if device == "hrc" else optima.mrc
                infeasible = tuple(i for i, r in enumerate(results) if not r.feasible)
                pairs = _reference_pairs(fresh, state, device, True, coupling)
                sic_violations = sum(
                    not p.sic_ordering_ok()
                    for i, p in enumerate(pairs)
                    if i not in infeasible
                )
                tx_total = 0.0
                for p in pairs:
                    tx_total += p.hrc_power_w if device == "hrc" else p.mrc_power_w
                expected = list(_reference_points(scn, state, device, pairs))
                assert series.throughput_bps == tuple(mean for mean, _ in expected)
                assert series.ee_bps_per_watt == tuple(ee for _, ee in expected)
                assert series.tx_power_w == tx_total / len(pairs)
                assert series.infeasible_pairs == infeasible
                assert series.sic_violations == sic_violations


def test_replaced_scenario_starts_without_memo():
    scn = make_scenario(hrc_gains=(1e-13, 5e-14, 2e-13), mrc_gains=(8e-14, 4e-14, 1e-13))
    before = (repr(scn), hash(scn), scn.content_hash())
    full = optimize_scenario(scn, EFFECTUAL, "cascaded")
    # The memo is no field: repr, hash, content_hash and == ignore it.
    assert (repr(scn), hash(scn), scn.content_hash()) == before
    assert scn == scn._replace()
    assert optimize_scenario(scn, EFFECTUAL, "cascaded") is full

    fewer = scn._replace(pairs=scn.pairs[1:])
    optima = optimize_scenario(fewer, EFFECTUAL, "cascaded")
    assert len(optima.hrc) == len(optima.mrc) == 2
    assert repr(optima) == repr(ScenarioOptima(full.hrc[1:], full.mrc[1:]))
    stronger = scn._replace(primary=scn.primary._replace(power_w=1.0))
    assert repr(optimize_scenario(stronger, EFFECTUAL, "cascaded")) == repr(full)
    assert repr(optimize_scenario(stronger, INTERFERENCE, "cascaded")) != repr(
        optimize_scenario(scn, INTERFERENCE, "cascaded")
    )


def test_failed_optimization_is_not_cached(default_scenario):
    pair = default_scenario.pairs[0]._replace(hrc_power_w=1e308, hrc_gain=1e10)
    scn = default_scenario._replace(pairs=(pair,))
    for _ in range(2):
        with pytest.raises(ValueError, match="denom_power_w must be > 0, got inf"):
            optimize_scenario(scn, EFFECTUAL)
    # The cascaded MRC denominators use the finite HRC optimum instead.
    assert len(optimize_scenario(scn, EFFECTUAL, "cascaded").hrc) == 1


def test_each_closed_form_is_solved_once_per_scenario(monkeypatch):
    calls = []
    closed_forms = crnoma.optimizer._closed_forms

    def counting_closed_forms(gains, denoms, *args):
        calls.extend(zip(gains, denoms))
        return closed_forms(gains, denoms, *args)

    monkeypatch.setattr(crnoma.optimizer, "_closed_forms", counting_closed_forms)
    scn = make_scenario(
        hrc_gains=(1e-13, 5e-14, 2e-13), mrc_gains=(8e-14, 4e-14, 1e-13), primary_gain=1.5e-15
    )
    optima = [
        optimize_scenario(scn, s, c)
        for s in (EFFECTUAL, INTERFERENCE)
        for c in ("nominal", "cascaded")
    ]
    assert all(r.feasible for o in optima for r in o.hrc + o.mrc)
    n = len(scn.pairs)
    # Rows solved: HRC once per state, MRC once per state and coupling.
    assert len(calls) == 2 * n + 2 * 2 * n
    # The sweeps in the benchmark's order reuse those solves.
    for state in (EFFECTUAL, INTERFERENCE):
        for device in ("hrc", "mrc"):
            for optimized in (False, True):
                coupling = "cascaded" if device == "mrc" else "nominal"
                run_sweep(scn, state, device, optimized, coupling)
    assert len(calls) == 2 * n + 2 * 2 * n


def test_memo_is_exact_under_concurrent_calls(default_scenario):
    """Threads racing to fill one scenario's memo all see the serial results."""
    calls = [(fn, args) for fn, args in MEMO_CALLS if fn is optimize_scenario or args[2]]
    serial = [repr(fn(default_scenario._replace(), *args)) for fn, args in calls]
    wrong = []

    def worker(scn, seed, barrier):
        order = list(range(len(calls)))
        random.Random(seed).shuffle(order)
        barrier.wait(timeout=10.0)
        for i in order:
            fn, args = calls[i]
            if repr(fn(scn, *args)) != serial[i]:
                wrong.append((seed, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(10):
            scn = default_scenario._replace()
            barrier = threading.Barrier(8)
            threads = [
                threading.Thread(target=worker, args=(scn, 8 * round_ + k, barrier))
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


@pytest.mark.parametrize("scenario_kind", ["default", "dbm_gains"])
def test_series_are_bit_identical_with_a_cold_or_warm_memo(default_scenario, scenario_kind):
    """Every series equals its value on a fresh scenario, whether the memo
    was filled by the series before it (in forward or reverse order) or by
    all the others."""
    scn = default_scenario if scenario_kind == "default" else load_scenario(DBM_GAINS)
    cold = {args: repr(run_sweep(scn._replace(), *args)) for args in ALL_SERIES}
    assert len(cold) == 16
    for order in (ALL_SERIES, ALL_SERIES[::-1]):
        warm = scn._replace()
        for _ in range(2):  # the second pass runs each series after all the others
            for args in order:
                assert repr(run_sweep(warm, *args)) == cold[args], args


def test_scenario_rejects_grid_value_outside_probability(default_scenario):
    # Checked when the Scenario is built, so no sweep can see such a grid.
    for bad in (1.5, math.nan):
        message = rf"p_x must be a probability in \[0, 1\], got {bad!r}"
        with pytest.raises(ValueError, match=message):
            default_scenario._replace(sweep_grid=(0.0, 0.5, bad))


def test_content_hash_tracks_content(default_scenario):
    assert default_scenario.content_hash() == default_scenario.content_hash()
    other = default_scenario._replace(sweep_grid=default_scenario.sweep_grid[:-1])
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
    assert issubclass(crnoma.scenario._YAML_LOADER, yaml.CSafeLoader)
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    assert fast == yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=crnoma.scenario._YAML_LOADER) == fast
    if kind == "dbm_unsigned":
        assert fast["env"]["bandwidth_hz"] == "1.0e6"
        assert fast["overheads"]["circuit_power"] == "4.9e1"

    expected = load_scenario(text)
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", loader)
        assert load_scenario(text) == expected
    if kind == "wide_300":
        assert len(expected.pairs) == 300
        assert any("outside" in note for note in expected.notes)


# Documents on which the scenario loader must build what a stock safe loader
# builds, or raise the same error.  Sequences of scalars take the loader's
# direct path; everything else goes through construct_object.
LOADER_DOCUMENTS = {
    "scalar_aliases": "a: &x 1.5\nb: [*x, *x, 2, &y 3, *y]\nc: *y\n",
    "sequence_aliases": "s: &s [1, 2.5, x]\nt: *s\nu: [*s, *s, [*s]]\n",
    "self_nesting": "r: &a [*a]\ns: &b [*b, 1]\n",
    "merge_keys": "b: &b {k: 1, l: [1, 2]}\nm: {<<: *b, k: 2}\nn: {<<: [*b, {z: [3]}]}\n",
    "explicit_tags": "v: [!!float 1, !!str 1.0, !!int '7', !!bool yes]\nw: !!float 1\n",
    "special_scalars": "v: [.inf, -.inf, .nan, 1:30, 1_000.5, 0x1f, ~, true, 1.0e6, 1.0e+6]\n",
    "mixed_items": "v: [1, [2, 3], {a: [4]}, 2001-12-14, !!binary aGk=, null, '']\n",
    "unknown_tag": "v: [1, !unknown 2]\n",
    "collection_tag_on_scalar": "v: [!!seq x]\n",
    "map_tag_on_scalar": "v: [!!map x]\n",
    "scalar_tag_on_collection": "v: [1, !!str [a]]\n",
}
REFERENCE_LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else []
)


def _same_document(got, expected, pairs=None):
    """Equal values of equal types, NaN equal to NaN, and cycles where the other has them."""
    pairs = {} if pairs is None else pairs
    if type(got) is not type(expected):
        return False
    if isinstance(got, float) and math.isnan(got):
        return math.isnan(expected)
    if isinstance(got, (list, dict)):
        key = (id(got), id(expected))
        if key in pairs:
            return True
        pairs[key] = True
        if len(got) != len(expected):
            return False
        if isinstance(got, dict):
            if list(got) != list(expected):
                return False
            got, expected = got.values(), expected.values()
        return all(_same_document(a, b, pairs) for a, b in zip(got, expected))
    return got == expected


def _load_or_error(text, loader):
    try:
        return yaml.load(text, Loader=loader), None
    except yaml.YAMLError as exc:
        return None, exc


@pytest.mark.parametrize("reference", REFERENCE_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("name", list(LOADER_DOCUMENTS))
def test_scenario_loader_builds_what_a_safe_loader_builds(name, reference):
    text = LOADER_DOCUMENTS[name]
    loader = crnoma.scenario._YAML_LOADER
    got, error = _load_or_error(text, loader)
    expected, expected_error = _load_or_error(text, reference)
    if expected_error is not None:
        assert type(error) is type(expected_error)
        assert error.problem == expected_error.problem
        # The marks a pure-Python loader prints quote the line; libyaml's do not.
        base = loader.__mro__[1]
        assert str(error) == str(_load_or_error(text, base)[1])
        return
    assert error is None
    assert _same_document(got, expected)
    if name == "self_nesting":
        assert got["r"][0] is got["r"] and got["s"][0] is got["s"]
    if name == "special_scalars":
        assert got["v"][6:] == [None, True, "1.0e6", 1.0e6]


@pytest.mark.parametrize("name", ["unknown_tag", "collection_tag_on_scalar"])
def test_scenario_loader_errors_are_config_errors(name):
    with pytest.raises(ConfigError) as err:
        load_scenario(LOADER_DOCUMENTS[name])
    assert str(err.value).startswith("<document>: YAML parse failure: ")


def _consumed_power_overflow_document():
    """CI's scenario whose consumed power overflows: one 1e308 W HRC device and overhead."""
    text = default_scenario_text()
    for old, new in (
        ("hrc_power: 0.7", "hrc_power: 1.0e+308"),
        ("circuit_power: 99.0", "circuit_power: 1.0e+308"),
        ("hrc_distances_m: [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]", "hrc_gains: [1.0e-300]"),
        ("mrc_distances_m: [1300.0, 1500.0, 1700.0, 1900.0, 2000.0]", "mrc_gains: [1.0e-300]"),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def gc_state(request):
    """The cyclic collector enabled or disabled for the test, then restored."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_loading_and_optimizing_leave_the_collector_as_found(tmp_path, gc_state):
    text = _wide_document()
    path = tmp_path / "wide.yaml"
    path.write_text(text, "utf-8")
    scenario = load_scenario(text)
    assert gc.isenabled() is gc_state
    assert crnoma.scenario.load_scenario_file(str(path)) == scenario
    assert gc.isenabled() is gc_state
    for state in (EFFECTUAL, INTERFERENCE):
        for coupling in ("nominal", "cascaded"):
            optimize_scenario(scenario, state, coupling)
            assert gc.isenabled() is gc_state


def test_failing_loads_and_optimizations_leave_the_collector_as_found(
    tmp_path, monkeypatch, gc_state
):
    bad = MINIMAL.replace("label: minimal", "label: [a, b]")
    with pytest.raises(ConfigError):
        load_scenario(bad)
    assert gc.isenabled() is gc_state
    path = tmp_path / "bad.yaml"
    path.write_text(bad, "utf-8")
    with pytest.raises(ConfigError):
        crnoma.scenario.load_scenario_file(str(path))
    assert gc.isenabled() is gc_state

    # The nominal series raises; its optimized powers keep the sum finite.
    scenario = load_scenario(_consumed_power_overflow_document())
    assert gc.isenabled() is gc_state
    with pytest.raises(ValueError, match="^energy efficiency is not finite: "):
        run_sweep(scenario, EFFECTUAL, "hrc", False)
    assert gc.isenabled() is gc_state
    # optimize_scenario's own error, raised inside its paused block.
    monkeypatch.setattr(crnoma.lambertw, "_MAX_ITER", 1)
    with pytest.raises(ValueError, match="did not converge in 1 iterations"):
        optimize_scenario(scenario._replace(), EFFECTUAL)
    assert gc.isenabled() is gc_state


def test_a_pause_that_finds_the_collector_paused_never_disables_it(monkeypatch):
    """Threads interleaved at the worst point: another thread's pause ends
    just after this one has found the collector disabled."""
    outer = crnoma.metrics._gc_paused()
    outer.__enter__()

    class InterleavedGc:
        enable, disable = staticmethod(gc.enable), staticmethod(gc.disable)

        @staticmethod
        def isenabled():
            found = gc.isenabled()
            outer.__exit__(None, None, None)
            return found

    monkeypatch.setattr(crnoma.metrics, "gc", InterleavedGc)
    try:
        with crnoma.metrics._gc_paused():
            pass
    finally:
        enabled = gc.isenabled()
        gc.enable()
    assert enabled


def test_the_collector_is_paused_while_records_are_built(monkeypatch):
    assert gc.isenabled()
    seen = []

    def spy(name, fn):
        def wrapper(*args):
            seen.append((name, gc.isenabled()))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        crnoma.scenario, "pathloss_average_db", spy("pathloss", pathloss_average_db)
    )
    monkeypatch.setattr(
        crnoma.optimizer, "_closed_forms", spy("solve", crnoma.optimizer._closed_forms)
    )
    scenario = load_scenario(_wide_document(pairs=3))
    optimize_scenario(scenario, EFFECTUAL)
    assert seen == [("pathloss", False)] * (3 + 3 + 1) + [("solve", False)] * 2
    assert gc.isenabled()


def test_loading_and_optimizing_a_wide_document_leaves_no_cyclic_garbage():
    text = _wide_document(pairs=3000)
    gc.collect()
    scenario = load_scenario(text)
    for state in (EFFECTUAL, INTERFERENCE):
        for coupling in ("nominal", "cascaded"):
            optimize_scenario(scenario, state, coupling)
    del scenario
    assert gc.collect() == 0


@pytest.mark.parametrize("value", ["[a, b]", "42", "{name: x}"])
def test_non_string_label_is_config_error(value):
    with pytest.raises(ConfigError) as err:
        load_scenario(MINIMAL.replace("label: minimal", f"label: {value}"))
    assert err.value.field == "label"


def test_library_built_scenario_checks_label_type(default_scenario):
    with pytest.raises(ConfigError) as err:
        default_scenario._replace(label=["a"])
    assert str(err.value) == "label: must be a string, got ['a']"


@pytest.mark.parametrize("mode", [["a"], "joules", None])
def test_library_built_scenario_checks_unit_mode(default_scenario, mode):
    with pytest.raises(ConfigError) as err:
        default_scenario._replace(unit_mode=mode)
    assert str(err.value) == f"unit_mode: must be one of ('watt', 'dbm'), got {mode!r}"
    assert default_scenario._replace(unit_mode="dbm").unit_mode == "dbm"


@pytest.mark.parametrize(
    "change, field, message",
    [
        ({"pairs": ()}, "devices", "must hold at least one device pair"),
        ({"sweep_grid": ()}, "sweep", "grid must hold at least one p_x value"),
    ],
    ids=["pairs", "sweep_grid"],
)
def test_library_built_scenario_rejects_empty_pairs_and_grid(
    default_scenario, change, field, message
):
    # Without the check, a sweep divides by zero pairs and validation reads grid[0].
    with pytest.raises(ConfigError) as err:
        default_scenario._replace(**change)
    assert err.value.field == field
    assert str(err.value) == f"{field}: {message}"


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


_DEFAULT_DOC = yaml.safe_load(default_scenario_text())


# An edit value that removes the key instead of setting it.
_DROP = object()


def _edited(*edits):
    """The bundled scenario with each ("section.key", value) edit applied."""
    doc = copy.deepcopy(_DEFAULT_DOC)
    for path, value in edits:
        *sections, key = path.split(".")
        table = doc
        for section in sections:
            table = table.setdefault(section, {})
        if value is _DROP:
            del table[key]
        else:
            table[key] = value
    return yaml.safe_dump(doc)


def _config_error_text(text):
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    return str(err.value)


# One bad value per key the loader accepts, and the exact error it gives.
KEY_ERRORS = {
    "label": (["a"], "label: must be a string, got ['a']"),
    "unit_mode": ("joules", "unit_mode: must be one of ('watt', 'dbm'), got 'joules'"),
    **{
        section: (1, f"{section}: missing or not a table")
        for section in ("env", "sensing", "pathloss", "sweep", "devices", "primary", "overheads")
    },
    **{
        f"{section}.{key}": ("x", f"{section}.{key}: expected a number, got 'x'")
        for section, keys in {
            "env": ("bandwidth_hz", "noise_psd_dbm_hz", "carrier_ghz"),
            "sensing": (
                "transmit_time_s", "sense_time_s", "p_inactive", "p_active",
                "p_false_alarm", "p_detection",
            ),
            "pathloss": ("los_probability",),
            "sweep": ("start", "stop", "step"),
            "devices": ("hrc_power", "mrc_power"),
            "primary": ("power", "gain", "distance_m"),
            "overheads": ("circuit_power", "sensing_power"),
        }.items()
        for key in keys
    },
    "pathloss.combine": ("x", "pathloss.combine: must be 'db' or 'linear', got 'x'"),
    **{
        f"devices.{key}": ("x", f"devices.{key}: expected a non-empty list of numbers")
        for key in ("hrc_gains", "mrc_gains", "hrc_distances_m", "mrc_distances_m")
    },
}


def test_key_errors_cover_every_accepted_key():
    accepted = {
        f"{section}.{key}" if section else key
        for section, keys in crnoma.scenario._KEYS.items()
        for key in keys
    }
    assert set(KEY_ERRORS) == accepted


@pytest.mark.parametrize("path", list(KEY_ERRORS))
def test_bad_value_of_each_key_names_it(path):
    value, message = KEY_ERRORS[path]
    assert _config_error_text(_edited((path, value))) == message


_HRC_DISTANCES = [1200.0, 1400.0, 1600.0, 1800.0, 2000.0]

# Each place the loader names a model-level ValueError, plus check order
# where one document holds two errors.
SITE_ERRORS = {
    "env": ([("env.bandwidth_hz", -1.0)], "env: bandwidth_hz must be > 0, got -1.0"),
    "env_nan": ([("env.bandwidth_hz", math.nan)], "env: bandwidth_hz must be > 0, got nan"),
    "noise_dbm_overflow": (
        [("env.noise_psd_dbm_hz", 5000.0)],
        "env.noise_psd_dbm_hz: dBm power 5000.0 overflows in watts",
    ),
    "noise_infinite_product": (
        [("env.bandwidth_hz", 1e300), ("env.noise_psd_dbm_hz", 300.0)],
        "env.noise_psd_dbm_hz: noise power must be finite and > 0 W, got inf",
    ),
    "sensing": (
        [("sensing.p_detection", 1.5)],
        "sensing: p_detection must be a probability in [0, 1], got 1.5",
    ),
    "sensing_time": (
        [("sensing.transmit_time_s", 0.0)], "sensing: t_transmit_s must be > 0, got 0.0"
    ),
    "pair": ([("devices.hrc_power", -1.0)], "devices[0]: hrc_power_w must be >= 0, got -1.0"),
    "hrc_distance_overflow": (
        [("devices.hrc_distances_m", [1200.0, 1e-300] + _HRC_DISTANCES[2:])],
        "devices.hrc[1]: pathloss -8763.573689900271 dB overflows as a power gain",
    ),
    "hrc_distance_underflow": (
        [("devices.hrc_distances_m", [1e200] + _HRC_DISTANCES[1:])],
        "devices.hrc[0]: pathloss 5911.426310099729 dB underflows to a power gain of 0",
    ),
    "mrc_negative_distance": (
        [("devices.mrc_distances_m", [1300.0, 1500.0, -5.0, 1900.0, 2000.0])],
        "devices.mrc[2]: distance_m must be finite and > 0, got -5.0",
    ),
    "hrc_distance_not_a_number": (
        [("devices.hrc_distances_m", [1200.0, 1400.0, "x", 1800.0, 2000.0])],
        "devices.hrc_distances_m[2]: expected a number, got 'x'",
    ),
    "mrc_distance_overflow": (
        [("devices.mrc_distances_m", [1300.0, 1500.0, 1700.0, 1e-300, 2000.0])],
        "devices.mrc[3]: pathloss -8763.573689900271 dB overflows as a power gain",
    ),
    "hrc_gain_not_positive": (
        [
            ("devices.hrc_distances_m", _DROP),
            ("devices.hrc_gains", [1e-13, 1e-13, 0.0, 1e-13, 1e-13]),
        ],
        "devices.hrc[2]: gain must be > 0, got 0.0",
    ),
    "primary_distance_overflow": (
        [("primary.distance_m", 1e-300)],
        "primary[0]: pathloss -8763.573689900271 dB overflows as a power gain",
    ),
    "hrc_power_dbm_overflow": (
        [("unit_mode", "dbm"), ("devices.hrc_power", 5000.0)],
        "devices.hrc_power: dBm power 5000.0 overflows in watts",
    ),
    "primary": ([("primary.power", -1.0)], "primary: power_w must be >= 0, got -1.0"),
    "primary_dbm_overflow": (
        [("unit_mode", "dbm"), ("primary.power", 5000.0)],
        "primary.power: dBm power 5000.0 overflows in watts",
    ),
    "overheads": (
        [("overheads.circuit_power", 0.0), ("overheads.sensing_power", 0.0)],
        "overheads: circuit_w + sensing_w must be > 0",
    ),
    "overheads_dbm_overflow": (
        [("unit_mode", "dbm"), ("overheads.sensing_power", 5000.0)],
        "overheads.sensing_power: dBm power 5000.0 overflows in watts",
    ),
    "grid": (
        [("sweep.stop", 1.5), ("sweep.step", 0.5)],
        "sweep: p_x must be a probability in [0, 1], got 1.5",
    ),
    "label": ([("label", ["a", "b"])], "label: must be a string, got ['a', 'b']"),
    "label_before_grid": (
        [("label", 42), ("sweep.stop", 1.5), ("sweep.step", 0.5)],
        "label: must be a string, got 42",
    ),
    "unit_mode": ([("unit_mode", "joules")], "unit_mode: must be one of ('watt', 'dbm'), got 'joules'"),
    "los_probability": (
        [("pathloss.los_probability", 2.0)],
        "pathloss.los_probability: must lie in [0, 1], got 2.0",
    ),
    "env_before_sensing": (
        [("env.carrier_ghz", 0.0), ("sensing.p_detection", 1.5)],
        "env: carrier_ghz must be > 0, got 0.0",
    ),
    "pair_count": (
        [("devices.mrc_distances_m", [1300.0])],
        "devices: HRC and MRC device counts must match (paired NOMA model), got 5 vs 1",
    ),
}


@pytest.mark.parametrize("case", list(SITE_ERRORS))
def test_config_error_text_is_pinned(case):
    edits, message = SITE_ERRORS[case]
    assert _config_error_text(_edited(*edits)) == message


@pytest.mark.parametrize("text", ["just a scalar", "- a\n- b\n"])
def test_non_mapping_document_error_text_is_pinned(text):
    assert _config_error_text(text) == "<document>: top level must be a mapping of sections"


def test_overflowing_series_efficiency_raises():
    # A 1e-200 W transmit power over 1e-300 W of overheads: each mean is
    # finite (about 4.5e300 bps), its EE is not.
    tiny = make_scenario(
        hrc_gains=(1e200,), mrc_gains=(1e-14,), hrc_power_w=1e-200, circuit_w=1e-300, sensing_w=0.0
    )
    scn = tiny._replace(env=tiny.env._replace(bandwidth_hz=1e300, noise_psd_dbm_hz=-3000.0))
    with pytest.raises(ValueError) as err:
        run_sweep(scn, EFFECTUAL, "hrc", False)
    assert re.fullmatch(
        r"hrc energy efficiency overflows to inf: 4\.\d+e\+300 bps over 1e-200 W", str(err.value)
    )
    # Past the cheap bound b * rate sum / n / consumed but finite: the rows
    # are scanned and the series stands.  The one rate is about 249 bits and
    # 0.8 W is consumed; the largest prefactor is 0.45 b.
    narrow = make_scenario(hrc_gains=(1e78,), mrc_gains=(1e-14,), circuit_w=0.1, sensing_w=0.0)
    wide = narrow._replace(env=narrow.env._replace(bandwidth_hz=1e306, noise_psd_dbm_hz=-3000.0))
    rate = math.log2(1.0 + 0.7 * 1e78 / wide.env.noise_w())
    assert wide.env.bandwidth_hz * rate / 0.8 == math.inf
    series = run_sweep(wide, EFFECTUAL, "hrc", False)
    assert all(math.isfinite(v) for v in series.throughput_bps + series.ee_bps_per_watt)
    assert max(series.ee_bps_per_watt) > 1e308


def test_omitted_state_probabilities_take_the_record_defaults():
    text = default_scenario_text()
    lines = ["  p_inactive: 0.5\n", "  p_active: 0.5\n"]
    bare = text
    for line in lines:
        assert bare.count(line) == 1
        bare = bare.replace(line, "")
    defaults = crnoma.SensingProfile._field_defaults
    written = bare.replace(
        "  p_false_alarm:",
        f"  p_inactive: {defaults['p_inactive']!r}\n"
        f"  p_active: {defaults['p_active']!r}\n  p_false_alarm:",
    )
    loaded = load_scenario(bare)
    assert loaded.sensing.p_inactive == defaults["p_inactive"]
    assert loaded.sensing.p_active == defaults["p_active"]
    assert loaded == load_scenario(written)


def _nested_carrier(levels):
    """The default scenario with carrier_ghz nested in ``levels`` flow
    sequences, so its deepest collection lies ``levels + 2`` levels down."""
    text = default_scenario_text()
    assert text.count("carrier_ghz: 5.0") == 1
    return text.replace("carrier_ghz: 5.0", "carrier_ghz: " + "[" * levels + "5.0" + "]" * levels)


LIMIT = crnoma.scenario._MAX_NESTING
NESTING_ERROR = f"<document>: YAML parse failure: collections nest more than {LIMIT} levels deep"
ALL_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize("loader", ALL_LOADERS, ids=lambda loader: loader.__name__)
def test_nesting_limit_is_exact_under_each_loader(monkeypatch, loader):
    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", loader)
    with pytest.raises(ConfigError) as err:
        load_scenario(_nested_carrier(LIMIT - 2))
    assert str(err.value).startswith("env.carrier_ghz: expected a number")
    with pytest.raises(ConfigError) as err:
        load_scenario(_nested_carrier(LIMIT - 1))
    assert str(err.value) == NESTING_ERROR


def test_deep_nesting_is_config_error_without_libyaml(monkeypatch):
    # SafeLoader's composer recurses in Python: at 1,000 levels it raised
    # RecursionError.
    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", yaml.SafeLoader)
    with pytest.raises(ConfigError) as err:
        load_scenario(_nested_carrier(1000))
    assert str(err.value) == NESTING_ERROR


def test_many_indicator_characters_at_shallow_depth_still_load(monkeypatch):
    # Each block entry adds a "- ": the cheap bound passes the limit, and
    # the exact count over the parser's events lets the document through.
    entries = "\n    - 1.0e-13" * (2 * LIMIT)
    text = MINIMAL.replace("hrc_gains: [1.0e-13]", "hrc_gains:" + entries).replace(
        "mrc_gains: [8.0e-14]", "mrc_gains:" + entries
    )
    assert text.count("- ") > LIMIT
    parses = []
    real_parse = yaml.parse

    def counted_parse(*args, **kwargs):
        parses.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(yaml, "parse", counted_parse)
    assert len(load_scenario(text).pairs) == 2 * LIMIT
    assert len(parses) == 1


def _explicit_gains(count):
    """The default scenario with ``count`` explicit 1.0e-13 gains per device."""
    text = default_scenario_text()
    gains = "[" + ", ".join(["1.0e-13"] * count) + "]"
    for device in ("hrc", "mrc"):
        old = re.search(rf"{device}_distances_m: \[.*\]", text).group()
        text = text.replace(old, f"{device}_gains: {gains}")
    return text


def test_negative_exponents_skip_the_exact_nesting_count(monkeypatch):
    # Each "1.0e-13" holds a "-" that opens no collection; counting them sent
    # every such document through a full yaml.parse pass (7 ms of 46 ms).
    text = _explicit_gains(3000)
    assert text.count("-") > 6000
    expected = load_scenario(text)

    def refuse(*args, **kwargs):
        raise AssertionError("exact nesting count ran on a shallow document")

    monkeypatch.setattr(yaml, "parse", refuse)
    loaded = load_scenario(text)
    assert loaded == expected
    assert len(loaded.pairs) == 3000
    assert loaded.pairs[0].hrc_gain == loaded.pairs[-1].mrc_gain == 1.0e-13


# A "-" opens a block entry before a blank, before any line break PyYAML
# knows, or at the end of the text ("").
BLOCK_ENTRY_ENDS = [" ", "\t", "\n", "\r\n", "\r", "\x85", "\u2028", "\u2029", ""]


def _block_chain(levels, end):
    """``levels`` nested block sequences, each entry's "-" followed by ``end``."""
    if end == "":
        return "- " * (levels - 1) + "-"
    if end == "\t":
        # Only the last level: both scanners open its sequence, then reject
        # the tab.
        return "- " * (levels - 1) + "-\tx"
    if end == " ":
        return "- " * levels + "x"
    return "".join("  " * i + "-" + end for i in range(levels)) + "  " * levels + "x"


@pytest.mark.parametrize("loader", ALL_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("end", BLOCK_ENTRY_ENDS, ids=repr)
def test_block_entry_bound_counts_every_entry(monkeypatch, loader, end):
    # The bound must not undercount: LIMIT + 1 entries nest LIMIT + 1 deep.
    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", loader)
    deep, shallow = _block_chain(LIMIT + 1, end), _block_chain(LIMIT, end)
    starts = 0
    try:
        for event in yaml.parse(deep, Loader=loader):
            starts += isinstance(event, yaml.SequenceStartEvent)
    except yaml.YAMLError:
        assert end == "\t"
    assert starts == LIMIT + 1
    assert crnoma.scenario._nests_deeper_than(deep, LIMIT)
    assert not crnoma.scenario._nests_deeper_than(shallow, LIMIT)


def _block_nested_carrier(levels):
    """As ``_nested_carrier``, with ``levels`` block sequences ("- - - 5.0")."""
    text = default_scenario_text()
    return text.replace("carrier_ghz: 5.0", "carrier_ghz:\n    " + "- " * levels + "5.0")


@pytest.mark.parametrize("loader", ALL_LOADERS, ids=lambda loader: loader.__name__)
def test_block_nesting_limit_is_exact_under_each_loader(monkeypatch, loader):
    monkeypatch.setattr(crnoma.scenario, "_YAML_LOADER", loader)
    with pytest.raises(ConfigError) as err:
        load_scenario(_block_nested_carrier(LIMIT - 2))
    assert str(err.value).startswith("env.carrier_ghz: expected a number")
    for levels in (LIMIT - 1, 1000):
        with pytest.raises(ConfigError) as err:
            load_scenario(_block_nested_carrier(levels))
        assert str(err.value) == NESTING_ERROR
