"""Each optimizer-layer routine, and each scenario-level call, returns a
finite value or raises ValueError.

Magnitudes are drawn log-uniformly from 1e-300 to 1e300, and ``lambert_w0``
arguments take both signs, down to the branch point -1/e.  The one
documented NaN is the power and EE of an infeasible ``OptResult``.  The
``@example`` rows are float-edge probes that once returned inf.
"""

import math

from hypothesis import example, given, strategies as st

from crnoma import (
    EFFECTUAL,
    INTERFERENCE,
    DevicePair,
    OptProblem,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    Scenario,
    SensingProfile,
    ee_of_power,
    energy_efficiency,
    improvement_percent,
    lambert_w0,
    numerical_argmax,
    optimal_power,
    optimize_scenario,
    run_sweep,
    throughput,
)
from crnoma.lambertw import BRANCH_POINT

MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
MAGNITUDES_OR_ZERO = st.just(0.0) | MAGNITUDES
# -1/e and the negative magnitudes above it; 10 ** log10(1/e) may round past
# the branch point by an ulp, which lambert_w0 clamps.
NEGATIVE_LAMBERT_ARGS = st.just(BRANCH_POINT) | st.floats(-300.0, math.log10(-BRANCH_POINT)).map(
    lambda e: -(10.0**e)
)
SMALLEST_NORMAL = 2.2250738585072014e-308


def _value_or_none(fn, *args):
    """fn(*args), or None when it raises ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return None


def _problem(gain, denom, circuit, sensing):
    return OptProblem(gain, denom, PowerOverheads(circuit, sensing))


@given(x=MAGNITUDES | NEGATIVE_LAMBERT_ARGS)
def test_lambert_w0_is_finite_or_raises(x):
    w = _value_or_none(lambert_w0, x)
    assert w is None or (math.isfinite(w) and w >= -1.0)


@given(
    power=MAGNITUDES_OR_ZERO,
    gain=MAGNITUDES,
    denom=MAGNITUDES,
    circuit=MAGNITUDES,
    sensing=MAGNITUDES_OR_ZERO,
)
@example(power=1.0, gain=1e300, denom=1e-10, circuit=1.0, sensing=0.0)
def test_ee_of_power_is_finite_or_raises(power, gain, denom, circuit, sensing):
    ee = _value_or_none(ee_of_power, power, _problem(gain, denom, circuit, sensing))
    assert ee is None or (math.isfinite(ee) and ee >= 0.0)


@given(gain=MAGNITUDES, denom=MAGNITUDES, circuit=MAGNITUDES, sensing=MAGNITUDES_OR_ZERO)
@example(gain=1e10, denom=SMALLEST_NORMAL, circuit=SMALLEST_NORMAL, sensing=0.0)
def test_optimal_power_is_finite_or_raises(gain, denom, circuit, sensing):
    result = _value_or_none(optimal_power, _problem(gain, denom, circuit, sensing))
    if result is None:
        return
    assert math.isfinite(result.lambert_arg)
    if result.feasible:
        assert 0.0 < result.power_w < math.inf
        assert 0.0 <= result.ee_bps_per_watt < math.inf
        assert result.reason == ""
    else:
        assert math.isnan(result.power_w) and math.isnan(result.ee_bps_per_watt)
        assert result.reason


@given(gain=MAGNITUDES, denom=MAGNITUDES, circuit=MAGNITUDES, sensing=MAGNITUDES_OR_ZERO)
def test_numerical_argmax_is_finite_or_raises(gain, denom, circuit, sensing):
    power = _value_or_none(numerical_argmax, _problem(gain, denom, circuit, sensing))
    assert power is None or 0.0 <= power < math.inf


@given(
    throughput=MAGNITUDES_OR_ZERO,
    power=MAGNITUDES_OR_ZERO,
    circuit=MAGNITUDES,
    sensing=MAGNITUDES_OR_ZERO,
)
@example(throughput=1e10, power=0.0, circuit=1e-300, sensing=0.0)
def test_energy_efficiency_is_finite_or_raises(throughput, power, circuit, sensing):
    ee = _value_or_none(energy_efficiency, throughput, power, PowerOverheads(circuit, sensing))
    assert ee is None or (math.isfinite(ee) and ee >= 0.0)


@given(original=MAGNITUDES_OR_ZERO, optimized=MAGNITUDES)
@example(original=1.0, optimized=1e307)
@example(original=0.0, optimized=1.7976931348623157e308)
def test_improvement_percent_is_finite_or_raises(original, optimized):
    percent = _value_or_none(improvement_percent, original, optimized)
    assert percent is None or math.isfinite(percent)


PROBABILITIES = st.floats(0.0, 1.0)
# Every (state, device, optimized, coupling) series run_sweep accepts.
ALL_SERIES = [
    (state, device, optimized, coupling)
    for state in (EFFECTUAL, INTERFERENCE)
    for device in ("hrc", "mrc")
    for optimized in (False, True)
    for coupling in ("nominal", "cascaded")
]


def _scenario(
    pairs,
    bandwidth_exp,
    noise_exp,
    probabilities=(0.5, 0.5, 0.1, 0.9),
    primary=(50.0, 1.5e-14),
    overheads=(99.0, 1.0),
    grid=(0.0, 0.5, 1.0),
):
    """A library-built scenario whose noise power is about 10 ** noise_exp W;
    the PSD is chosen for the bandwidth, so the power may round to 0 or inf."""
    return Scenario(
        env=RadioEnvironment(
            bandwidth_hz=10.0**bandwidth_exp,
            noise_psd_dbm_hz=10.0 * (noise_exp - bandwidth_exp) + 30.0,
            carrier_ghz=5.0,
        ),
        sensing=SensingProfile(0.125e-3, 0.125e-3, *probabilities),
        pairs=tuple(pairs),
        primary=PrimaryLink(*primary),
        overheads=PowerOverheads(*overheads),
        sweep_grid=tuple(grid),
    )


@st.composite
def scenarios(draw):
    """1 to 3 pairs and a grid of 1 to 4 points.  Powers, gains, overheads
    and noise power are log-uniform over 1e-300 to 1e300 (powers may also
    be 0), and the bandwidth over 1e-300 to 1e308, so that a prefactor
    times a rate sum can overflow."""
    pair = st.builds(DevicePair, MAGNITUDES_OR_ZERO, MAGNITUDES_OR_ZERO, MAGNITUDES, MAGNITUDES)
    return _scenario(
        draw(st.lists(pair, min_size=1, max_size=3)),
        draw(st.floats(-300.0, 308.0)),
        draw(st.floats(-300.0, 300.0)),
        draw(st.tuples(PROBABILITIES, PROBABILITIES, PROBABILITIES, PROBABILITIES)),
        draw(st.tuples(MAGNITUDES_OR_ZERO, MAGNITUDES)),
        draw(st.tuples(MAGNITUDES, MAGNITUDES_OR_ZERO)),
        sorted(draw(st.lists(PROBABILITIES, min_size=1, max_size=4))),
    )


def _sweep_outcome(scenario, args):
    """The series' repr once its columns are checked finite, or its ValueError."""
    try:
        series = run_sweep(scenario, *args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    columns = series.throughput_bps + series.ee_bps_per_watt + (series.tx_power_w,)
    assert series.p_x == scenario.sweep_grid, args
    assert all(0.0 <= value < math.inf for value in columns), args
    return repr(series)


@given(scenario=scenarios())
# Rates of hundreds of bits: with 1e-300 W of overheads and transmit power
# every EE overflows, and under a 1e306 Hz bandwidth the HRC throughput does.
@example(
    scenario=_scenario(
        [DevicePair(1e-300, 1e-300, 1e300, 1e300)], 6.0, -250.0, overheads=(1e-300, 0.0)
    )
)
@example(scenario=_scenario([DevicePair(1.0, 1.0, 1e300, 1e300)], 306.0, 0.0))
def test_scenario_level_calls_are_finite_or_raise(scenario):
    for state in (EFFECTUAL, INTERFERENCE):
        primary = scenario.primary if state == INTERFERENCE else None
        for device in ("hrc", "mrc"):
            summed = _value_or_none(
                throughput, scenario.sensing, scenario.env, scenario.pairs, device, primary
            )
            assert summed is None or 0.0 <= summed < math.inf
        for coupling in ("nominal", "cascaded"):
            optima = _value_or_none(optimize_scenario, scenario, state, coupling)
            for result in () if optima is None else optima.hrc + optima.mrc:
                assert math.isfinite(result.lambert_arg)
                if result.feasible:
                    assert 0.0 < result.power_w < math.inf
                    assert 0.0 <= result.ee_bps_per_watt < math.inf
                else:
                    assert math.isnan(result.power_w) and math.isnan(result.ee_bps_per_watt)
    # Each series on a fresh scenario (cold memo), then all of them on one
    # scenario (warm memo): the same finite columns or the same ValueError.
    cold = {args: _sweep_outcome(scenario._replace(), args) for args in ALL_SERIES}
    for args in ALL_SERIES:
        assert _sweep_outcome(scenario, args) == cold[args]
