"""Each optimizer-layer routine returns a finite value or raises ValueError.

Magnitudes are drawn log-uniformly from 1e-300 to 1e300, and ``lambert_w0``
arguments take both signs, down to the branch point -1/e.  The one
documented NaN is the power and EE of an infeasible ``OptResult``.  The
``@example`` rows are float-edge probes that once returned inf.
"""

import math

from hypothesis import example, given, strategies as st

from crnoma import (
    OptProblem,
    PowerOverheads,
    ee_of_power,
    energy_efficiency,
    improvement_percent,
    lambert_w0,
    numerical_argmax,
    optimal_power,
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
