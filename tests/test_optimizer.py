"""Closed-form optimal power vs the golden-section oracle."""

import math
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import crnoma.lambertw
import crnoma.optimizer
import crnoma.validation
from crnoma import (
    EFFECTUAL,
    INTERFERENCE,
    OptProblem,
    OptResult,
    PowerOverheads,
    SensingProfile,
    ee_of_power,
    energy_efficiency,
    lambert_w0,
    numerical_argmax,
    optimal_power,
    optimize_scenario,
    run_validation,
    throughput,
)
from conftest import make_scenario, reference_argmax

E2 = math.e**2

# Constructed so (C*g2 - D)/D = e^2, the Lambert argument is e, W0(e) = 1,
# and the stationary power is exactly e^2 - 1.
EXACT_PROBLEM = OptProblem(
    gain=1.0,
    denom_power_w=1.0,
    overheads=PowerOverheads(circuit_w=1.0, sensing_w=E2),
)
EXACT_POWER = E2 - 1.0
# log2(e^2) / (2 e^2) with the prefactor normalized to one.
EXACT_EE = 0.19524754198276442


def random_problem(rng):
    return OptProblem(
        gain=10.0 ** rng.uniform(-16.0, 0.0),
        denom_power_w=10.0 ** rng.uniform(-18.0, -2.0),
        overheads=PowerOverheads(circuit_w=rng.uniform(1.0, 200.0), sensing_w=0.0),
    )


def stationarity_ratio(problem, power):
    h = power * 6e-6
    derivative = (
        ee_of_power(power + h, problem) - ee_of_power(power - h, problem)
    ) / (2.0 * h)
    return abs(derivative) * power / ee_of_power(power, problem)


def test_closed_form_exact_construction():
    result = optimal_power(EXACT_PROBLEM)
    assert result.feasible
    assert result.lambert_arg == pytest.approx(math.e, rel=1e-15)
    assert result.power_w == pytest.approx(EXACT_POWER, rel=1e-12)
    assert result.ee_bps_per_watt == pytest.approx(EXACT_EE, rel=1e-12)


def test_ee_of_power_reference_points():
    assert ee_of_power(0.0, EXACT_PROBLEM) == 0.0
    assert ee_of_power(EXACT_POWER, EXACT_PROBLEM) == pytest.approx(EXACT_EE, rel=1e-12)


def test_overflowing_ee_of_power_raises():
    # p * g2 / D overflows, so the rate is inf.
    problem = OptProblem(
        gain=1e300, denom_power_w=1e-10, overheads=PowerOverheads(circuit_w=1.0, sensing_w=0.0)
    )
    with pytest.raises(ValueError) as err:
        ee_of_power(1.0, problem)
    assert str(err.value) == "energy efficiency is not finite: inf over 2.0 W"


def test_ee_of_power_raises_when_consumed_power_overflows():
    # p + C overflows to inf, so the quotient alone would read 0.0.
    problem = OptProblem(gain=1.0, denom_power_w=1.0, overheads=PowerOverheads(1e308, 0.0))
    with pytest.raises(ValueError) as err:
        ee_of_power(1e308, problem)
    assert str(err.value) == "energy efficiency is not finite: 1023.1538532253076 over inf W"


# p* = 8.03e307 W is finite, but p* + C overflows to inf.
CONSUMED_OVERFLOW_PROBLEM = OptProblem(
    2.75077180509033e-106, 1.0868711942289995e201, PowerOverheads(1.775550945005923e308, 0.0)
)


def test_closed_form_raises_when_consumed_power_overflows():
    message = "energy efficiency is not finite: 4.4147088597341755 over inf W"
    with pytest.raises(ValueError) as err:
        optimal_power(CONSUMED_OVERFLOW_PROBLEM)
    assert str(err.value) == message
    gain, denom, overheads = CONSUMED_OVERFLOW_PROBLEM
    with pytest.raises(ValueError) as err:
        crnoma.optimizer._closed_forms([gain], [denom], overheads.total_w, 1.0, 1.0)
    assert str(err.value) == message


def test_ee_of_power_zero_prefactor(default_scenario):
    """A zero prefactor zeroes the scaled EE and leaves every optimum in place."""
    for state, zeroing in (
        (EFFECTUAL, {"p_inactive": 0.0}),
        (EFFECTUAL, {"p_false_alarm": 1.0}),
        (INTERFERENCE, {"p_active": 0.0}),
        (INTERFERENCE, {"p_detection": 1.0}),
    ):
        dead = default_scenario._replace(sensing=default_scenario.sensing._replace(**zeroing))
        live = optimize_scenario(default_scenario, state)
        optima = optimize_scenario(dead, state)
        for got, expected in zip(optima.hrc + optima.mrc, live.hrc + live.mrc):
            assert got.feasible
            assert got.ee_bps_per_watt == 0.0
            assert got.power_w == expected.power_w


def test_oracle_matches_exact_construction():
    oracle = numerical_argmax(EXACT_PROBLEM)
    assert oracle == pytest.approx(EXACT_POWER, rel=1e-6)


def test_oracle_grows_its_bracket():
    """The bracket [0, max(a, 8)] in x = p * g2 / D grows with a = C * g2 / D
    above 8: at a = 1 + e^2 (EXACT_PROBLEM with D / g2 and C scaled by 1e7,
    the same Lambert argument) and at a = 1e200, where x* is near 2.2e197."""
    far = OptProblem(
        gain=1e-7,
        denom_power_w=1.0,
        overheads=PowerOverheads(circuit_w=1e7, sensing_w=E2 * 1e7),
    )
    assert optimal_power(far).power_w == pytest.approx(EXACT_POWER * 1e7, rel=1e-12)
    assert numerical_argmax(far) == pytest.approx(EXACT_POWER * 1e7, rel=1e-8)
    huge = OptProblem(gain=1e100, denom_power_w=1.0, overheads=PowerOverheads(1e100, 0.0))
    power = optimal_power(huge).power_w
    assert abs(numerical_argmax(huge) - power) <= 1e-8 * power


def test_oracle_agrees_at_a_large_optimum():
    # p* = 3.3e13 W: no power cap bounds the search.
    problem = OptProblem(
        gain=1.0,
        denom_power_w=1.0,
        overheads=PowerOverheads(circuit_w=1e15, sensing_w=0.0),
    )
    power = optimal_power(problem).power_w
    assert 3.3e13 < power < 3.4e13
    assert abs(numerical_argmax(problem) - power) <= 1e-8 * power


@pytest.mark.parametrize(
    "problem",
    [
        # C*g2 = 1e-400 underflows to 0.
        OptProblem(1e-300, 1.0, PowerOverheads(1e-100, 0.0)),
        # C*g2 = 1e310 overflows to inf.
        OptProblem(1e10, 1e-300, PowerOverheads(1.0, 0.0)),
        # C*g2/D is 1.48e308, finite, but max(a, 8) + a = 2a overflows.
        OptProblem(
            3.986243287867244e-07, 1.672384407873166e-61, PowerOverheads(6.221470867491977e253, 0.0)
        ),
    ],
    ids=["zero", "inf", "sum_overflows"],
)
def test_oracle_rejects_out_of_range_a_by_name(problem):
    message = r"^C\*g2/D = \S+ must be > 0 with C\*g2/D \+ max\(C\*g2/D, 8\) finite$"
    with pytest.raises(ValueError, match=message):
        numerical_argmax(problem)


def test_oracle_rejects_overflowing_power_by_name():
    # a = 1e-300 puts x* near 2e-8 on the log2(1 + x) staircase; x * D / g2 is then 2e592.
    problem = OptProblem(1e-300, 1e300, PowerOverheads(1e300, 0.0))
    message = r"^argmax power x\*D/g2 overflows: x = \S+, D = 1e\+300, g2 = 1e-300$"
    with pytest.raises(ValueError, match=message):
        numerical_argmax(problem)


def test_oracle_solves_tiny_optima_and_log_uniform_problems():
    """Problems whose g2, D and C span 1e-300..1e300: each feasible one agrees
    with the closed form to 1e-8 or raises the named C*g2/D range error.  The
    first has p* = 2.9e-173 W, and p * g2 / D overflows already at p = 1 W."""
    tiny = OptProblem(
        2.3158624278055516e44, 7.387776584104686e-293, PowerOverheads(1.0911395012339974e-170, 0.0)
    )
    power = optimal_power(tiny).power_w
    assert abs(numerical_argmax(tiny) - power) <= 1e-8 * power
    rng = random.Random(58)
    agreed = rejected = 0
    for _ in range(5000):
        gain, denom, circuit = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3))
        problem = OptProblem(gain, denom, PowerOverheads(circuit, 0.0))
        try:
            result = optimal_power(problem)
        except ValueError:
            continue
        if not result.feasible:
            continue
        try:
            argmax = numerical_argmax(problem)
        except ValueError as exc:
            assert str(exc).startswith("C*g2/D = ")
            rejected += 1
            continue
        assert abs(argmax - result.power_w) <= 1e-8 * result.power_w, problem
        agreed += 1
    assert agreed > 1000 and rejected < 10


def test_oracle_agrees_with_closed_form_across_scales():
    """Optima spread log-uniformly from 1e-9 to 1e11 W.  Scaling D and C by s
    leaves a = C * g2 / D and x* alone, so this checks the map p = x * D / g2."""
    rng = random.Random(31)
    below = above = 0
    for _ in range(2000):
        problem = random_problem(rng)
        result = optimal_power(problem)
        if not result.feasible:
            continue
        # Scaling D and C by s scales the argmax by s and keeps the curve's shape.
        s = 10.0 ** rng.uniform(-9.0, 11.0) / result.power_w
        scaled = OptProblem(
            gain=problem.gain,
            denom_power_w=problem.denom_power_w * s,
            overheads=PowerOverheads(circuit_w=problem.overheads.circuit_w * s, sensing_w=0.0),
        )
        power = optimal_power(scaled).power_w
        # Relative only: approx's default 1e-12 absolute slack is loose at 1e-9 W.
        # Golden section alone gets only to about 1.4e-7; the parabolic step to 1e-9.
        assert abs(numerical_argmax(scaled) - power) <= 1e-8 * power
        below += power < 0.5
        above += power > 1e6
    assert below > 100 and above > 100


def _patch_log2(monkeypatch, log2):
    """Make crnoma.optimizer call log2 in place of math.log2."""
    fields = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
    fields["log2"] = log2
    monkeypatch.setattr(crnoma.optimizer, "math", SimpleNamespace(**fields))


def test_oracle_evaluation_count(default_scenario, monkeypatch):
    """On the validation draws, the fixed bracket [0, max(a, 8)] in
    x = p * g2 / D, golden section to a 1e-4 relative width and one
    parabolic step spend about 27.4 EE evaluations (log2 calls) per search
    on average."""
    evals = 0

    def counted_log2(x):
        nonlocal evals
        evals += 1
        return math.log2(x)

    _patch_log2(monkeypatch, counted_log2)
    per_call = []

    def counted_argmax(problem):
        before = evals
        argmax = numerical_argmax(problem)
        per_call.append(evals - before)
        return argmax

    monkeypatch.setattr(crnoma.validation, "numerical_argmax", counted_argmax)
    run_validation(default_scenario, seed=0, trials=1000)
    assert len(per_call) == 1000
    assert sum(per_call) / len(per_call) <= 29.0


@pytest.mark.parametrize("values", [{}, {9.0: 1.0}], ids=["flat", "convex"])
def test_rejected_parabola_returns_the_middle_point(monkeypatch, values):
    """g2 = D = C = 1, so a = 1, the bracket is [0, 8] and f(x) is
    log2(1 + x) / (x + 1).  The patched log2 is 0 at every probe, so golden
    section walks up to hi = 8, and the final triple (c, d, hi) is flat, or
    convex when log2(9) is patched to 1 and f(8) is 1 / 9.  Either way the
    vertex is rejected without dividing by zero, and the result is x2 = d,
    the triple's middle point, mapped back as x2 * D / g2."""
    problem = OptProblem(1.0, 1.0, PowerOverheads(1.0, 0.0))

    def patched(y):
        return values.get(y, 0.0)

    # Every probe ties, so each step moves lo up to c, and c to d.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, c, x2, hi = 0.0, 8.0 - 8.0 * invphi, 8.0 * invphi, 8.0
    while hi - lo > 1e-4 * hi:
        lo, c = c, x2
        x2 = lo + (hi - lo) * invphi

    _patch_log2(monkeypatch, patched)
    argmax = numerical_argmax(problem)
    assert argmax == reference_argmax(problem, log2=patched)
    assert argmax == x2 * problem.denom_power_w / problem.gain
    assert 8.0 - 1e-3 < argmax < 8.0


def _subnormal_gain_problems():
    # g2 from 5e-324 up to about 1e-300 at a normal D, with C*g2 just over,
    # 1.5 and 1000 times D; then two problems whose closed form divided by
    # an underflowed W0 * g2, or lost 1.4e-7 of p* to its subnormal bits.
    for denom in (2.5e-308, 1e-305, 1e-300):
        for k in range(41):
            gain = max(5e-324 * 10.0 ** (k * 0.578), 5e-324)
            for ratio in (1.0 + 1e-9, 1.5, 1e3):
                yield gain, denom, ratio * denom / gain
    yield 1e-310, 2.99999999999999e-308, 300.0
    yield 2.5000025e-311, 2.5e-308, 1000.0


def test_subnormal_gain_matches_scaled_solve():
    # p* depends only on D / g2 and C, and scaling g2 and D by 2**600 is exact;
    # the scaled problem never forms a subnormal product.
    scale = 2.0**600
    for gain, denom, circuit in _subnormal_gain_problems():
        overheads = PowerOverheads(circuit_w=circuit, sensing_w=0.0)
        got = optimal_power(OptProblem(gain, denom, overheads))
        expected = optimal_power(OptProblem(gain * scale, denom * scale, overheads))
        assert got.feasible and expected.feasible
        assert got.power_w == pytest.approx(expected.power_w, rel=1e-12), (gain, denom)


def test_subnormal_denominator_rejected():
    # C*g2 - D would be formed on the subnormal grid: this problem solved
    # 1.482e-13 W where the same problem scaled by 2**600 solves 1.280e-13 W.
    overheads = PowerOverheads(1.5 * 5e-324 / 1e-310, 0.0)
    with pytest.raises(ValueError, match="^denom_power_w 5e-324 is below the smallest normal"):
        OptProblem(1e-310, 5e-324, overheads)
    with pytest.raises(ValueError, match="^denom_power_w"):
        OptProblem(1.0, math.nextafter(sys.float_info.min, 0.0), overheads)
    assert OptProblem(1.0, sys.float_info.min, overheads).denom_power_w == sys.float_info.min


def test_degenerate_boundary_is_infeasible():
    # C * g2 equals D: Lambert argument collapses to zero.
    prob = OptProblem(
        gain=1.0, denom_power_w=1.0, overheads=PowerOverheads(circuit_w=1.0, sensing_w=0.0)
    )
    result = optimal_power(prob)
    assert not result.feasible
    assert result.lambert_arg == 0.0
    assert math.isnan(result.power_w)


def test_zero_closed_form_power_is_infeasible():
    # a = 5e-324 * 1e300 / 1e-300 is huge, W0 * g2 is near 1e302, and the
    # closed form's two terms round to p* = 0.0 exactly.
    result = optimal_power(OptProblem(1e300, 1e-300, PowerOverheads(5e-324, 0.0)))
    assert not result.feasible
    assert math.isnan(result.power_w) and math.isnan(result.ee_bps_per_watt)
    assert result.reason == "closed form yielded non-positive power 0.0"


def test_below_boundary_is_infeasible_but_curve_still_peaks():
    """C*g2 < D is reported infeasible by contract.

    The EE curve itself still rises from zero (its slope at the origin is
    positive for any parameters), so the oracle finds an interior maximum;
    the infeasible flag marks the closed form's validity region, not a
    boundary supremum.
    """
    prob = OptProblem(
        gain=1.0, denom_power_w=1.0, overheads=PowerOverheads(circuit_w=0.5, sensing_w=0.0)
    )
    result = optimal_power(prob)
    assert not result.feasible
    interior = numerical_argmax(prob)
    assert interior > 0.0
    assert ee_of_power(interior, prob) > ee_of_power(1e-9, prob)
    assert ee_of_power(interior, prob) > ee_of_power(100.0, prob)


@given(k=st.floats(min_value=1e-8, max_value=1e8))
def test_lambert_argument_scaling_invariance(k):
    overheads = PowerOverheads(circuit_w=120.0, sensing_w=1.0)
    base = OptProblem(gain=3e-13, denom_power_w=5e-14, overheads=overheads)
    scaled = OptProblem(gain=3e-13 * k, denom_power_w=5e-14 * k, overheads=overheads)
    r_base = optimal_power(base)
    r_scaled = optimal_power(scaled)
    assert r_scaled.lambert_arg == pytest.approx(r_base.lambert_arg, rel=1e-12)
    assert r_scaled.power_w == pytest.approx(r_base.power_w, rel=1e-12)


def test_prefactor_independence(default_scenario):
    """p_x, p_f, p_d and duty never move a scenario's optimal powers."""
    rng = random.Random(7)
    sensings = [
        default_scenario.sensing._replace(
            # The first profile has both state probabilities at zero.
            p_inactive=rng.random() if i else 0.0,
            p_active=rng.random() if i else 0.0,
            p_false_alarm=rng.random(),
            p_detection=rng.random(),
            t_sense_s=rng.uniform(0.0, 1e-3),
        )
        for i in range(20)
    ]
    for state in (EFFECTUAL, INTERFERENCE):
        for coupling in ("nominal", "cascaded"):
            expected = optimize_scenario(default_scenario, state, coupling)
            for sensing in sensings:
                scn = default_scenario._replace(sensing=sensing)
                optima = optimize_scenario(scn, state, coupling)
                for got, want in zip(optima.hrc + optima.mrc, expected.hrc + expected.mrc):
                    assert repr((got.power_w, got.lambert_arg, got.feasible)) == repr(
                        (want.power_w, want.lambert_arg, want.feasible)
                    )


def test_stationarity_and_optimality_at_exact_point():
    result = optimal_power(EXACT_PROBLEM)
    assert stationarity_ratio(EXACT_PROBLEM, result.power_w) <= 1e-6
    ee_star = ee_of_power(result.power_w, EXACT_PROBLEM)
    for i in range(100):
        probe = 10.0 * result.power_w * 10.0 ** (-6.0 * (1.0 - i / 99.0))
        assert ee_star >= ee_of_power(probe, EXACT_PROBLEM) * (1.0 - 1e-12)


def test_unimodality_on_log_grid():
    result = optimal_power(EXACT_PROBLEM)
    n = 10_000
    lo, hi = result.power_w * 1e-6, result.power_w * 1e3
    ratio = math.log(hi / lo)
    values = [
        ee_of_power(lo * math.exp(ratio * i / (n - 1)), EXACT_PROBLEM) for i in range(n)
    ]
    diffs = [b - a for a, b in zip(values, values[1:])]
    sign_changes = 0
    previous = 0.0
    for d in diffs:
        if d == 0.0:
            continue
        if previous > 0.0 > d:
            sign_changes += 1
        assert not (previous < 0.0 < d), "EE rose again after its peak"
        previous = d
    assert sign_changes == 1


def test_randomized_oracle_equivalence():
    rng = random.Random(123)
    feasible = 0
    while feasible < 200:
        prob = random_problem(rng)
        result = optimal_power(prob)
        if not result.feasible:
            continue
        feasible += 1
        oracle = numerical_argmax(prob)
        assert abs(result.power_w - oracle) <= 1e-6 * result.power_w
        assert stationarity_ratio(prob, result.power_w) <= 1e-6


def test_higher_overheads_push_optimum_up():
    low = OptProblem(
        gain=1e-13, denom_power_w=4e-15, overheads=PowerOverheads(circuit_w=50.0, sensing_w=0.0)
    )
    high = OptProblem(
        gain=1e-13, denom_power_w=4e-15, overheads=PowerOverheads(circuit_w=100.0, sensing_w=0.0)
    )
    assert numerical_argmax(high) > numerical_argmax(low)
    assert optimal_power(high).power_w > optimal_power(low).power_w


def test_invalid_problems_rejected():
    with pytest.raises(ValueError):
        OptProblem(gain=0.0, denom_power_w=1.0, overheads=PowerOverheads(1.0, 0.0))
    with pytest.raises(ValueError):
        OptProblem(gain=1.0, denom_power_w=0.0, overheads=PowerOverheads(1.0, 0.0))
    with pytest.raises(ValueError):
        ee_of_power(-1.0, EXACT_PROBLEM)


def test_scenario_identical_pairs_identical_results():
    scn = make_scenario(hrc_gains=(1e-13, 1e-13), mrc_gains=(8e-14, 8e-14))
    for state in (EFFECTUAL, INTERFERENCE):
        optima = optimize_scenario(scn, state)
        assert optima.hrc[0] == optima.hrc[1]
        assert optima.mrc[0] == optima.mrc[1]


def test_scenario_no_primary_matches_effectual_for_hrc():
    """With no primary power the denominators coincide, so the optimal
    powers match; the EE values still differ through the state prefactor."""
    scn = make_scenario(primary_power_w=0.0)
    effectual = optimize_scenario(scn, EFFECTUAL)
    interference = optimize_scenario(scn, INTERFERENCE)
    for eff, intf in zip(effectual.hrc + effectual.mrc, interference.hrc + interference.mrc):
        assert eff.power_w == intf.power_w
        assert eff.lambert_arg == intf.lambert_arg
        assert eff.feasible and intf.feasible


def test_scenario_optimum_never_below_nominal_ee(default_scenario):
    scn = default_scenario
    for state in (EFFECTUAL, INTERFERENCE):
        primary = scn.primary if state == INTERFERENCE else None
        optima = optimize_scenario(scn, state)
        for pair, hrc_result, mrc_result in zip(scn.pairs, optima.hrc, optima.mrc):
            for result, device, nominal_w in (
                (hrc_result, "hrc", pair.hrc_power_w),
                (mrc_result, "mrc", pair.mrc_power_w),
            ):
                bps = throughput(scn.sensing, scn.env, [pair], device, primary)
                nominal_ee = energy_efficiency(bps, nominal_w, scn.overheads)
                assert result.feasible
                assert result.ee_bps_per_watt >= nominal_ee


def test_cascaded_coupling_changes_only_mrc(default_scenario):
    nominal = optimize_scenario(default_scenario, INTERFERENCE, coupling="nominal")
    cascaded = optimize_scenario(default_scenario, INTERFERENCE, coupling="cascaded")
    assert nominal.hrc == cascaded.hrc
    assert nominal.mrc != cascaded.mrc


def test_infeasible_pairs_are_typed_results():
    scn = make_scenario(hrc_gains=(1e-18,), mrc_gains=(5e-19,))
    optima = optimize_scenario(scn, EFFECTUAL)
    assert not optima.hrc[0].feasible
    assert not optima.mrc[0].feasible
    assert optima.hrc[0].reason


# The reprs of a frozen-dataclass OptResult, which the NamedTuple keeps.
FEASIBLE_REPR = (
    "OptResult(power_w=6.3890560989306495, ee_bps_per_watt=0.19524754198276442, "
    "feasible=True, lambert_arg=2.7182818284590446, reason='')"
)
INFEASIBLE_REPR = (
    "OptResult(power_w=nan, ee_bps_per_watt=nan, feasible=False, "
    "lambert_arg=-0.3642006467597279, "
    "reason='overhead-driven term C*g2 does not exceed the denominator power')"
)


def test_opt_result_record_contract():
    feasible = optimal_power(EXACT_PROBLEM)
    infeasible = optimal_power(
        OptProblem(gain=1e-13, denom_power_w=1e-10, overheads=PowerOverheads(10.0, 0.0))
    )
    assert repr(feasible) == FEASIBLE_REPR
    assert repr(infeasible) == INFEASIBLE_REPR
    assert OptResult._fields == ("power_w", "ee_bps_per_watt", "feasible", "lambert_arg", "reason")
    assert OptResult(1.0, 2.0, True, 3.0).reason == ""
    for result in (feasible, infeasible):
        with pytest.raises(AttributeError):
            result.power_w = 1.0
        with pytest.raises(AttributeError):
            result.reason = "changed"
        twin = OptResult(*result)
        assert twin is not result
        assert twin == result and hash(twin) == hash(result)
    assert feasible != infeasible
    changed = feasible._replace(ee_bps_per_watt=1.0)
    assert changed.ee_bps_per_watt == 1.0 and changed.power_w == feasible.power_w
    assert repr(feasible) == FEASIBLE_REPR


def _bits(result):
    """Every field of an OptResult as its repr: exact floats, NaN equal to NaN."""
    return [repr(getattr(result, name)) for name in result._fields]


def _reference_optima(scn, state, coupling):
    """Per-pair optimal_power over one OptProblem per device, as written out,
    each feasible EE taken as energy_efficiency(throughput(...)) at p*."""
    primary = scn.primary if state == INTERFERENCE else None
    base = scn.env.noise_w()
    if primary is not None:
        base += primary.received_w()

    def solve(problem, device, optimum_pair):
        result = optimal_power(problem)
        if not result.feasible:
            return problem, result
        pair_at_optimum = optimum_pair(result.power_w)
        bps = throughput(scn.sensing, scn.env, [pair_at_optimum], device, primary)
        ee = energy_efficiency(bps, result.power_w, scn.overheads)
        return problem, result._replace(ee_bps_per_watt=ee)

    hrc, mrc = [], []
    for pair in scn.pairs:
        hrc_problem = OptProblem(gain=pair.hrc_gain, denom_power_w=base, overheads=scn.overheads)
        hrc.append(solve(hrc_problem, "hrc", lambda p: pair._replace(hrc_power_w=p)))
        hrc_power = pair.hrc_power_w
        if coupling == "cascaded" and hrc[-1][1].feasible:
            hrc_power = hrc[-1][1].power_w
        mrc_problem = OptProblem(
            gain=pair.mrc_gain,
            denom_power_w=base + hrc_power * pair.hrc_gain,
            overheads=scn.overheads,
        )
        mrc.append(
            solve(
                mrc_problem,
                "mrc",
                lambda p: pair._replace(mrc_power_w=p, hrc_power_w=hrc_power),
            )
        )
    return hrc, mrc


@pytest.mark.parametrize("coupling", ["nominal", "cascaded"])
@pytest.mark.parametrize("state", [EFFECTUAL, INTERFERENCE])
@pytest.mark.parametrize("kind", ["default", "mixed_feasibility"])
def test_optimize_scenario_is_bit_identical_to_per_pair_path(
    default_scenario, kind, state, coupling
):
    if kind == "default":
        scn = default_scenario
    else:
        scn = make_scenario(
            hrc_gains=(1e-13, 1e-18, 3e-14, 2e-17), mrc_gains=(8e-14, 5e-19, 2e-14, 1e-17)
        )
    optima = optimize_scenario(scn, state, coupling)
    hrc, mrc = _reference_optima(scn, state, coupling)
    assert len(optima.hrc) == len(hrc) and len(optima.mrc) == len(mrc)
    feasible = 0
    for got, (problem, expected) in zip(optima.hrc + optima.mrc, hrc + mrc):
        assert _bits(got) == _bits(expected)
        if got.feasible:
            feasible += 1
            # optimal_power's normalized EE at p*, in ee_of_power's operation order.
            assert optimal_power(problem).ee_bps_per_watt == ee_of_power(got.power_w, problem)
    if kind == "mixed_feasibility":
        assert 0 < feasible < len(hrc + mrc)


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_forms_is_bit_identical_to_closed_form_on_log_uniform_columns(seed):
    """Each row of ``_closed_forms``, alone and within its column, is
    ``_closed_form`` with ``lambert_w0`` bit for bit, or raises its error.

    g2, D, C and K are drawn from 1e-300 to 1e300, so rows reach the
    infeasible branch, the asymptotic Lambert branch, a Lambert argument
    that overflows and an EE that is not finite.
    """
    closed_form, closed_forms = crnoma.optimizer._closed_form, crnoma.optimizer._closed_forms
    rng = random.Random(seed)
    seen = set()
    for _ in range(100):
        c, kappa_b = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        p_state = rng.random()
        rows = [tuple(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2)) for _ in range(20)]
        solved = []
        for g2, d in rows:
            expected = _outcome(closed_form, g2, d, c, p_state, kappa_b, lambert_w0)
            got = _outcome(lambda: closed_forms([g2], [d], c, p_state, kappa_b)[0])
            assert got == expected
            if expected.startswith("ValueError: "):
                seen.add(expected[len("ValueError: ") :].split(":")[0])
                continue
            result = closed_form(g2, d, c, p_state, kappa_b, lambert_w0)
            seen.add("asymptotic" if result.lambert_arg > 1e50 else result.reason)
            solved.append((g2, d, expected))
        gains, denoms = [g2 for g2, _, _ in solved], [d for _, d, _ in solved]
        column = closed_forms(gains, denoms, c, p_state, kappa_b)
        assert [repr(r) for r in column] == [expected for _, _, expected in solved]
    assert seen == {
        "",
        "asymptotic",
        "overhead-driven term C*g2 does not exceed the denominator power",
        "Lambert argument (C*g2 - D) / (e*D) overflows to inf",
        "energy efficiency is not finite",
    }


def test_optimize_scenario_raises_lambert_w0s_own_non_convergence_error(
    default_scenario, monkeypatch
):
    arg = optimize_scenario(default_scenario, EFFECTUAL).hrc[0].lambert_arg
    monkeypatch.setattr(crnoma.lambertw, "_MAX_ITER", 1)
    with pytest.raises(ValueError) as expected:
        lambert_w0(arg)
    assert str(expected.value) == f"lambert_w0({arg!r}) did not converge in 1 iterations"
    with pytest.raises(ValueError) as err:
        optimize_scenario(default_scenario._replace(), EFFECTUAL)
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("log_uniform", [False, True])
def test_numerical_argmax_is_bit_identical_to_reference_search(log_uniform):
    """Bit-equal to the written-out search, or both raise, on the validation
    test draws and, with log_uniform, on g2, D and C drawn from 1e-300 to
    1e300, where a = C * g2 / D spans every magnitude and some problems
    raise a range or overflow error."""
    rng = random.Random(2024)
    solved = 0
    for _ in range(1000):
        if log_uniform:
            gain, denom, circuit = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3))
            problem = OptProblem(gain, denom, PowerOverheads(circuit, 0.0))
        else:
            problem = random_problem(rng)
        try:
            expected = reference_argmax(problem)
        except ValueError:
            with pytest.raises(ValueError):
                numerical_argmax(problem)
            continue
        assert numerical_argmax(problem) == expected
        solved += 1
    assert solved > 500


def _outcome(fn, *args):
    """repr of fn(*args), so NaN fields compare equal, or its ValueError."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(
    gain_exp=st.floats(-100.0, 10.0),
    denom_exp=st.floats(-100.0, 10.0),
    circuit=st.floats(1e-3, 1e3),
    k=st.integers(-60, 60),
)
def test_scaling_gain_and_denominator_by_a_power_of_two_changes_no_bit(
    gain_exp, denom_exp, circuit, k
):
    """g2 and D times 2^k, both staying normal: C*g2 - D scales by 2^k
    exactly, so the Lambert argument, p* and every oracle probe's
    p * g2 / D are unchanged, bit for bit."""
    problem = OptProblem(10.0**gain_exp, 10.0**denom_exp, PowerOverheads(circuit, 0.0))
    scaled = problem._replace(
        gain=math.ldexp(problem.gain, k), denom_power_w=math.ldexp(problem.denom_power_w, k)
    )
    assert _outcome(optimal_power, scaled) == _outcome(optimal_power, problem)
    assert _outcome(numerical_argmax, scaled) == _outcome(numerical_argmax, problem)


@pytest.mark.parametrize("coupling", ["nominal", "cascaded"])
@pytest.mark.parametrize("state", [EFFECTUAL, INTERFERENCE])
def test_optimum_ee_is_energy_efficiency_of_throughput(default_scenario, state, coupling):
    """EE at each feasible optimum equals the public throughput and EE path bit for bit."""
    rng = random.Random(11)
    primary = default_scenario.primary if state == INTERFERENCE else None
    checked = 0
    mismatches = []
    for _ in range(200):
        sensing = SensingProfile(
            t_transmit_s=rng.uniform(1e-5, 1e-3),
            t_sense_s=rng.uniform(0.0, 1e-3),
            p_inactive=rng.random(),
            p_active=rng.random(),
            p_false_alarm=rng.random(),
            p_detection=rng.random(),
        )
        scn = default_scenario._replace(sensing=sensing)
        optima = optimize_scenario(scn, state, coupling)
        for pair, hrc, mrc in zip(scn.pairs, optima.hrc, optima.mrc):
            hrc_power = hrc.power_w if coupling == "cascaded" and hrc.feasible else pair.hrc_power_w
            for result, device in ((hrc, "hrc"), (mrc, "mrc")):
                if not result.feasible:
                    continue
                if device == "hrc":
                    optimum_pair = pair._replace(hrc_power_w=result.power_w)
                else:
                    optimum_pair = pair._replace(mrc_power_w=result.power_w, hrc_power_w=hrc_power)
                checked += 1
                bps = throughput(sensing, scn.env, [optimum_pair], device, primary)
                expected = energy_efficiency(bps, result.power_w, scn.overheads)
                if result.ee_bps_per_watt != expected:
                    mismatches.append((sensing, device, result.ee_bps_per_watt, expected))
    assert checked > 0
    assert mismatches == []
