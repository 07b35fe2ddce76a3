"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

1. Lambert W identity on a 1e4-point grid, reference points, under 1 s.
2. Closed-form optimum vs golden-section oracle on >= 1000 randomized
   feasible problems, with finite-difference stationarity, under 10 s.
3. Published energy-efficiency operating points reproduced within 1%.
4. Published improvement percentages reproduced to two decimals, with the
   internally inconsistent published pair asserted at its computed value.
5. The full property/unit suite passes in under 60 s: CI's "Tier-1 tests"
   step runs it once with a one-minute timeout.
6. Default-scenario sweep series have the documented qualitative shape and
   improvement floor.
"""

import math
import random
import time

import pytest

from crnoma import (
    BRANCH_POINT,
    EFFECTUAL,
    INTERFERENCE,
    OptProblem,
    PowerOverheads,
    ee_of_power,
    energy_efficiency,
    improvement_percent,
    lambert_w0,
    numerical_argmax,
    optimal_power,
    run_sweep,
)


def test_criterion_1_lambert_w_correctness():
    start = time.perf_counter()
    n = 10_000
    lo, hi = 1e-9, 1e9 - BRANCH_POINT
    ratio = math.log(hi / lo)
    worst = 0.0
    for i in range(n):
        x = BRANCH_POINT + lo * math.exp(ratio * i / (n - 1))
        w = lambert_w0(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-12

    assert abs(lambert_w0(0.0) - 0.0) <= 1e-10
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-10
    assert abs(lambert_w0(BRANCH_POINT) + 1.0) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS: lambert identity worst residual {worst:.3e} "
        f"(limit 1e-12), trivial points exact, {elapsed:.2f} s"
    )


def test_criterion_2_closed_form_vs_oracle():
    start = time.perf_counter()
    rng = random.Random(2024)
    worst_gap = 0.0
    worst_stationarity = 0.0
    feasible = 0
    draws = 0
    while feasible < 1000:
        draws += 1
        problem = OptProblem(
            gain=10.0 ** rng.uniform(-16.0, 0.0),
            denom_power_w=10.0 ** rng.uniform(-18.0, -2.0),
            overheads=PowerOverheads(circuit_w=rng.uniform(1.0, 200.0), sensing_w=0.0),
        )
        result = optimal_power(problem)
        if not result.feasible:
            continue
        feasible += 1
        oracle = numerical_argmax(problem)
        worst_gap = max(worst_gap, abs(result.power_w - oracle) / result.power_w)

        h = result.power_w * 6e-6
        derivative = (
            ee_of_power(result.power_w + h, problem)
            - ee_of_power(result.power_w - h, problem)
        ) / (2.0 * h)
        ratio = abs(derivative) * result.power_w / ee_of_power(result.power_w, problem)
        worst_stationarity = max(worst_stationarity, ratio)

    assert worst_gap <= 1e-6
    assert worst_stationarity <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2 PASS: {feasible} feasible problems of {draws} draws, "
        f"worst oracle gap {worst_gap:.3e}, worst stationarity {worst_stationarity:.3e} "
        f"(limits 1e-6), {elapsed:.2f} s"
    )


def test_criterion_3_reference_ee_ratios():
    overheads = PowerOverheads(circuit_w=99.0, sensing_w=1.0)
    cases = (
        (4330.0, 0.7, 42.99),
        (3753.0, 0.3, 37.41),
        (1.409e6, 0.7, 1.4e4),
        (1.864e5, 0.3, 1858.0),
    )
    gaps = []
    for throughput, power, published in cases:
        computed = energy_efficiency(throughput, power, overheads)
        gap = abs(computed - published) / published
        gaps.append(gap)
        assert gap <= 0.01, (throughput, power, computed, published)
    print(
        "\nACCEPTANCE 3 PASS: EE operating points reproduced within "
        f"{max(gaps) * 100:.3f}% of the published values (limit 1%)"
    )


def test_criterion_4_reference_improvements():
    assert round(improvement_percent(1.864e5, 7.157e5), 2) == 73.96
    assert round(improvement_percent(4330.0, 7.419e4), 2) == 94.16
    assert abs(improvement_percent(3753.0, 5.72e4) - 93.43) <= 0.01

    # The published 83.13% for this pair is inconsistent with its own
    # values, which compute to 84.05%; the computed value is asserted and
    # the discrepancy recorded here.
    flagged = improvement_percent(1.409e6, 8.835e6)
    assert round(flagged, 2) == 84.05
    assert round(flagged, 2) != 83.13
    print(
        "\nACCEPTANCE 4 PASS: improvements 73.96 / 94.16 / 93.43(+-0.01) "
        f"reproduced; flagged pair computes {flagged:.2f}% (published 83.13%)"
    )


def test_criterion_6_default_scenario_figure_shape(default_scenario):
    series = {}
    for state in (EFFECTUAL, INTERFERENCE):
        for device in ("hrc", "mrc"):
            for optimized in (False, True):
                series[(state, device, optimized)] = run_sweep(
                    default_scenario, state, device, optimized
                )

    # Through the origin and linear in p_x.
    for key, s in series.items():
        assert s.points[0].p_x == 0.0
        assert s.points[0].throughput_bps == 0.0
        assert s.points[0].ee_bps_per_watt == 0.0
        slopes = [
            p.throughput_bps / p.p_x for p in s.points[1:]
        ]
        assert max(slopes) - min(slopes) <= 1e-9 * max(slopes), key

    # Optimized dominates original pointwise (all pairs feasible here).
    for state in (EFFECTUAL, INTERFERENCE):
        for device in ("hrc", "mrc"):
            assert series[(state, device, True)].infeasible_pairs == ()
            for orig, opt in zip(
                series[(state, device, False)].points,
                series[(state, device, True)].points,
            ):
                assert opt.throughput_bps >= orig.throughput_bps
                assert opt.ee_bps_per_watt >= orig.ee_bps_per_watt

    # Effectual above interference, HRC above MRC, at matching p_x > 0.
    for device in ("hrc", "mrc"):
        for optimized in (False, True):
            eff = series[(EFFECTUAL, device, optimized)].points
            intf = series[(INTERFERENCE, device, optimized)].points
            for a, b in zip(eff[1:], intf[1:]):
                assert a.throughput_bps > b.throughput_bps
                assert a.ee_bps_per_watt > b.ee_bps_per_watt
    for state in (EFFECTUAL, INTERFERENCE):
        for optimized in (False, True):
            hrc = series[(state, "hrc", optimized)].points
            mrc = series[(state, "mrc", optimized)].points
            for a, b in zip(hrc[1:], mrc[1:]):
                assert a.throughput_bps > b.throughput_bps
                assert a.ee_bps_per_watt > b.ee_bps_per_watt

    # Improvement floor: every state/device improves by more than 50% in
    # both throughput and energy efficiency at every off-origin grid point.
    floor = math.inf
    for state in (EFFECTUAL, INTERFERENCE):
        for device in ("hrc", "mrc"):
            for orig, opt in zip(
                series[(state, device, False)].points[1:],
                series[(state, device, True)].points[1:],
            ):
                floor = min(
                    floor,
                    improvement_percent(orig.throughput_bps, opt.throughput_bps),
                    improvement_percent(orig.ee_bps_per_watt, opt.ee_bps_per_watt),
                )
    assert floor > 50.0
    print(
        "\nACCEPTANCE 6 PASS: series pass through the origin, scale linearly, "
        f"keep the documented ordering, and improve by at least {floor:.2f}% "
        "(floor 50%)"
    )
