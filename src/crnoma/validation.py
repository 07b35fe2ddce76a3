"""Built-in validation suites with a machine-readable report.

Groups the package's numerical contracts into named checks: Lambert W
identity and reference points, unit round trips, closed-form-vs-oracle
agreement on randomized problems, finite-difference stationarity, the
reference energy-efficiency ratios and improvement percentages, and the
qualitative shape of the default sweep series.

Randomized checks draw from ``random.Random`` (the Mersenne Twister), whose
sequences are reproducible for a given seed across platforms and Python
versions, so reports are byte-stable.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, NamedTuple, Tuple

from .lambertw import BRANCH_POINT, lambert_w0
from .metrics import (
    DEVICES,
    EFFECTUAL,
    INTERFERENCE,
    PowerOverheads,
    energy_efficiency,
    improvement_percent,
)
from .optimizer import OptProblem, ee_of_power, numerical_argmax, optimal_power
from .scenario import Scenario, run_sweep
from .units import dbm_to_watt, watt_to_dbm

__all__ = ["CheckResult", "ValidationReport", "run_validation"]

# Reference operating points read from the published figures: throughput in
# bps, transmit power in watts, EE in bps/W under 99 W + 1 W overheads.
REFERENCE_EE_POINTS = (
    ("hrc_interference", 4330.0, 0.7, 42.99),
    ("mrc_interference", 3753.0, 0.3, 37.41),
    ("hrc_effectual", 1.409e6, 0.7, 1.4e4),
    ("mrc_effectual", 1.864e5, 0.3, 1858.0),
)

# Original/optimized value pairs with their printed improvement percentages.
REFERENCE_IMPROVEMENTS = (
    ("mrc_effectual_throughput", 1.864e5, 7.157e5, 73.96),
    ("hrc_interference_throughput", 4330.0, 7.419e4, 94.16),
    ("mrc_interference_throughput", 3753.0, 5.72e4, 93.43),
)

# The published HRC-effectual claim (83.13%) is inconsistent with its own
# value pair, which computes to 84.05%; the suite asserts the computed value.
FLAGGED_IMPROVEMENT = ("hrc_effectual_throughput", 1.409e6, 8.835e6, 84.05, 83.13)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    limit: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}: measured {self.measured:.6e} (limit {self.limit:.6e})"
        if self.detail:
            text += f"  [{self.detail}]"
        return text


class ValidationReport(NamedTuple):
    checks: Tuple[CheckResult, ...]
    seed: int
    trials: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        out = [f"validation: seed={self.seed} trials={self.trials}"]
        out.extend(c.line() for c in self.checks)
        status = "PASS" if self.passed else "FAIL"
        failed = sum(1 for c in self.checks if not c.passed)
        out.append(f"{status}: {len(self.checks) - failed}/{len(self.checks)} checks passed")
        return out


def _lambert_grid() -> Iterator[float]:
    """10,000 log-spaced arguments covering the branch point through 1e9.

    Yielded one at a time: a list of them is the largest object a
    validation run holds, about 0.4 MiB.
    """
    lo, hi = 1e-9, 1e9 - BRANCH_POINT
    ratio = math.log(hi / lo)
    return (BRANCH_POINT + lo * math.exp(ratio * i / 9_999) for i in range(10_000))


def _check_lambert_identity() -> CheckResult:
    worst = 0.0
    exp = math.exp
    for x in _lambert_grid():
        w = lambert_w0(x)
        # Relative to max(1, |x|): every grid x is >= -1/e, so |x| > 1 only when x > 1.
        residual = abs(w * exp(w) - x)
        if x > 1.0:
            residual /= x
        # "residual > worst" keeps worst on a NaN residual, as max() does.
        if residual > worst:
            worst = residual
    return CheckResult("lambert_identity_grid", worst <= 1e-12, worst, 1e-12)


def _check_lambert_references() -> CheckResult:
    points = (
        (0.0, 0.0),
        (math.e, 1.0),
        (BRANCH_POINT, -1.0),
        (1.0, 0.5671432904097838),
    )
    worst = max(abs(lambert_w0(x) - expected) for x, expected in points)
    return CheckResult("lambert_reference_points", worst <= 1e-10, worst, 1e-10)


def _check_unit_round_trip() -> CheckResult:
    worst = 0.0
    for i in range(3001):
        dbm = -200.0 + i * 0.1
        worst = max(worst, abs(watt_to_dbm(dbm_to_watt(dbm)) - dbm))
    return CheckResult("dbm_watt_round_trip", worst <= 1e-12, worst, 1e-12)


def _check_closed_form(rng: random.Random, trials: int) -> List[CheckResult]:
    worst_gap = 0.0
    worst_stationarity = 0.0
    feasible = 0
    infeasible = 0
    max_draws = 100 * trials
    draw = rng.random
    while feasible < trials:
        if feasible + infeasible >= max_draws:
            worst_gap = worst_stationarity = math.inf
            detail = stationarity_detail = f"only {feasible} feasible problems in {max_draws} draws"
            break
        # Gain 10**U(-16, 0), denominator 10**U(-18, -2) and circuit power
        # U(1, 200) W, each rng.uniform(lo, hi) written out as the
        # lo + (hi - lo) * rng.random() it computes; positional fields cost
        # less than keywords, and each trial draws about 1.4 problems.
        problem = OptProblem(
            10.0 ** (-16.0 + 16.0 * draw()),
            10.0 ** (-18.0 + 16.0 * draw()),
            PowerOverheads(1.0 + 199.0 * draw(), 0.0),
        )
        result = optimal_power(problem)
        if not result.feasible:
            infeasible += 1
            continue
        feasible += 1
        power = result.power_w
        # "x > worst" keeps worst on a NaN x, as max(worst, x) does.
        gap = abs(power - numerical_argmax(problem)) / power
        if gap > worst_gap:
            worst_gap = gap
        # |dEE/dP| * P / EE by central finite difference at the optimum.  Its
        # own EE is ee_of_power(power, problem) bit for bit: optimal_power
        # forms it with p_state = kappa_b = 1.0, and a product by 1.0 is exact.
        h = power * 6e-6
        derivative = (ee_of_power(power + h, problem) - ee_of_power(power - h, problem)) / (2.0 * h)
        stationarity = abs(derivative) * power / result.ee_bps_per_watt
        if stationarity > worst_stationarity:
            worst_stationarity = stationarity
    else:
        detail = f"{feasible} feasible, {infeasible} infeasible draws skipped"
        stationarity_detail = ""
    return [
        CheckResult("closed_form_vs_oracle", worst_gap <= 1e-6, worst_gap, 1e-6, detail),
        CheckResult(
            "closed_form_stationarity",
            worst_stationarity <= 1e-6,
            worst_stationarity,
            1e-6,
            stationarity_detail,
        ),
    ]


def _check_reference_ratios() -> List[CheckResult]:
    overheads = PowerOverheads(circuit_w=99.0, sensing_w=1.0)
    out = []
    for name, throughput, power, expected in REFERENCE_EE_POINTS:
        computed = energy_efficiency(throughput, power, overheads)
        gap = abs(computed - expected) / expected
        out.append(
            CheckResult(
                f"reference_ee_{name}",
                gap <= 0.01,
                gap,
                0.01,
                f"{computed:.2f} vs published {expected:g} bps/W",
            )
        )
    return out


def _check_reference_improvements() -> List[CheckResult]:
    """One row per published pair; the flagged pair asserts its computed value."""
    out = []
    rows = REFERENCE_IMPROVEMENTS + (FLAGGED_IMPROVEMENT,)
    for name, original, optimized, expected, *flagged in rows:
        computed = improvement_percent(original, optimized)
        gap = abs(computed - expected)
        if flagged:
            detail = (
                f"computed {computed:.2f}%; published {flagged[0]}% is internally "
                "inconsistent with its own value pair and is documented, not asserted"
            )
        else:
            detail = f"{computed:.2f}% vs published {expected}%"
        out.append(
            CheckResult(f"reference_improvement_{name}", gap <= 0.01, gap, 0.01, detail)
        )
    return out


def _check_default_shape(scenario: Scenario) -> List[CheckResult]:
    out = []
    series = {}
    for state in (EFFECTUAL, INTERFERENCE):
        for device in DEVICES:
            for optimized in (False, True):
                series[(state, device, optimized)] = run_sweep(
                    scenario, state, device, optimized
                )

    worst = 0.0
    for s in series.values():
        worst = max(worst, abs(s.throughput_bps[0]), abs(s.ee_bps_per_watt[0]))
    out.append(CheckResult("sweep_origin_passthrough", worst == 0.0, worst, 0.0))

    min_gain = math.inf
    zero = []
    for state in (EFFECTUAL, INTERFERENCE):
        for device in DEVICES:
            original = series[(state, device, False)]
            optimized = series[(state, device, True)]
            for measure in ("ee_bps_per_watt", "throughput_bps"):
                value = getattr(optimized, measure)[-1]
                # A zero series (e.g. p_detection = 1) has no relative improvement.
                if value > 0.0:
                    gain = improvement_percent(getattr(original, measure)[-1], value)
                    min_gain = min(min_gain, gain)
                else:
                    zero.append(f"{state} {device} {measure}")
    detail = "smallest throughput/EE improvement across states and devices, percent"
    if zero:
        min_gain = -math.inf
        detail = "optimized series is 0 at the last p_x: " + ", ".join(zero)
    out.append(
        CheckResult("default_scenario_improvement_floor", min_gain > 50.0, min_gain, 50.0, detail)
    )

    ordering_ok = True
    for device in DEVICES:
        for optimized in (False, True):
            eff = series[(EFFECTUAL, device, optimized)].throughput_bps[-1]
            intf = series[(INTERFERENCE, device, optimized)].throughput_bps[-1]
            ordering_ok &= eff > intf
    for state in (EFFECTUAL, INTERFERENCE):
        for optimized in (False, True):
            hrc = series[(state, "hrc", optimized)].throughput_bps[-1]
            mrc = series[(state, "mrc", optimized)].throughput_bps[-1]
            ordering_ok &= hrc > mrc
    out.append(
        CheckResult(
            "default_scenario_series_ordering",
            ordering_ok,
            1.0 if ordering_ok else 0.0,
            1.0,
            "effectual > interference and HRC > MRC, original and optimized",
        )
    )
    return out


def run_validation(scenario: Scenario, seed: int = 0, trials: int = 1000) -> ValidationReport:
    """Run every validation group against a scenario."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = random.Random(seed)
    checks: List[CheckResult] = []
    checks.append(_check_lambert_identity())
    checks.append(_check_lambert_references())
    checks.append(_check_unit_round_trip())
    checks.extend(_check_closed_form(rng, trials))
    checks.extend(_check_reference_ratios())
    checks.extend(_check_reference_improvements())
    checks.extend(_check_default_shape(scenario))
    return ValidationReport(checks=tuple(checks), seed=seed, trials=trials)
