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
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class ValidationReport:
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


def _lambert_grid(n: int = 10_000) -> List[float]:
    """Log-spaced arguments covering the branch point through 1e9."""
    lo, hi = 1e-9, 1e9 - BRANCH_POINT
    ratio = math.log(hi / lo)
    return [BRANCH_POINT + lo * math.exp(ratio * i / (n - 1)) for i in range(n)]


def _check_lambert_identity() -> CheckResult:
    worst = 0.0
    for x in _lambert_grid():
        w = lambert_w0(x)
        residual = abs(w * math.exp(w) - x) / max(1.0, abs(x))
        worst = max(worst, residual)
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


def _random_problem(rng: random.Random) -> OptProblem:
    gain = 10.0 ** rng.uniform(-16.0, 0.0)
    denom = 10.0 ** rng.uniform(-18.0, -2.0)
    overheads = PowerOverheads(circuit_w=rng.uniform(1.0, 200.0), sensing_w=0.0)
    return OptProblem(gain=gain, denom_power_w=denom, overheads=overheads)


def _stationarity_ratio(problem: OptProblem, power: float) -> float:
    """|dEE/dP| * P / EE by central finite difference at the given power."""
    h = power * 6e-6
    ee_plus = ee_of_power(power + h, problem)
    ee_minus = ee_of_power(power - h, problem)
    ee_center = ee_of_power(power, problem)
    derivative = (ee_plus - ee_minus) / (2.0 * h)
    return abs(derivative) * power / ee_center


def _check_closed_form(
    rng: random.Random,
    trials: int,
    lambert_fn: Optional[Callable[[float], float]],
) -> List[CheckResult]:
    worst_gap = 0.0
    worst_stationarity = 0.0
    feasible = 0
    infeasible = 0
    max_draws = 100 * trials
    while feasible < trials:
        if feasible + infeasible >= max_draws:
            detail = f"only {feasible} feasible problems in {max_draws} draws"
            return [
                CheckResult("closed_form_vs_oracle", False, math.inf, 1e-6, detail),
                CheckResult("closed_form_stationarity", False, math.inf, 1e-6, detail),
            ]
        problem = _random_problem(rng)
        if lambert_fn is None:
            result = optimal_power(problem)
        else:
            result = optimal_power(problem, lambert_fn=lambert_fn)
        if not result.feasible:
            infeasible += 1
            continue
        feasible += 1
        oracle = numerical_argmax(problem)
        worst_gap = max(worst_gap, abs(result.power_w - oracle) / result.power_w)
        worst_stationarity = max(
            worst_stationarity, _stationarity_ratio(problem, result.power_w)
        )
    detail = f"{feasible} feasible, {infeasible} infeasible draws skipped"
    return [
        CheckResult(
            "closed_form_vs_oracle", worst_gap <= 1e-6, worst_gap, 1e-6, detail
        ),
        CheckResult(
            "closed_form_stationarity",
            worst_stationarity <= 1e-6,
            worst_stationarity,
            1e-6,
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
    out = []
    for name, original, optimized, expected in REFERENCE_IMPROVEMENTS:
        computed = improvement_percent(original, optimized)
        gap = abs(computed - expected)
        out.append(
            CheckResult(
                f"reference_improvement_{name}",
                gap <= 0.01,
                gap,
                0.01,
                f"{computed:.2f}% vs published {expected}%",
            )
        )
    name, original, optimized, computed_ref, published = FLAGGED_IMPROVEMENT
    computed = improvement_percent(original, optimized)
    gap = abs(computed - computed_ref)
    out.append(
        CheckResult(
            f"reference_improvement_{name}",
            gap <= 0.01,
            gap,
            0.01,
            f"computed {computed:.2f}%; published {published}% is internally "
            "inconsistent with its own value pair and is documented, not asserted",
        )
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
    for state in (EFFECTUAL, INTERFERENCE):
        for device in DEVICES:
            original = series[(state, device, False)]
            optimized = series[(state, device, True)]
            min_gain = min(
                min_gain,
                improvement_percent(original.ee_bps_per_watt[-1], optimized.ee_bps_per_watt[-1]),
                improvement_percent(original.throughput_bps[-1], optimized.throughput_bps[-1]),
            )
    out.append(
        CheckResult(
            "default_scenario_improvement_floor",
            min_gain > 50.0,
            min_gain,
            50.0,
            "smallest throughput/EE improvement across states and devices, percent",
        )
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


def run_validation(
    scenario: Scenario,
    seed: int = 0,
    trials: int = 1000,
    lambert_fn: Optional[Callable[[float], float]] = None,
) -> ValidationReport:
    """Run every validation group against a scenario.

    ``lambert_fn`` optionally replaces the Lambert solver inside the
    closed-form path; injecting a corrupted solver must make the
    stationarity check fail (negative control for the test suite).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = random.Random(seed)
    checks: List[CheckResult] = []
    checks.append(_check_lambert_identity())
    checks.append(_check_lambert_references())
    checks.append(_check_unit_round_trip())
    checks.extend(_check_closed_form(rng, trials, lambert_fn))
    checks.extend(_check_reference_ratios())
    checks.extend(_check_reference_improvements())
    checks.extend(_check_default_shape(scenario))
    return ValidationReport(checks=tuple(checks), seed=seed, trials=trials)
