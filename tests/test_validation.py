"""Built-in validation report: pass by default, fail under a corrupted solver."""

import functools
import math
import random

import pytest

import crnoma.validation
from crnoma import OptResult, ee_of_power, lambert_w0, optimal_power, run_validation
from conftest import reference_argmax


def test_default_scenario_passes(default_scenario):
    report = run_validation(default_scenario, seed=0, trials=150)
    assert report.passed
    names = {check.name for check in report.checks}
    assert "closed_form_vs_oracle" in names
    assert "closed_form_stationarity" in names
    assert "reference_ee_hrc_interference" in names
    assert "reference_ee_mrc_interference" in names
    assert "reference_ee_hrc_effectual" in names
    assert "reference_ee_mrc_effectual" in names
    assert "default_scenario_improvement_floor" in names


def test_report_is_reproducible(default_scenario):
    first = run_validation(default_scenario, seed=42, trials=100)
    second = run_validation(default_scenario, seed=42, trials=100)
    assert first == second
    assert "\n".join(first.lines()) == "\n".join(second.lines())


@pytest.mark.parametrize("seed", [0, 7])
def test_report_matches_written_out_reference_search(default_scenario, monkeypatch, seed):
    fast = run_validation(default_scenario, seed=seed, trials=300)
    calls = []

    def counted(problem):
        calls.append(problem)
        return reference_argmax(problem)

    monkeypatch.setattr(crnoma.validation, "numerical_argmax", counted)
    reference = run_validation(default_scenario, seed=seed, trials=300)
    assert len(calls) == 300
    assert reference == fast
    assert reference.lines() == fast.lines()


def test_other_seeds_also_pass(default_scenario):
    report = run_validation(default_scenario, seed=99, trials=100)
    assert report.passed
    assert report.seed == 99
    assert report.trials == 100


def test_corrupted_lambert_fails_stationarity(default_scenario, monkeypatch):
    def skewed(x: float) -> float:
        return lambert_w0(x) * 1.05

    monkeypatch.setattr(
        crnoma.validation, "optimal_power", functools.partial(optimal_power, lambert_fn=skewed)
    )
    report = run_validation(default_scenario, seed=0, trials=40)
    assert not report.passed
    by_name = {check.name: check for check in report.checks}
    assert not by_name["closed_form_stationarity"].passed
    assert not by_name["closed_form_vs_oracle"].passed
    # Unrelated groups keep passing: the corruption is localized.
    assert by_name["lambert_identity_grid"].passed
    assert by_name["reference_ee_hrc_interference"].passed


def test_exhausted_draws_fail_both_closed_form_checks(default_scenario, monkeypatch):
    infeasible = OptResult(math.nan, math.nan, False, -1.0, "forced")
    monkeypatch.setattr(crnoma.validation, "optimal_power", lambda problem: infeasible)
    report = run_validation(default_scenario, seed=0, trials=5)
    assert not report.passed
    detail = "[only 0 feasible problems in 500 draws]"
    lines = report.lines()
    assert f"FAIL  closed_form_vs_oracle: measured inf (limit 1.000000e-06)  {detail}" in lines
    assert f"FAIL  closed_form_stationarity: measured inf (limit 1.000000e-06)  {detail}" in lines


def test_trials_must_be_positive(default_scenario):
    with pytest.raises(ValueError):
        run_validation(default_scenario, trials=0)


def _drawn_problems(monkeypatch, seed, count):
    """The first ``count`` problems the closed-form check draws for a seed."""
    drawn = []

    def recorded(problem):
        drawn.append(problem)
        return optimal_power(problem)

    monkeypatch.setattr(crnoma.validation, "optimal_power", recorded)
    # About 1.4 draws per feasible trial.
    crnoma.validation._check_closed_form(random.Random(seed), count * 3 // 4)
    assert len(drawn) >= count
    return drawn[:count]


@pytest.mark.parametrize("seed", [0, 7])
def test_trial_draws_are_rng_uniform_draws(monkeypatch, seed):
    # The check writes rng.uniform(lo, hi) out as lo + (hi - lo) * rng.random().
    drawn = _drawn_problems(monkeypatch, seed, 10_000)
    rng = random.Random(seed)
    for problem in drawn:
        gain = 10.0 ** rng.uniform(-16.0, 0.0)
        denom = 10.0 ** rng.uniform(-18.0, -2.0)
        circuit = rng.uniform(1.0, 200.0)
        assert problem == (gain, denom, (circuit, 0.0))


@pytest.mark.parametrize("seed", [0, 7])
def test_optimum_ee_is_ee_of_power_at_the_optimum(monkeypatch, seed):
    # The stationarity check divides by the optimum's own EE in place of a
    # third ee_of_power call.
    feasible = 0
    for problem in _drawn_problems(monkeypatch, seed, 10_000):
        result = optimal_power(problem)
        if result.feasible:
            feasible += 1
            assert result.ee_bps_per_watt == ee_of_power(result.power_w, problem)
    assert feasible > 7_000
