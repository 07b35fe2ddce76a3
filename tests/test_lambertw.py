"""Principal-branch Lambert W: defining identity, references, domain edges."""

import math
import sys

import pytest
import scipy.special
from hypothesis import given, strategies as st

from crnoma import BRANCH_POINT, lambert_w0
from crnoma import lambertw
from conftest import reference_lambert_w0

# Omega constant W(1), frozen from an in-repo bisection oracle (see
# test_reference_value_matches_bisection_oracle) and 50-digit arithmetic.
W_OF_ONE = 0.5671432904097838


def _bisect_w(target: float, lo: float = -1.0, hi: float = 710.0) -> float:
    """Independent oracle: bisection on the increasing map w -> w*exp(w)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_1e4():
    """1e4 log-spaced arguments from just above -1/e up to 1e9."""
    n = 10_000
    lo, hi = 1e-9, 1e9 - BRANCH_POINT
    ratio = math.log(hi / lo)
    return [BRANCH_POINT + lo * math.exp(ratio * i / (n - 1)) for i in range(n)]


def test_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-10
    assert lambert_w0(BRANCH_POINT) == -1.0


def test_reference_value_matches_bisection_oracle():
    oracle = _bisect_w(1.0)
    assert abs(oracle - W_OF_ONE) <= 1e-12
    assert abs(lambert_w0(1.0) - W_OF_ONE) <= 1e-10


def test_defining_identity_on_grid():
    worst = 0.0
    for x in grid_1e4():
        w = lambert_w0(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-12


def test_strictly_increasing_on_grid():
    values = [lambert_w0(x) for x in grid_1e4()]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_branch_point_clamp_and_rejection():
    assert lambert_w0(BRANCH_POINT - 1e-13) == -1.0
    with pytest.raises(ValueError):
        lambert_w0(BRANCH_POINT - 1e-9)
    with pytest.raises(ValueError):  # the documented slack is 1e-12
        lambert_w0(BRANCH_POINT - 1.5e-12)
    # The clamp's edge is exact: the slack itself clamps, one ulp more raises.
    edge = BRANCH_POINT - lambertw._CLAMP_SLACK
    assert lambert_w0(edge) == -1.0
    with pytest.raises(ValueError, match="below the branch point"):
        lambert_w0(math.nextafter(edge, -math.inf))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        lambert_w0(bad)


@given(st.floats(min_value=BRANCH_POINT, max_value=1e9))
def test_identity_property(x):
    w = lambert_w0(x)
    assert w >= -1.0
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


@given(st.floats(min_value=BRANCH_POINT + 1e-12, max_value=1e9))
def test_agrees_with_scipy(x):
    reference = scipy.special.lambertw(x).real
    assert math.isclose(lambert_w0(x), reference, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("x", [1e60, 1e300, 2.6e305, sys.float_info.max])
def test_large_arguments_are_finite_and_satisfy_log_identity(x):
    # w * exp(w) loses the residual to rounding and then overflows here, so
    # the identity is checked as w + ln w = ln x.
    w = lambert_w0(x)
    assert math.isfinite(w)
    assert abs(w + math.log(w) - math.log(x)) <= 1e-12 * math.log(x)
    assert math.isclose(w, scipy.special.lambertw(x).real, rel_tol=1e-12)


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(lambertw, "_MAX_ITER", 1)
    with pytest.raises(ValueError, match="did not converge"):
        lambert_w0(1e3)
    with pytest.raises(ValueError, match="did not converge"):
        lambert_w0(1e60)


def _outcome(fn, x):
    """repr of fn(x), or the text of the ValueError it raises."""
    try:
        return repr(fn(x))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_bit_identical_to_reference_lambert_w0():
    # Both signs log-spaced from 1e-300 to the largest float, 2,000 steps
    # of 1e-15 above -1/e, a linear sweep over [-0.367, 5], and the edges.
    magnitudes = [10.0 ** (k / 10.0) for k in range(-3000, 3083)] + [sys.float_info.max]
    grid = (
        magnitudes
        + [-m for m in magnitudes]
        + [BRANCH_POINT + i * 1e-15 for i in range(1, 2001)]
        + [-0.367 + i * (5.367 / 500) for i in range(501)]
        + [0.0, -0.0, 1.0, BRANCH_POINT, BRANCH_POINT - 1e-13, BRANCH_POINT - 1e-9]
        + [1e50, math.nextafter(1e50, math.inf), math.nan, math.inf, -math.inf]
    )
    assert len(grid) > 14_000
    mismatches = [
        x for x in grid if _outcome(lambert_w0, x) != _outcome(reference_lambert_w0, x)
    ]
    assert mismatches == []
