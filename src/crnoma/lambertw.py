"""Principal-branch Lambert W solver.

``lambert_w0(x)`` returns the real w >= -1 with ``w * exp(w) == x``, defined
for x >= -1/e.  The solver starts from ``log1p(x)`` away from the branch
point and from the square-root branch-point series close to it, then refines
with Halley iterations (Corless et al., "On the Lambert W Function", 1996)
until the residual ``|w*exp(w) - x|`` drops below 1e-14 * max(1, |x|).
Convergence is quadratic-plus; a handful of iterations suffices anywhere on
the principal branch.

From about 5e57 that residual test sits below the rounding floor of
``w*exp(w)``, and from about 2.55e305 the product overflows, so arguments
above 1e50 start from the asymptotic expansion ``L1 - L2 + L2/L1`` with
L1 = ln x, L2 = ln ln x (Corless et al. 1996, eq. 4.19) and take Newton
steps on the log-form residual ``w + ln w - ln x``.  Either loop raises
ValueError if it reaches its iteration cap without converging.
"""

from __future__ import annotations

import math

__all__ = ["lambert_w0", "BRANCH_POINT"]

#: Lower edge of the principal-branch domain, -1/e.
BRANCH_POINT = -math.exp(-1.0)

# Inputs this close below -1/e are treated as floating-point noise at the
# branch point and clamped rather than rejected.
_CLAMP_SLACK = 1e-12

_RESIDUAL_TOL = 1e-14
_MAX_ITER = 50

# The series in p = sqrt(2*(e*x + 1)) is accurate only near the branch
# point; beyond this threshold log1p gives the better start.
_SERIES_CUTOFF = -0.25

# Above this argument the log-form iteration takes over.  The direct
# residual converges everywhere below it; its first failure is near 5e57.
_ASYMPTOTIC_CUTOFF = 1e50


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function at ``x``.

    Raises ValueError for non-finite input, for x below -1/e by more than a
    1e-12 clamp slack, and when the iteration does not converge.
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w0 requires finite input, got {x!r}")
    if x < BRANCH_POINT:
        if x < BRANCH_POINT - _CLAMP_SLACK:
            raise ValueError(
                f"lambert_w0 undefined below the branch point -1/e: got {x!r}"
            )
        x = BRANCH_POINT
    if x == BRANCH_POINT:
        return -1.0
    if x == 0.0:
        return 0.0
    if x > _ASYMPTOTIC_CUTOFF:
        return _lambert_w0_large(x)

    if x < _SERIES_CUTOFF:
        # Branch-point series W = -1 + p - p^2/3 + (11/72) p^3 + O(p^4).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    else:
        w = math.log1p(x)

    # x >= -1/e here, so this is _RESIDUAL_TOL * max(1, |x|).
    tol = _RESIDUAL_TOL * x if x > 1.0 else _RESIDUAL_TOL
    exp = math.exp
    for _ in range(_MAX_ITER):
        ew = exp(w)
        residual = w * ew - x
        if -tol <= residual <= tol:
            break
        wp1 = w + 1.0
        # Halley step; the correction term keeps it stable near w = -1.
        w -= residual / (ew * wp1 - (w + 2.0) * residual / (2.0 * wp1))
        if w < -1.0:
            w = -1.0 + 1e-16
    else:
        raise ValueError(f"lambert_w0({x!r}) did not converge in {_MAX_ITER} iterations")
    return w


def _lambert_w0_large(x: float) -> float:
    log_x = math.log(x)
    l2 = math.log(log_x)
    w = log_x - l2 + l2 / log_x
    tol = _RESIDUAL_TOL * log_x
    for _ in range(_MAX_ITER):
        residual = w + math.log(w) - log_x
        if abs(residual) <= tol:
            return w
        w -= residual * w / (w + 1.0)
    raise ValueError(f"lambert_w0({x!r}) did not converge in {_MAX_ITER} iterations")
