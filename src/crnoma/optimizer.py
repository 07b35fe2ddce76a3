"""Energy-efficiency-maximizing transmit power, closed form and oracle.

For a single device the EE curve over its own transmit power p is

    EE(p) = kappa * b * log2(1 + p * g2 / D) / (p + C)

with g2 the own-link power gain, D the total denominator power (noise plus
every interfering received power for that device and state), and
C = circuit + sensing overhead.  The state's prefactor kappa * b, the
state's probability p_x times K (``metrics._prefactor``), never moves the
maximum, which has the closed form

    p* = (C * g2 - D) / (W0(((C * g2 - D) / D) * e^-1) * g2) - D / g2

where W0 is the principal Lambert W branch.  All four device/state cases
share this shape and differ only in D; ``metrics._gains_and_denominators``
defines each pair's g2 and D for a device class.  ``optimal_power``,
``ee_of_power`` and the numerical oracle ``numerical_argmax`` work on
the normalized curve kappa * b = 1; ``optimize_scenario`` reports each
pair's EE scaled by the prefactor.  It solves each (g2, D) column in one
loop, ``_closed_forms``, with ``lambert_w0``'s Halley steps inline and bit
for bit ``_closed_form``'s results.  In x = p * g2 / D the curve is
(g2 / D) * log2(1 + x) / (x + a) with a = C * g2 / D, so its shape depends
on a alone; the oracle searches x on the fixed bracket [0, max(a, 8)].
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Sequence, Tuple

from . import lambertw
from .lambertw import lambert_w0
from .metrics import (
    HRC,
    INTERFERENCE,
    MRC,
    _FLOAT_MIN,
    DevicePair,
    PowerOverheads,
    _base_denominator_w,
    _check_nonnegative,
    _check_normal,
    _check_positive,
    _check_state,
    _checked,
    _ee_overflow,
    _gains_and_denominators,
    _gc_paused,
    _prefactor,
)

__all__ = [
    "OptProblem",
    "OptResult",
    "ScenarioOptima",
    "optimal_power",
    "ee_of_power",
    "numerical_argmax",
    "optimize_scenario",
]

COUPLINGS = ("nominal", "cascaded")

_ORACLE_COARSE_WIDTH = 1e-4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_E = math.exp(-1.0)


@_checked
class OptProblem(NamedTuple):
    """Single-device EE maximization instance on the normalized curve.

    denom_power_w bundles noise plus all interference received powers for
    one device and state.
    """

    gain: float
    denom_power_w: float
    overheads: PowerOverheads

    def __post_init__(self) -> None:
        gain, denom_power_w, _ = self
        if not 0.0 < gain < math.inf:
            _check_positive("gain", gain)
        # A subnormal D carries few bits, and C*g2 - D is then formed on the
        # subnormal grid, so the closed form would return a wrong finite p*.
        if not _FLOAT_MIN <= denom_power_w < math.inf:
            _check_normal("denom_power_w", denom_power_w)


class OptResult(NamedTuple):
    """Outcome of a closed-form power optimization.

    Infeasibility (the numerator C*g2 - D or the power not positive) is a
    typed result rather than an exception; power_w is NaN in that case.
    ee_bps_per_watt is evaluated at power_w: normalized (kappa * b = 1)
    from ``optimal_power``, scaled by the prefactor from ``optimize_scenario``.
    An immutable ``NamedTuple``; ``_replace`` gives a changed copy.
    """

    power_w: float
    ee_bps_per_watt: float
    feasible: bool
    lambert_arg: float
    reason: str = ""


def ee_of_power(power_w: float, problem: OptProblem) -> float:
    """Single-device energy efficiency at a candidate transmit power,
    on the normalized curve kappa * b = 1."""
    _check_nonnegative("power_w", power_w)
    gain, denom, overheads = problem
    rate = math.log2(1.0 + power_w * gain / denom)
    consumed = power_w + overheads.total_w
    ee = rate / consumed
    # An inf consumed power would make the EE 0.0.
    if not ee < math.inf or consumed == math.inf:
        raise _ee_overflow(rate, consumed)
    return ee


def _closed_form(
    g2: float,
    d: float,
    c: float,
    p_state: float,
    kappa_b: float,
    lambert_fn: Callable[[float], float],
) -> OptResult:
    """The Lambert-W stationary power for gain g2, denominator d, overheads c.

    The one place its infeasibility reasons and errors are written;
    ``_closed_forms`` repeats only the common path of feasible rows and
    sends every other row here.  EE at the optimum is
    ``p_state * (kappa_b * rate) / (p + c)``, in ``throughput`` and
    ``energy_efficiency``'s operation order; it raises when p + c overflows.
    """
    numerator = c * g2 - d
    arg = (numerator / d) * _INV_E
    # Positional fields cost less than keywords; there is one record per pair, device and state.
    if numerator <= 0.0:
        return OptResult(
            math.nan,
            math.nan,
            False,
            arg,
            "overhead-driven term C*g2 does not exceed the denominator power",
        )
    # arg > 0 lies in W0's domain here, but can overflow, e.g. at a 1e308 W overhead.
    if arg == math.inf:
        raise ValueError(
            f"Lambert argument (C*g2 - D) / (e*D) overflows to inf: "
            f"C*g2 - D = {numerator!r}, D = {d!r}"
        )
    w = lambert_fn(arg)
    # w * g2 would underflow at a subnormal gain; as d < C * g2, only the / g2 can overflow.
    power = (numerator / w - d) / g2
    if power == math.inf:
        raise ValueError(
            f"closed-form power overflows to inf: C*g2 - D = {numerator!r}, "
            f"W0 = {w!r}, g2 = {g2!r}"
        )
    if not power > 0.0:
        return OptResult(
            math.nan, math.nan, False, arg, f"closed form yielded non-positive power {power!r}"
        )
    # The rate at p_x = 1 is what an error names: an inf there raises even
    # at p_state = 0, where the EE is 0 * inf = NaN, as ``throughput`` does.
    rate = kappa_b * math.log2(1.0 + power * g2 / d)
    consumed = power + c
    ee = p_state * rate / consumed
    # p* + C can overflow even where p* is finite; the EE would then be 0.0.
    if not ee < math.inf or consumed == math.inf:
        raise _ee_overflow(rate, consumed)
    return OptResult(power, ee, True, arg)


def _closed_forms(
    gains: Sequence[float], denoms: Sequence[float], c: float, p_state: float, kappa_b: float
) -> Tuple[OptResult, ...]:
    """``_closed_form(g2, d, c, p_state, kappa_b, lambert_w0)`` over a
    column of (g2, D), bit for bit, with ``lambert_w0`` inline.

    A row whose Lambert argument lies in (0, ``lambertw._ASYMPTOTIC_CUTOFF``]
    runs ``lambert_w0``'s log1p start and Halley loop in its operation
    order, with the ``lambertw`` constants read at call time.  Every other
    row goes to ``_closed_form``, as does one whose loop does not converge,
    whose power is not finite and > 0, or whose EE or consumed power is not
    finite, so each infeasible reason and error is written once.
    ``lambert_w0``'s clamp of an iterate below -1 is left out: the log1p
    start lies above W(arg) > 0, as (1 + x) ln(1 + x) >= x, and no iterate
    from it falls to 0 or below.
    """
    unit_tol = lambertw._RESIDUAL_TOL
    iterations = range(lambertw._MAX_ITER)
    cutoff = lambertw._ASYMPTOTIC_CUTOFF
    exp, log1p, log2 = math.exp, math.log1p, math.log2
    inf = math.inf
    new = tuple.__new__
    results = []
    append = results.append
    for g2, d in zip(gains, denoms):
        numerator = c * g2 - d
        arg = (numerator / d) * _INV_E
        # As d > 0, arg > 0 implies numerator > 0.
        if 0.0 < arg <= cutoff:
            w = log1p(arg)
            tol = unit_tol * arg if arg > 1.0 else unit_tol
            for _ in iterations:
                ew = exp(w)
                residual = w * ew - arg
                if -tol <= residual <= tol:
                    break
                wp1 = w + 1.0
                w -= residual / (ew * wp1 - (w + 2.0) * residual / (2.0 * wp1))
            else:
                # A NaN power sends the row to _closed_form, whose lambert_w0 raises.
                w = math.nan
            power = (numerator / w - d) / g2
            if 0.0 < power < inf:
                rate = kappa_b * log2(1.0 + power * g2 / d)
                consumed = power + c
                ee = p_state * rate / consumed
                if ee < inf and consumed < inf:
                    append(new(OptResult, (power, ee, True, arg, "")))
                    continue
        append(_closed_form(g2, d, c, p_state, kappa_b, lambert_w0))
    return tuple(results)


def optimal_power(
    problem: OptProblem, lambert_fn: Callable[[float], float] = lambert_w0
) -> OptResult:
    """Closed-form EE-stationary transmit power for one device, EE normalized.

    lambert_fn exists as a validation hook so a deliberately corrupted
    solver can be injected to prove the stationarity checks have teeth.
    """
    gain, denom, overheads = problem
    return _closed_form(gain, denom, overheads.total_w, 1.0, 1.0, lambert_fn)


def numerical_argmax(problem: OptProblem) -> float:
    """Golden-section argmax of the single-device EE curve, sharpened by one
    parabolic step.

    With x = p * g2 / D and a = C * g2 / D, EE(p) is (g2 / D) * f(x) with
    f(x) = log2(1 + x) / (x + a), so its shape depends on a alone.  The
    search runs on f over the fixed bracket [0, max(a, 8)], which holds its
    one maximum, and returns p = x * D / g2.

    Golden section stops at a bracket 1e-4 of its upper end wide: f is
    flat at its maximum, so narrower brackets compare rounding noise and
    pin x* only to about sqrt(eps) (Press et al., *Numerical Recipes*,
    10.2).  A parabola through the final triple (lo, c, d) when
    f(c) > f(d), else (c, d, hi), then gives the argmax (Brent 1973,
    ch. 5; *Numerical Recipes*, 10.3).  Its vertex is returned only when
    the middle point is highest, so the parabola is concave, its
    denominator is nonzero, and the vertex lies strictly inside the
    triple.  Otherwise the middle point, which golden section keeps highest,
    is returned; the vertex fails only on a triple flat to the last bit, and
    failed on none of 20,000 seed-0 validation draws and 17,266 in-range
    problems with g2, D and C log-uniform in 1e-300..1e300.

    Every probe is evaluated inline (a call per probe costs more than the
    arithmetic); f(0) is 0.  A ValueError names C*g2/D when a is 0 or
    max(a, 8) + a overflows, and p when it overflows.
    ``test_numerical_argmax_is_bit_identical_to_reference_search`` pins
    probes and result against a search written out step by step.
    """
    gain, denom, overheads = problem
    a = overheads.total_w * gain / denom
    # f'(x) has the sign of g(x) = (x + a) / (1 + x) - ln(1 + x).  g(0) = a > 0,
    # and g'(x) = -(a + x) / (1 + x)^2 < 0, so g falls strictly.  At m = max(a, 8),
    # m + a <= 2m gives g(m) < 2 - ln 9 < 0.  So f rises to one maximum
    # x* in (0, m) and falls after it: golden section can start on [0, m].
    top = max(a, 8.0)
    # At a = 0, f falls from x = 0 on; each probe forms x + a <= top + a.
    if not (a > 0.0 and top + a < math.inf):
        raise ValueError(f"C*g2/D = {a!r} must be > 0 with C*g2/D + max(C*g2/D, 8) finite")
    log2 = math.log2
    invphi = _INVPHI
    rel_width = _ORACLE_COARSE_WIDTH
    lo, hi, f_lo, f_hi = 0.0, top, 0.0, log2(1.0 + top) / (top + a)
    c = hi - top * invphi
    d = lo + top * invphi
    fc = log2(1.0 + c) / (c + a)
    fd = log2(1.0 + d) / (d + a)
    # 0 <= lo <= hi holds throughout, so hi is max(abs(lo), abs(hi)).  The
    # width hi - lo is taken once per step, and the stop limit only when hi moves.
    width, limit = top, rel_width * top
    while width > limit:
        # f_hi (f_lo) is assigned apart so that the shift is a 3-name swap,
        # which CPython does on the stack; a 4-name one builds and unpacks a tuple.
        if fc > fd:
            f_hi = fd
            hi, d, fd = d, c, fc
            width = hi - lo
            limit = rel_width * hi
            c = hi - width * invphi
            fc = log2(1.0 + c) / (c + a)
        else:
            f_lo = fc
            lo, c, fc = c, d, fd
            width = hi - lo
            d = lo + width * invphi
            fd = log2(1.0 + d) / (d + a)
    if fc > fd:
        x1, f1, x2, f2, x3, f3 = lo, f_lo, c, fc, d, fd
    else:
        x1, f1, x2, f2, x3, f3 = c, fc, d, fd, hi, f_hi
    x = x2
    if f2 >= f1 and f2 >= f3:
        # Both terms are >= 0 here; their sum is 0 on a flat triple or on underflow.
        left = (x2 - x1) * (f2 - f3)
        right = (x3 - x2) * (f2 - f1)
        if left + right != 0.0:
            vertex = x2 - 0.5 * ((x2 - x1) * left - (x3 - x2) * right) / (left + right)
            if x1 < vertex < x3:
                x = vertex
    power = x * denom / gain
    if power == math.inf:
        raise ValueError(f"argmax power x*D/g2 overflows: x = {x!r}, D = {denom!r}, g2 = {gain!r}")
    return power


class ScenarioOptima(NamedTuple):
    """Per-pair closed-form optima for both device classes in one state."""

    hrc: Tuple[OptResult, ...]
    mrc: Tuple[OptResult, ...]


def _check_coupling(coupling: str) -> None:
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be 'nominal' or 'cascaded', got {coupling!r}")


def _coupled_hrc_powers(
    pairs: Sequence[DevicePair], hrc: Sequence[OptResult], coupling: str
) -> List[float]:
    """Per pair, the HRC power in the MRC denominator: the HRC optimum when
    cascaded and feasible, else the nominal power."""
    cascaded = coupling == "cascaded"
    return [r.power_w if cascaded and r.feasible else p.hrc_power_w for p, r in zip(pairs, hrc)]


def optimize_scenario(scenario, state: str, coupling: str = "nominal") -> ScenarioOptima:
    """Closed-form optimal powers for every pair of a scenario.

    Each EE is scaled by the state's prefactor, as ``throughput`` scales it.
    In coupling="nominal" the MRC denominators use the nominal HRC power;
    in coupling="cascaded" they use the HRC optimum where it is feasible
    (falling back to nominal otherwise).

    Each (state, coupling) is solved once per scenario: later calls on the
    same scenario return the same ``ScenarioOptima``.  The HRC optima do
    not depend on the coupling, so both couplings of a state share them.
    A call that raises caches nothing and raises again when repeated.
    The cyclic garbage collector is paused while the columns are solved
    (``metrics._gc_paused``): it is left enabled or disabled as it was
    found, also when the call raises, and no value depends on it.
    """
    _check_state(state)
    _check_coupling(coupling)
    # Keyed by state for the HRC tuple and by (state, coupling) for the
    # optima.  Results are deterministic; when threads race to store one,
    # setdefault hands back the value stored first.
    memo = scenario._memo
    optima = memo.get((state, coupling))
    if optima is not None:
        return optima

    base = _base_denominator_w(scenario.env, scenario.primary if state == INTERFERENCE else None)
    overhead = scenario.overheads.total_w
    p_x, kappa_b = _prefactor(scenario.sensing, scenario.env, state)
    pairs = scenario.pairs

    def solve(gains, denoms):
        return _closed_forms(gains, denoms, overhead, p_x, kappa_b)

    with _gc_paused():
        hrc = memo.get(state)
        if hrc is None:
            hrc = memo.setdefault(state, solve(*_gains_and_denominators(HRC, base, pairs)))
        coupled = _coupled_hrc_powers(pairs, hrc, coupling)
        mrc = solve(*_gains_and_denominators(MRC, base, pairs, coupled))
    return memo.setdefault((state, coupling), ScenarioOptima(hrc=hrc, mrc=mrc))
