"""Energy-efficiency-maximizing transmit power, closed form and oracle.

For a single device the EE curve over its own transmit power p is

    EE(p) = kappa * b * log2(1 + p * g2 / D) / (p + C)

with g2 the own-link power gain, D the total denominator power (noise plus
every interfering received power for that device and state), and
C = circuit + sensing overhead.  The stationary point is prefactor-free and
has the closed form

    p* = (C * g2 - D) / (W0(((C * g2 - D) / D) * e^-1) * g2) - D / g2

where W0 is the principal Lambert W branch.  All four device/state cases
share this shape and differ only in D.  ``numerical_argmax`` provides an
independent golden-section check of the same maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .lambertw import lambert_w0
from .metrics import (
    EFFECTUAL,
    INTERFERENCE,
    DevicePair,
    PowerOverheads,
    RadioEnvironment,
    SensingProfile,
    _base_denominator_w,
    _detection_term,
    duty_factor,
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

_ORACLE_REL_WIDTH = 1e-9
_ORACLE_P_CAP_W = 1e12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class OptProblem:
    """Single-device EE maximization instance.

    denom_power_w bundles noise plus all interference received powers for
    the given device and state; p_max_w is only the oracle's initial search
    ceiling and is grown automatically when needed.
    """

    gain: float
    denom_power_w: float
    overheads: PowerOverheads
    p_max_w: float = 1e6
    state: str = EFFECTUAL

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain) or self.gain <= 0.0:
            raise ValueError(f"gain must be > 0, got {self.gain!r}")
        if not math.isfinite(self.denom_power_w) or self.denom_power_w <= 0.0:
            raise ValueError(f"denom_power_w must be > 0, got {self.denom_power_w!r}")
        if not math.isfinite(self.p_max_w) or self.p_max_w <= 0.0:
            raise ValueError(f"p_max_w must be > 0, got {self.p_max_w!r}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a closed-form power optimization.

    Infeasibility (the formula's numerator C*g2 - D not positive, a Lambert
    argument outside the principal branch, or a non-positive power) is a
    typed result rather than an exception; power_w is NaN in that case.
    ee_bps_per_watt is evaluated at power_w, with the probability prefactor
    and bandwidth set to one when no sensing/environment context is given.
    """

    power_w: float
    ee_bps_per_watt: float
    feasible: bool
    lambert_arg: float
    reason: str = ""


def _kappa_b(
    state: str,
    sensing: Optional[SensingProfile],
    env: Optional[RadioEnvironment],
) -> float:
    """EE prefactor duty * p_x(state) * (1 - p_false_alarm | 1 - p_detection) * b.

    Without a sensing/environment context the curve is normalized to one.
    Any state other than effectual takes the interference weights.
    """
    if sensing is None or env is None:
        return 1.0
    p_state = sensing.p_inactive if state == EFFECTUAL else sensing.p_active
    kappa = p_state * _detection_term(sensing, state)
    return duty_factor(sensing) * kappa * env.bandwidth_hz


def ee_of_power(
    power_w: float,
    problem: OptProblem,
    sensing: Optional[SensingProfile] = None,
    env: Optional[RadioEnvironment] = None,
) -> float:
    """Single-device energy efficiency at a candidate transmit power.

    With sensing and environment given, the full prefactor
    duty * p_x(state) * (1 - p_false_alarm or 1 - p_detection) and the
    bandwidth are applied; otherwise the curve is normalized to
    kappa * b = 1.  The maximizing power is the same either way.
    """
    if not math.isfinite(power_w) or power_w < 0.0:
        raise ValueError(f"power_w must be >= 0, got {power_w!r}")
    kappa_b = _kappa_b(problem.state, sensing, env)
    rate = math.log2(1.0 + power_w * problem.gain / problem.denom_power_w)
    return kappa_b * rate / (power_w + problem.overheads.total_w)


def _closed_form(
    g2: float,
    d: float,
    c: float,
    kappa_b: float,
    lambert_fn: Callable[[float], float],
) -> OptResult:
    """The Lambert-W stationary power for gain g2, denominator d, overheads c.

    The one place the closed form and its infeasibility branches are
    written; EE at the optimum follows ``ee_of_power``'s operation order.
    """
    numerator = c * g2 - d
    arg = (numerator / d) * _INV_E
    if numerator <= 0.0:
        return OptResult(
            power_w=math.nan,
            ee_bps_per_watt=math.nan,
            feasible=False,
            lambert_arg=arg,
            reason="overhead-driven term C*g2 does not exceed the denominator power",
        )
    if arg < -_INV_E:
        return OptResult(
            power_w=math.nan,
            ee_bps_per_watt=math.nan,
            feasible=False,
            lambert_arg=arg,
            reason="Lambert argument below the principal-branch domain",
        )
    w = lambert_fn(arg)
    power = numerator / (w * g2) - d / g2
    if not math.isfinite(power) or power <= 0.0:
        return OptResult(
            power_w=math.nan,
            ee_bps_per_watt=math.nan,
            feasible=False,
            lambert_arg=arg,
            reason=f"closed form yielded non-positive power {power!r}",
        )
    ee = kappa_b * math.log2(1.0 + power * g2 / d) / (power + c)
    return OptResult(power_w=power, ee_bps_per_watt=ee, feasible=True, lambert_arg=arg)


def optimal_power(
    problem: OptProblem,
    sensing: Optional[SensingProfile] = None,
    env: Optional[RadioEnvironment] = None,
    lambert_fn: Callable[[float], float] = lambert_w0,
) -> OptResult:
    """Closed-form EE-stationary transmit power for one device.

    lambert_fn exists as a validation hook so a deliberately corrupted
    solver can be injected to prove the stationarity checks have teeth.
    """
    return _closed_form(
        problem.gain,
        problem.denom_power_w,
        problem.overheads.total_w,
        _kappa_b(problem.state, sensing, env),
        lambert_fn,
    )


def numerical_argmax(
    problem: OptProblem,
    sensing: Optional[SensingProfile] = None,
    env: Optional[RadioEnvironment] = None,
) -> float:
    """Golden-section argmax of the single-device EE curve.

    EE is unimodal in the transmit power (log over affine), so golden
    section applies.  The upper bracket starts at problem.p_max_w and
    doubles until EE is decreasing there, capped at 1e12 W.  Each section
    step evaluates its one new probe inline (a call per probe costs more
    than the arithmetic), in ``ee_of_power``'s operation order and with its
    ``power_w >= 0`` check.  Probes and result are therefore bit-identical
    to a search over ``ee_of_power``;
    ``test_numerical_argmax_is_bit_identical_to_reference_search`` pins this.
    """
    gain = problem.gain
    denom = problem.denom_power_w
    overhead = problem.overheads.total_w
    kappa_b = _kappa_b(problem.state, sensing, env)
    log2 = math.log2
    isfinite = math.isfinite

    def ee(p: float) -> float:
        # ee_of_power with the problem bound once: same check, same order.
        if not isfinite(p) or p < 0.0:
            raise ValueError(f"power_w must be >= 0, got {p!r}")
        return kappa_b * log2(1.0 + p * gain / denom) / (p + overhead)

    hi = problem.p_max_w
    while ee(hi) >= ee(hi * 0.5):
        hi *= 2.0
        if hi > _ORACLE_P_CAP_W:
            raise ValueError(
                "could not bracket a decreasing EE tail below "
                f"{_ORACLE_P_CAP_W:.0e} W; problem appears unbounded"
            )

    a, b = 0.0, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = ee(c), ee(d)
    # 0 <= a <= b holds throughout, so b is max(abs(a), abs(b)).
    while (b - a) > _ORACLE_REL_WIDTH * b:
        left = fc > fd
        if left:
            b, d, fd = d, c, fc
            p = b - (b - a) * _INVPHI
        else:
            a, c, fc = c, d, fd
            p = a + (b - a) * _INVPHI
        # Probes stay in [0, hi] with hi <= 1e12, so p is finite.
        if p < 0.0:
            raise ValueError(f"power_w must be >= 0, got {p!r}")
        f = kappa_b * log2(1.0 + p * gain / denom) / (p + overhead)
        if left:
            c, fc = p, f
        else:
            d, fd = p, f
    return 0.5 * (a + b)


@dataclass(frozen=True)
class ScenarioOptima:
    """Per-pair closed-form optima for both device classes in one state."""

    state: str
    coupling: str
    hrc: Tuple[OptResult, ...]
    mrc: Tuple[OptResult, ...]


def _check_coupling(coupling: str) -> None:
    if coupling not in ("nominal", "cascaded"):
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

    In coupling="nominal" the MRC denominators use the nominal HRC power;
    in coupling="cascaded" they use the HRC optimum where it is feasible
    (falling back to nominal otherwise).
    """
    if state not in (EFFECTUAL, INTERFERENCE):
        raise ValueError(f"state must be 'effectual' or 'interference', got {state!r}")
    _check_coupling(coupling)

    base = _base_denominator_w(scenario.env, scenario.primary if state == INTERFERENCE else None)
    # OptProblem's denominator check, made without building one per device.
    if not 0.0 < base < math.inf:
        raise ValueError(f"denom_power_w must be > 0, got {base!r}")
    overhead = scenario.overheads.total_w
    kappa_b = _kappa_b(state, scenario.sensing, scenario.env)
    pairs = scenario.pairs

    hrc = tuple(_closed_form(p.hrc_gain, base, overhead, kappa_b, lambert_w0) for p in pairs)
    mrc = []
    for pair, hrc_power in zip(pairs, _coupled_hrc_powers(pairs, hrc, coupling)):
        mrc_denom = base + hrc_power * pair.hrc_gain
        if not 0.0 < mrc_denom < math.inf:
            raise ValueError(f"denom_power_w must be > 0, got {mrc_denom!r}")
        mrc.append(_closed_form(pair.mrc_gain, mrc_denom, overhead, kappa_b, lambert_w0))
    return ScenarioOptima(state=state, coupling=coupling, hrc=hrc, mrc=tuple(mrc))
