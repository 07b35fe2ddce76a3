"""Link-level metrics for the cognitive NOMA uplink.

Covers the per-state Shannon throughput of the paired HRC/MRC devices,
the energy-efficiency ratio, and the improvement percentage used for
original-vs-optimized comparisons.

Conventions: all powers in watts, gains are linear power ratios |g|^2,
throughput in bits/second, energy efficiency in bits/second/watt.
"""

from __future__ import annotations

import gc
import math
import sys
from contextlib import contextmanager
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .units import noise_power_w

__all__ = [
    "EFFECTUAL",
    "INTERFERENCE",
    "HRC",
    "MRC",
    "STATES",
    "DEVICES",
    "SensingProfile",
    "RadioEnvironment",
    "DevicePair",
    "PrimaryLink",
    "PowerOverheads",
    "MetricPoint",
    "duty_factor",
    "throughput",
    "energy_efficiency",
    "improvement_percent",
]

# Primary-transmitter activity states and device classes.
EFFECTUAL = "effectual"
INTERFERENCE = "interference"
HRC = "hrc"
MRC = "mrc"
STATES = (EFFECTUAL, INTERFERENCE)
DEVICES = (HRC, MRC)

_FLOAT_MIN = sys.float_info.min


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0) or not math.isfinite(value):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _check_normal(name: str, value: float) -> None:
    """``_check_positive``, and a subnormal value raises too: it carries few
    bits, so a closed form or product formed from it loses them."""
    _check_positive(name, value)
    if value < _FLOAT_MIN:
        raise ValueError(f"{name} {value!r} is below the smallest normal float {_FLOAT_MIN!r}")


def _check_state(state: str) -> None:
    if state not in STATES:
        raise ValueError(f"state must be one of {STATES}, got {state!r}")


def _check_device(device: str) -> None:
    if device not in DEVICES:
        raise ValueError(f"device must be one of {DEVICES}, got {device!r}")


@contextmanager
def _gc_paused():
    """Pause CPython's cyclic garbage collector for the block.

    A wide scenario builds tens of thousands of objects that cannot form a
    cycle (YAML nodes, ``DevicePair`` and ``OptResult`` tuples), and every
    few hundred allocations the collector walks them all again.  Only a
    block that finds it enabled disables it, and re-enables it on exit, also
    when the block raises, so a caller's ``gc.disable()`` holds.  Unlike
    ``timeit``, which disables it either way, a block that found it disabled
    never touches it: its disable could land after another thread's pause
    has ended and re-enabled it, leaving it off for good.  No value depends
    on it.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _checked(cls):
    """Class decorator for a ``NamedTuple`` record whose ``__post_init__``
    checks its fields, so that no build skips the checks.

    It generates ``__new__`` from ``_fields`` and ``_field_defaults``, as
    ``collections.namedtuple`` does, with one more step: the new tuple's
    ``__post_init__``, looked up on each build, runs before it is returned.
    ``_make`` builds through ``__new__``, so ``_replace`` is checked too,
    and ``copy`` and ``pickle`` rebuild through ``__new__`` already.  The
    parameters are explicit because a ``*args, **kwargs`` wrapper is about
    twice as slow, and records are built once per pair or per oracle draw.

    For the same reason the records built per pair or per draw
    (``DevicePair``, ``PowerOverheads``, ``OptProblem``) and ``Scenario``'s
    grid compare each value inline and call the named ``_check_*`` helper
    only when the comparison fails: the helper raises its own message, the
    checks run in field order, and a valid build makes no call.  The inline
    comparison must fail on every value the helper rejects, NaN included.
    """
    args = ", ".join(cls._fields)
    namespace = {"_tuple_new": tuple.__new__}
    exec(
        f"def __new__(_cls, {args}):\n"
        f"    self = _tuple_new(_cls, ({args},))\n"
        "    self.__post_init__()\n"
        "    return self\n",
        namespace,
    )
    new = namespace["__new__"]
    new.__defaults__ = tuple(cls._field_defaults.values())
    # TypeError texts name the function by this, e.g. "DevicePair.__new__()".
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    new.__module__ = cls.__module__
    cls.__new__ = new
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@_checked
class SensingProfile(NamedTuple):
    """Spectrum-sensing timing and probabilities shared by all devices.

    p_inactive / p_active weight the effectual and interference terms; they
    are swept independently and are not constrained to sum to one.
    """

    t_transmit_s: float
    t_sense_s: float
    p_inactive: float = 0.5
    p_active: float = 0.5
    p_false_alarm: float = 0.1
    p_detection: float = 0.9

    def __post_init__(self) -> None:
        _check_positive("t_transmit_s", self.t_transmit_s)
        _check_nonnegative("t_sense_s", self.t_sense_s)
        _check_probability("p_inactive", self.p_inactive)
        _check_probability("p_active", self.p_active)
        _check_probability("p_false_alarm", self.p_false_alarm)
        _check_probability("p_detection", self.p_detection)
        # duty_factor divides by this sum; at inf it returns 0 for any t_t.
        frame_s = self.t_transmit_s + self.t_sense_s
        if frame_s == math.inf:
            raise ValueError(f"t_transmit_s + t_sense_s must be finite, got {frame_s!r}")

    def meets_regulatory_sensing(self) -> bool:
        """IEEE 802.22-style requirement: detection >= 0.9, false alarm <= 0.1."""
        return self.p_detection >= 0.9 and self.p_false_alarm <= 0.1


@_checked
class RadioEnvironment(NamedTuple):
    """Shared physical context: bandwidth, noise PSD, carrier frequency."""

    bandwidth_hz: float
    noise_psd_dbm_hz: float
    carrier_ghz: float

    def __post_init__(self) -> None:
        _check_positive("bandwidth_hz", self.bandwidth_hz)
        if not math.isfinite(self.noise_psd_dbm_hz):
            raise ValueError("noise_psd_dbm_hz must be finite")
        _check_positive("carrier_ghz", self.carrier_ghz)

    def noise_w(self) -> float:
        """Noise power n_p * b in watts over the full bandwidth."""
        return noise_power_w(self.noise_psd_dbm_hz, self.bandwidth_hz)


@_checked
class DevicePair(NamedTuple):
    """One HRC + one MRC device sharing a subcarrier.

    Gains are linear power ratios, given directly or resolved from
    distances by the scenario loader; the distances are not kept.
    """

    hrc_power_w: float
    mrc_power_w: float
    hrc_gain: float
    mrc_gain: float

    def __post_init__(self) -> None:
        hrc_power_w, mrc_power_w, hrc_gain, mrc_gain = self
        if not 0.0 <= hrc_power_w < math.inf:
            _check_nonnegative("hrc_power_w", hrc_power_w)
        if not 0.0 <= mrc_power_w < math.inf:
            _check_nonnegative("mrc_power_w", mrc_power_w)
        if not 0.0 < hrc_gain < math.inf:
            _check_positive("hrc_gain", hrc_gain)
        if not 0.0 < mrc_gain < math.inf:
            _check_positive("mrc_gain", mrc_gain)

    def sic_ordering_ok(self) -> bool:
        """Whether the received HRC power exceeds the paired MRC power.

        SIC decodes the stronger HRC signal first; when this is False that
        premise is strained, though every formula remains well defined.
        """
        return _sic_ordering_holds(
            self.hrc_power_w, self.hrc_gain, self.mrc_power_w, self.mrc_gain
        )


def _sic_ordering_holds(
    hrc_power_w: float, hrc_gain: float, mrc_power_w: float, mrc_gain: float
) -> bool:
    """``DevicePair.sic_ordering_ok`` on loose powers and gains."""
    return hrc_power_w * hrc_gain > mrc_power_w * mrc_gain


@_checked
class PrimaryLink(NamedTuple):
    """Primary transmitter as seen by the base station."""

    power_w: float
    gain: float

    def __post_init__(self) -> None:
        _check_nonnegative("power_w", self.power_w)
        _check_positive("gain", self.gain)

    def received_w(self) -> float:
        """Interference power P_P * |g_P|^2 landing in SINR denominators."""
        return self.power_w * self.gain


@_checked
class PowerOverheads(NamedTuple):
    """Fixed power draw added to every energy-efficiency denominator."""

    circuit_w: float
    sensing_w: float

    def __post_init__(self) -> None:
        circuit_w, sensing_w = self
        if not 0.0 <= circuit_w < math.inf:
            _check_nonnegative("circuit_w", circuit_w)
        if not 0.0 <= sensing_w < math.inf:
            _check_nonnegative("sensing_w", sensing_w)
        total = circuit_w + sensing_w
        if total <= 0.0:
            raise ValueError("circuit_w + sensing_w must be > 0")
        if total == math.inf:
            raise ValueError(f"circuit_w + sensing_w must be finite, got {total!r}")

    @property
    def total_w(self) -> float:
        return self.circuit_w + self.sensing_w


@_checked
class MetricPoint(NamedTuple):
    """One evaluated (throughput, EE, power) record at a given p_x and state.

    throughput_bps is the per-pair mean (the headline "average" series).
    """

    p_x: float
    state: str
    device: str
    throughput_bps: float
    ee_bps_per_watt: float
    tx_power_w: float
    optimized: bool

    def __post_init__(self) -> None:
        _check_state(self.state)
        _check_device(self.device)
        _check_probability("p_x", self.p_x)
        if self.throughput_bps < 0.0:
            raise ValueError("throughput_bps must be >= 0")


def duty_factor(sensing: SensingProfile) -> float:
    """Fraction of each frame spent transmitting: t_t / (t_t + t_se)."""
    return sensing.t_transmit_s / (sensing.t_transmit_s + sensing.t_sense_s)


def _prefactor(sensing: SensingProfile, env: RadioEnvironment, state: str) -> Tuple[float, float]:
    """The state's rate prefactor as its two factors (p_x, K): p_x is
    p_inactive or p_active, K = duty * (1 - p_false_alarm | 1 - p_detection) * b.

    Each throughput is p_x * (K * rate sum) (``_scaled_rate_sum``).  Taking
    p_x last lets ``run_sweep`` form K * rate sum once per series, and each
    of its rows, divided by the pair count as an exact float, is still
    ``throughput(...) / n`` bit for bit.
    """
    if state == EFFECTUAL:
        p_state, miss = sensing.p_inactive, 1.0 - sensing.p_false_alarm
    else:
        p_state, miss = sensing.p_active, 1.0 - sensing.p_detection
    return p_state, duty_factor(sensing) * miss * env.bandwidth_hz


def _base_denominator_w(env: RadioEnvironment, primary: Optional[PrimaryLink] = None) -> float:
    """Noise power, plus the primary's received power in the interference
    state; checked finite and normal (``_check_normal``)."""
    base = env.noise_w()
    if primary is not None:
        base += primary.received_w()
    _check_normal("denom_power_w", base)
    return base


def _gains_and_denominators(
    device: str, base: float, pairs: Sequence[DevicePair], hrc_powers: Sequence[float] = ()
) -> Tuple[List[float], List[float]]:
    """Per pair, the device's own gain and SINR denominator D (their one
    definition).  D is ``base`` for an HRC device; an MRC device's D adds
    the paired HRC's received power at ``hrc_powers``, checked finite."""
    if device == HRC:
        return [p.hrc_gain for p in pairs], [base] * len(pairs)
    denoms = [base + hp * p.hrc_gain for p, hp in zip(pairs, hrc_powers)]
    # Every D is at least base > 0, so only the largest can fail, by overflowing.
    _check_positive("denom_power_w", max(denoms, default=base))
    return [p.mrc_gain for p in pairs], denoms


def _rate_sum(
    device: str,
    base: float,
    pairs: Sequence[DevicePair],
    hrc_powers: Sequence[float],
    powers: Sequence[float],
) -> float:
    """Sum over pairs of log2(1 + S / D) for one device class, S = power * gain.

    ``powers`` is the device's own power column, ``hrc_powers`` the HRC
    column its D reads (``_gains_and_denominators``), both in pair order.
    An S / D that overflows to inf raises ValueError naming the device and
    pair index.  A plain running sum: sum() rounds differently from Python
    3.12 on, and these totals must not depend on the interpreter.
    """
    gains, denoms = _gains_and_denominators(device, base, pairs, hrc_powers)
    total = 0.0
    for index, (power, gain, denom) in enumerate(zip(powers, gains, denoms)):
        ratio = power * gain / denom
        # D is finite and > 0, so S / D is finite or inf, never NaN.
        if not ratio < math.inf:
            raise ValueError(f"{device} pair {index}: S/D = {ratio!r} is not finite")
        total += math.log2(1.0 + ratio)
    return total


def throughput(
    sensing: SensingProfile,
    env: RadioEnvironment,
    pairs: Sequence[DevicePair],
    device: str,
    primary: Optional[PrimaryLink] = None,
) -> float:
    """Summed throughput duty * p_x * w * b * sum_n log2(1 + S_n / D_n), in bps.

    Without ``primary`` (effectual state, primary sensed idle) p_x is
    p_inactive and w = 1 - p_false_alarm, the perfect-detection weight.
    With it (interference state) p_x is p_active, w = 1 - p_detection, the
    imperfect-detection weight, and the primary's received power joins the
    noise in every D.  An MRC signal also sees its paired HRC's received
    power in D as in-cell NOMA interference.
    """
    _check_device(device)
    p_state, kappa_b = _prefactor(sensing, env, EFFECTUAL if primary is None else INTERFERENCE)
    hrc_powers = [p.hrc_power_w for p in pairs]
    powers = hrc_powers if device == HRC else [p.mrc_power_w for p in pairs]
    total = _rate_sum(device, _base_denominator_w(env, primary), pairs, hrc_powers, powers)
    return p_state * _scaled_rate_sum(device, kappa_b, total)


def _scaled_rate_sum(device: str, kappa_b: float, rate_sum: float) -> float:
    """K * rate sum, the throughput at p_x = 1, in bps; each throughput is
    p_x times it.

    Raises ValueError when it overflows, whatever p_x is.  As p_x <= 1, no
    throughput overflows once this is finite, and p_x = 0 cannot turn an
    inf into 0 * inf = NaN.
    """
    scaled = kappa_b * rate_sum
    # Each rate is finite, so only this product can overflow.
    if scaled == math.inf:
        raise ValueError(
            f"{device} throughput overflows to inf: prefactor {kappa_b!r} Hz "
            f"times rate sum {rate_sum!r}"
        )
    return scaled


def energy_efficiency(
    throughput_bps: float,
    tx_power_w: float,
    overheads: PowerOverheads,
) -> float:
    """Throughput over total consumed power (transmit + circuit + sensing)."""
    _check_nonnegative("throughput_bps", throughput_bps)
    _check_nonnegative("tx_power_w", tx_power_w)
    consumed = tx_power_w + overheads.total_w
    ee = throughput_bps / consumed
    # An inf consumed power would make the EE 0.0.
    if ee == math.inf or consumed == math.inf:
        raise _ee_overflow(throughput_bps, consumed)
    return ee


def _ee_overflow(rate: float, consumed_w: float) -> ValueError:
    """The error for an EE quotient that is not finite, or whose consumed
    power overflows.

    The rate overflows at a huge S/D, the quotient at a tiny consumed power,
    and the quotient is NaN when both rate and consumed power are inf.  A
    consumed power that overflows alone would give a false EE of 0.0.
    """
    return ValueError(f"energy efficiency is not finite: {rate!r} over {consumed_w!r} W")


def improvement_percent(original: float, optimized: float) -> float:
    """Relative gain of an optimized value, in percent of the optimized value.

    100 * ((optimized - original) / optimized): the convention that reproduces
    the reference improvement figures, divided first so that no finite
    percentage overflows (at optimized = 1e307).  One below the float range raises.
    """
    _check_positive("optimized", optimized)
    _check_nonnegative("original", original)
    percent = 100.0 * ((optimized - original) / optimized)
    if percent == -math.inf:
        raise ValueError(
            f"improvement of {optimized!r} over {original!r} overflows to -inf percent"
        )
    return percent
