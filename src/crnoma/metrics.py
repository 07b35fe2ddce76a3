"""Link-level metrics for the cognitive NOMA uplink.

Covers the per-state Shannon throughput of the paired HRC/MRC devices,
the energy-efficiency ratio, and the improvement percentage used for
original-vs-optimized comparisons.

Conventions: all powers in watts, gains are linear power ratios |g|^2,
throughput in bits/second, energy efficiency in bits/second/watt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

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


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0) or not math.isfinite(value):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SensingProfile:
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
        if not math.isfinite(self.t_transmit_s) or self.t_transmit_s <= 0.0:
            raise ValueError(f"t_transmit_s must be > 0, got {self.t_transmit_s!r}")
        if not math.isfinite(self.t_sense_s) or self.t_sense_s < 0.0:
            raise ValueError(f"t_sense_s must be >= 0, got {self.t_sense_s!r}")
        _check_probability("p_inactive", self.p_inactive)
        _check_probability("p_active", self.p_active)
        _check_probability("p_false_alarm", self.p_false_alarm)
        _check_probability("p_detection", self.p_detection)

    def meets_regulatory_sensing(self) -> bool:
        """IEEE 802.22-style requirement: detection >= 0.9, false alarm <= 0.1."""
        return self.p_detection >= 0.9 and self.p_false_alarm <= 0.1


@dataclass(frozen=True)
class RadioEnvironment:
    """Shared physical context: bandwidth, noise PSD, carrier frequency."""

    bandwidth_hz: float
    noise_psd_dbm_hz: float
    carrier_ghz: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.bandwidth_hz) or self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz!r}")
        if not math.isfinite(self.noise_psd_dbm_hz):
            raise ValueError("noise_psd_dbm_hz must be finite")
        if not math.isfinite(self.carrier_ghz) or self.carrier_ghz <= 0.0:
            raise ValueError(f"carrier_ghz must be > 0, got {self.carrier_ghz!r}")

    def noise_w(self) -> float:
        """Noise power n_p * b in watts over the full bandwidth."""
        return noise_power_w(self.noise_psd_dbm_hz, self.bandwidth_hz)


@dataclass(frozen=True)
class DevicePair:
    """One HRC + one MRC device sharing a subcarrier.

    Gains are linear power ratios; the optional distances record where a
    gain came from when it was derived through the pathloss model.
    """

    hrc_power_w: float
    mrc_power_w: float
    hrc_gain: float
    mrc_gain: float
    hrc_distance_m: Optional[float] = None
    mrc_distance_m: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("hrc_power_w", "mrc_power_w"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("hrc_gain", "mrc_gain"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value!r}")

    def sic_ordering_ok(self) -> bool:
        """Whether the received HRC power exceeds the paired MRC power.

        SIC decodes the stronger HRC signal first; when this is False that
        premise is strained, though every formula remains well defined.
        """
        return self.hrc_power_w * self.hrc_gain > self.mrc_power_w * self.mrc_gain


@dataclass(frozen=True)
class PrimaryLink:
    """Primary transmitter as seen by the base station."""

    power_w: float
    gain: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.power_w) or self.power_w < 0.0:
            raise ValueError(f"power_w must be >= 0, got {self.power_w!r}")
        if not math.isfinite(self.gain) or self.gain <= 0.0:
            raise ValueError(f"gain must be > 0, got {self.gain!r}")

    def received_w(self) -> float:
        """Interference power P_P * |g_P|^2 landing in SINR denominators."""
        return self.power_w * self.gain


@dataclass(frozen=True)
class PowerOverheads:
    """Fixed power draw added to every energy-efficiency denominator."""

    circuit_w: float
    sensing_w: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.circuit_w) or self.circuit_w < 0.0:
            raise ValueError(f"circuit_w must be >= 0, got {self.circuit_w!r}")
        if not math.isfinite(self.sensing_w) or self.sensing_w < 0.0:
            raise ValueError(f"sensing_w must be >= 0, got {self.sensing_w!r}")
        if self.circuit_w + self.sensing_w <= 0.0:
            raise ValueError("circuit_w + sensing_w must be > 0")

    @property
    def total_w(self) -> float:
        return self.circuit_w + self.sensing_w


@dataclass(frozen=True)
class MetricPoint:
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
        if self.state not in STATES:
            raise ValueError(f"state must be one of {STATES}, got {self.state!r}")
        if self.device not in DEVICES:
            raise ValueError(f"device must be one of {DEVICES}, got {self.device!r}")
        _check_probability("p_x", self.p_x)
        if self.throughput_bps < 0.0:
            raise ValueError("throughput_bps must be >= 0")


def duty_factor(sensing: SensingProfile) -> float:
    """Fraction of each frame spent transmitting: t_t / (t_t + t_se)."""
    total = sensing.t_transmit_s + sensing.t_sense_s
    if total <= 0.0:
        raise ValueError("t_transmit_s + t_sense_s must be > 0")
    return sensing.t_transmit_s / total


def _detection_term(sensing: SensingProfile, state: str) -> float:
    """Weight of a correct sensing decision: 1 - p_false_alarm or 1 - p_detection."""
    return 1.0 - (sensing.p_false_alarm if state == EFFECTUAL else sensing.p_detection)


def _base_denominator_w(env: RadioEnvironment, primary: Optional[PrimaryLink] = None) -> float:
    """Noise power, plus the primary's received power in the interference state."""
    base = env.noise_w()
    if primary is not None:
        base += primary.received_w()
    return base


def _pair_rates(
    env: RadioEnvironment,
    pairs: Sequence[DevicePair],
    device: str,
    primary: Optional[PrimaryLink] = None,
) -> List[float]:
    """Per-pair spectral efficiency log2(1 + S / D) of one device class.

    D is the base denominator (``_base_denominator_w``), plus the paired
    HRC's received power for an MRC device.  This is the only place the
    link-budget denominator is written out.
    """
    base = _base_denominator_w(env, primary)
    if device == HRC:
        return [math.log2(1.0 + p.hrc_power_w * p.hrc_gain / base) for p in pairs]
    return [
        math.log2(1.0 + p.mrc_power_w * p.mrc_gain / (base + p.hrc_power_w * p.hrc_gain))
        for p in pairs
    ]


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
    if device not in DEVICES:
        raise ValueError(f"device must be one of {DEVICES}, got {device!r}")
    state = EFFECTUAL if primary is None else INTERFERENCE
    p_state = sensing.p_inactive if state == EFFECTUAL else sensing.p_active
    pref = duty_factor(sensing) * p_state * _detection_term(sensing, state)
    # A plain running sum: sum() rounds differently from Python 3.12 on.
    total = 0.0
    for rate in _pair_rates(env, pairs, device, primary):
        total += rate
    return pref * env.bandwidth_hz * total


def energy_efficiency(
    throughput_bps: float,
    tx_power_w: float,
    overheads: PowerOverheads,
) -> float:
    """Throughput over total consumed power (transmit + circuit + sensing)."""
    if throughput_bps < 0.0:
        raise ValueError(f"throughput_bps must be >= 0, got {throughput_bps!r}")
    return throughput_bps / _consumed_power_w(tx_power_w, overheads)


def _consumed_power_w(tx_power_w: float, overheads: PowerOverheads) -> float:
    """The energy-efficiency denominator tx + circuit + sensing, checked."""
    if not math.isfinite(tx_power_w) or tx_power_w < 0.0:
        raise ValueError(f"tx_power_w must be >= 0, got {tx_power_w!r}")
    total = tx_power_w + overheads.total_w
    if total <= 0.0:
        raise ValueError("total consumed power must be > 0")
    return total


def improvement_percent(original: float, optimized: float) -> float:
    """Relative gain of an optimized value, in percent of the optimized value.

    100 * (optimized - original) / optimized; this is the convention that
    reproduces the reference improvement figures.
    """
    if not math.isfinite(optimized) or optimized <= 0.0:
        raise ValueError(f"optimized must be > 0, got {optimized!r}")
    if not math.isfinite(original) or original < 0.0:
        raise ValueError(f"original must be >= 0, got {original!r}")
    return 100.0 * (optimized - original) / optimized
