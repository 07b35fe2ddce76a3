"""Power-unit conversions between the dBm domain and linear watts.

All link-level formulas in this package work in linear watts; dBm appears
only at configuration boundaries (parameter tables, noise PSDs).
"""

from __future__ import annotations

import math

__all__ = ["dbm_to_watt", "watt_to_dbm", "noise_power_w"]


def dbm_to_watt(power_dbm: float) -> float:
    """Convert decibel-milliwatts to watts: 10**((dBm - 30) / 10)."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"dBm power must be finite, got {power_dbm!r}")
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"dBm power {power_dbm!r} overflows in watts") from None


def watt_to_dbm(power_w: float) -> float:
    """Convert watts to decibel-milliwatts. Requires a strictly positive power."""
    if not math.isfinite(power_w) or power_w <= 0.0:
        raise ValueError(f"watt power must be finite and > 0, got {power_w!r}")
    return 30.0 + 10.0 * math.log10(power_w)


def noise_power_w(noise_psd_dbm_hz: float, bandwidth_hz: float) -> float:
    """Total thermal-noise power in watts over a bandwidth.

    The noise PSD is given in dBm/Hz; the returned value is the product
    PSD_watts * bandwidth that sits in every SINR denominator.
    """
    if not (bandwidth_hz > 0.0) or not math.isfinite(bandwidth_hz):
        raise ValueError(f"bandwidth_hz must be finite and > 0, got {bandwidth_hz!r}")
    return dbm_to_watt(noise_psd_dbm_hz) * bandwidth_hz
