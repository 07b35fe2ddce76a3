"""Distance/frequency pathloss model and power-gain conversion.

Dual LOS/NLOS log-distance model with a LOS-probability-weighted average,
stated in dB for carrier frequencies of 2-6 GHz and link distances of
10-2000 m.  Inputs outside that range are allowed; ``range_notes`` names
what lies outside it, so sweeps can probe the edges without aborting.
"""

from __future__ import annotations

import math
from typing import List

__all__ = [
    "VALID_DISTANCE_M",
    "VALID_CARRIER_GHZ",
    "DEFAULT_LOS_PROBABILITY",
    "pathloss_los_db",
    "pathloss_nlos_db",
    "pathloss_average_db",
    "power_gain",
    "range_notes",
]

VALID_DISTANCE_M = (10.0, 2000.0)
VALID_CARRIER_GHZ = (2.0, 6.0)

#: Used when a scenario does not assign a LOS probability.
DEFAULT_LOS_PROBABILITY = 0.5


def _validate(distance_m: float, carrier_ghz: float) -> None:
    if not math.isfinite(distance_m) or distance_m <= 0.0:
        raise ValueError(f"distance_m must be finite and > 0, got {distance_m!r}")
    if not math.isfinite(carrier_ghz) or carrier_ghz <= 0.0:
        raise ValueError(f"carrier_ghz must be finite and > 0, got {carrier_ghz!r}")


def range_notes(distance_m: float, carrier_ghz: float) -> List[str]:
    """One note per input outside the model's stated validity range, else []."""
    notes = []
    if not VALID_DISTANCE_M[0] <= distance_m <= VALID_DISTANCE_M[1]:
        notes.append(
            f"distance {distance_m} m outside the model validity range {VALID_DISTANCE_M} m"
        )
    if not VALID_CARRIER_GHZ[0] <= carrier_ghz <= VALID_CARRIER_GHZ[1]:
        notes.append(
            f"carrier {carrier_ghz} GHz outside the model validity range {VALID_CARRIER_GHZ} GHz"
        )
    return notes


def _los_db(log_d: float, log_f: float) -> float:
    return 22.0 * log_d + 28.0 + 20.0 * log_f


def _nlos_db(log_d: float, log_f: float) -> float:
    return 36.7 * log_d + 22.7 + 26.0 * log_f


def pathloss_los_db(distance_m: float, carrier_ghz: float) -> float:
    """Line-of-sight pathloss in dB: 22 log10(d) + 28 + 20 log10(f_GHz)."""
    _validate(distance_m, carrier_ghz)
    return _los_db(math.log10(distance_m), math.log10(carrier_ghz))


def pathloss_nlos_db(distance_m: float, carrier_ghz: float) -> float:
    """Non-line-of-sight pathloss in dB: 36.7 log10(d) + 22.7 + 26 log10(f_GHz)."""
    _validate(distance_m, carrier_ghz)
    return _nlos_db(math.log10(distance_m), math.log10(carrier_ghz))


def pathloss_average_db(
    distance_m: float,
    carrier_ghz: float,
    los_probability: float = DEFAULT_LOS_PROBABILITY,
    combine: str = "db",
) -> float:
    """LOS-probability-weighted pathloss in dB.

    Parameters
    ----------
    distance_m, carrier_ghz:
        Link geometry and carrier frequency.
    los_probability:
        Weight of the LOS term, in [0, 1].
    combine:
        ``"db"`` mixes the two losses directly in the dB domain (the model's
        published form); ``"linear"`` mixes the corresponding linear power
        gains and converts back, the physically common alternative.
    """
    if not (0.0 <= los_probability <= 1.0):
        raise ValueError(
            f"los_probability must lie in [0, 1], got {los_probability!r}"
        )
    # Validated and each logarithm taken once; the terms are those of
    # pathloss_los_db and pathloss_nlos_db, bit for bit.
    _validate(distance_m, carrier_ghz)
    log_d = math.log10(distance_m)
    log_f = math.log10(carrier_ghz)
    los = _los_db(log_d, log_f)
    nlos = _nlos_db(log_d, log_f)
    if combine == "db":
        return los_probability * los + (1.0 - los_probability) * nlos
    if combine == "linear":
        # One term may underflow to 0 while the mix stays positive.
        mixed = los_probability * _linear_gain(los) + (1.0 - los_probability) * _linear_gain(nlos)
        if mixed == 0.0:
            raise ValueError(
                f"LOS and NLOS pathlosses {los!r} and {nlos!r} dB mix to a power gain of 0"
            )
        return -10.0 * math.log10(mixed)
    raise ValueError(f"combine must be 'db' or 'linear', got {combine!r}")


def power_gain(pathloss_db: float) -> float:
    """Linear power channel gain |g|^2 = 10**(-PL/10) for a pathloss in dB.

    Raises ValueError when the gain overflows or underflows to 0; a
    subnormal gain is returned as it is.
    """
    gain = _linear_gain(pathloss_db)
    if gain == 0.0:
        raise ValueError(f"pathloss {pathloss_db!r} dB underflows to a power gain of 0")
    return gain


def _linear_gain(pathloss_db: float) -> float:
    """10**(-PL/10), possibly 0; ValueError when PL is not finite or the gain overflows."""
    if not math.isfinite(pathloss_db):
        raise ValueError(f"pathloss_db must be finite, got {pathloss_db!r}")
    try:
        return 10.0 ** (-pathloss_db / 10.0)
    except OverflowError:
        raise ValueError(f"pathloss {pathloss_db!r} dB overflows as a power gain") from None
