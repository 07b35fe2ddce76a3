"""Seeded scenario generator for the benchmark workloads.

Each generated scenario is a ``Spec``: the YAML text handed to the program
and the same values as the exact tokens written into that text, so the
reference model in ``reference.py`` reads precisely what the program parses.
Nothing here imports ``crnoma``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The bundled default scenario's values (watt mode), restated here so the
# benchmark's inputs do not depend on the package's data files.
DEFAULT_HRC_DISTANCES = ("1200.0", "1400.0", "1600.0", "1800.0", "2000.0")
DEFAULT_MRC_DISTANCES = ("1300.0", "1500.0", "1700.0", "1900.0", "2000.0")


@dataclass
class Spec:
    """One scenario: every numeric field is the token written to the YAML."""

    label: str
    unit_mode: str = "watt"
    bandwidth_hz: str = "1.0e+6"
    noise_psd_dbm_hz: str = "-174.0"
    carrier_ghz: str = "5.0"
    t_transmit_s: str = "0.125e-3"
    t_sense_s: str = "0.125e-3"
    p_inactive: str = "0.5"
    p_active: str = "0.5"
    p_false_alarm: str = "0.1"
    p_detection: str = "0.9"
    los_probability: str = "0.5"
    combine: str = "db"
    sweep: Tuple[str, str, str] = ("0.0", "1.0", "0.01")
    hrc_power: str = "0.7"
    mrc_power: str = "0.3"
    hrc_distances_m: Optional[List[str]] = field(
        default_factory=lambda: list(DEFAULT_HRC_DISTANCES)
    )
    mrc_distances_m: Optional[List[str]] = field(
        default_factory=lambda: list(DEFAULT_MRC_DISTANCES)
    )
    hrc_gains: Optional[List[str]] = None
    mrc_gains: Optional[List[str]] = None
    primary_power: str = "50.0"
    primary_distance_m: Optional[str] = "2000.0"
    primary_gain: Optional[str] = None
    circuit_power: str = "99.0"
    sensing_power: str = "1.0"

    def yaml(self) -> str:
        def flow(tokens: List[str]) -> str:
            return "[" + ", ".join(tokens) + "]"

        lines = [
            f"label: {self.label}",
            f"unit_mode: {self.unit_mode}",
            "env:",
            f"  bandwidth_hz: {self.bandwidth_hz}",
            f"  noise_psd_dbm_hz: {self.noise_psd_dbm_hz}",
            f"  carrier_ghz: {self.carrier_ghz}",
            "sensing:",
            f"  transmit_time_s: {self.t_transmit_s}",
            f"  sense_time_s: {self.t_sense_s}",
            f"  p_inactive: {self.p_inactive}",
            f"  p_active: {self.p_active}",
            f"  p_false_alarm: {self.p_false_alarm}",
            f"  p_detection: {self.p_detection}",
            "pathloss:",
            f"  los_probability: {self.los_probability}",
            f"  combine: {self.combine}",
            "sweep:",
            f"  start: {self.sweep[0]}",
            f"  stop: {self.sweep[1]}",
            f"  step: {self.sweep[2]}",
            "devices:",
            f"  hrc_power: {self.hrc_power}",
            f"  mrc_power: {self.mrc_power}",
        ]
        for key in ("hrc_distances_m", "mrc_distances_m", "hrc_gains", "mrc_gains"):
            tokens = getattr(self, key)
            if tokens is not None:
                lines.append(f"  {key}: {flow(tokens)}")
        lines += ["primary:", f"  power: {self.primary_power}"]
        if self.primary_distance_m is not None:
            lines.append(f"  distance_m: {self.primary_distance_m}")
        if self.primary_gain is not None:
            lines.append(f"  gain: {self.primary_gain}")
        lines += [
            "overheads:",
            f"  circuit_power: {self.circuit_power}",
            f"  sensing_power: {self.sensing_power}",
        ]
        return "\n".join(lines) + "\n"


def unsigned_exp(value: float, digits: int = 6) -> str:
    """Write value >= 1 as ``m.mmme<n>`` with no exponent sign.

    YAML 1.1 reads such a token as a string, so the program takes its
    string-to-number coercion path for it.
    """
    exponent = int(math.floor(math.log10(value)))
    mantissa = round(value / 10.0**exponent, digits)
    if mantissa >= 10.0:
        mantissa, exponent = mantissa / 10.0, exponent + 1
    return f"{mantissa!r}e{exponent}"


def _fixed(value: float, decimals: int) -> str:
    return f"{value:.{decimals}f}"


def _dbm(watts: float) -> float:
    return 30.0 + 10.0 * math.log10(watts)


def _distances(rng: random.Random, n: int, lo: float, hi: float) -> List[str]:
    return [_fixed(rng.uniform(lo, hi), 1) for _ in range(n)]


def _gains(rng: random.Random, n: int) -> Tuple[List[str], List[str]]:
    hrc = [10.0 ** rng.uniform(-14.3, -13.0) for _ in range(n)]
    mrc = [g * rng.uniform(0.2, 0.9) for g in hrc]
    return [f"{g:.6e}" for g in hrc], [f"{g:.6e}" for g in mrc]


def cli_variants(rng: random.Random) -> Dict[str, Spec]:
    """The default scenario and three seeded variants of it.

    Together they cover watt and dBm unit modes, derived and explicit
    gains, ``db`` and ``linear`` combine, and unsigned-exponent floats.
    """
    out = {"default": Spec(label="default")}

    hrc = _distances(rng, 5, 1100.0, 1900.0)
    out["dbm_distances_linear"] = Spec(
        label="dbm_distances_linear",
        unit_mode="dbm",
        los_probability=_fixed(rng.uniform(0.3, 0.7), 2),
        combine="linear",
        hrc_power=_fixed(_dbm(0.7) + rng.uniform(-1.0, 1.0), 3),
        mrc_power=_fixed(_dbm(0.3) + rng.uniform(-1.0, 1.0), 3),
        hrc_distances_m=hrc,
        mrc_distances_m=[_fixed(float(d) + rng.uniform(20.0, 150.0), 1) for d in hrc],
        primary_power=_fixed(_dbm(50.0), 4),
        primary_distance_m=_fixed(rng.uniform(1500.0, 2000.0), 1),
        circuit_power=_fixed(_dbm(99.0), 4),
        sensing_power="30.0",
    )

    hrc_g, mrc_g = _gains(rng, 5)
    out["watt_gains_unsigned"] = Spec(
        label="watt_gains_unsigned",
        bandwidth_hz=unsigned_exp(1.0e6),
        carrier_ghz=unsigned_exp(5.0),
        p_inactive=_fixed(rng.uniform(0.3, 0.7), 2),
        p_active=_fixed(rng.uniform(0.3, 0.7), 2),
        hrc_power=_fixed(rng.uniform(0.5, 0.9), 3),
        mrc_power=_fixed(rng.uniform(0.1, 0.4), 3),
        hrc_distances_m=None,
        mrc_distances_m=None,
        hrc_gains=hrc_g,
        mrc_gains=mrc_g,
        primary_power=unsigned_exp(50.0),
        primary_distance_m=None,
        primary_gain=f"{10.0 ** rng.uniform(-14.5, -13.5):.6e}",
        circuit_power=unsigned_exp(rng.uniform(60.0, 140.0), 3),
        sensing_power=unsigned_exp(1.0),
    )

    hrc_g, mrc_g = _gains(rng, 5)
    out["dbm_gains_unsigned"] = Spec(
        label="dbm_gains_unsigned",
        unit_mode="dbm",
        bandwidth_hz=unsigned_exp(rng.uniform(0.5e6, 2.0e6), 4),
        hrc_power=unsigned_exp(_dbm(rng.uniform(0.5, 0.9)), 4),
        mrc_power=unsigned_exp(_dbm(rng.uniform(0.1, 0.4)), 4),
        hrc_distances_m=None,
        mrc_distances_m=None,
        hrc_gains=hrc_g,
        mrc_gains=mrc_g,
        primary_power=unsigned_exp(_dbm(50.0), 4),
        primary_distance_m=_fixed(rng.uniform(1500.0, 2000.0), 1),
        circuit_power=unsigned_exp(_dbm(99.0), 4),
        sensing_power="30.0",
    )
    return out


def pathloss_queries(rng: random.Random, n: int) -> List[Tuple[str, str, str, str]]:
    """(distance_m, carrier_ghz, omega, combine) tokens inside the model range."""
    return [
        (
            _fixed(rng.uniform(10.0, 2000.0), 1),
            _fixed(rng.uniform(2.0, 6.0), 2),
            _fixed(rng.uniform(0.0, 1.0), 2),
            ("db", "linear")[i % 2],
        )
        for i in range(n)
    ]


def dense_spec(rng: random.Random, pairs: int, step: str) -> Spec:
    """Few pairs, fine p_x grid."""
    hrc = _distances(rng, pairs, 1100.0, 1900.0)
    return Spec(
        label="sweep_dense",
        sweep=("0.0", "1.0", step),
        hrc_distances_m=hrc,
        mrc_distances_m=[_fixed(float(d) + rng.uniform(20.0, 150.0), 1) for d in hrc],
        primary_distance_m=_fixed(rng.uniform(1500.0, 2000.0), 1),
    )


def wide_spec(rng: random.Random, pairs: int, combine: str) -> Spec:
    """Many pairs at seeded distances, one grid point.

    About 2% of the distances fall outside the pathloss model's 10-2000 m
    range, which the program records as notes.
    """

    def distance() -> str:
        u = rng.random()
        if u < 0.01:
            return _fixed(rng.uniform(5.0, 9.9), 2)
        if u < 0.02:
            return _fixed(rng.uniform(2000.5, 2500.0), 2)
        return _fixed(rng.uniform(10.0, 2000.0), 2)

    return Spec(
        label=f"wide_{pairs}_{combine}",
        combine=combine,
        sweep=("0.5", "0.5", "0.01"),
        hrc_distances_m=[distance() for _ in range(pairs)],
        mrc_distances_m=[distance() for _ in range(pairs)],
        primary_distance_m=_fixed(rng.uniform(1500.0, 2000.0), 1),
    )
