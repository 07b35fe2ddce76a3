"""Scenario configuration, device-pair assembly, and p_x sweeps.

Scenarios are YAML documents with sections for the radio environment,
sensing profile, device pairs, primary link, and power overheads.  Device
gains are either given explicitly or derived from distances through the
pathloss model.  ``run_sweep`` regenerates the original/optimized data
series over a probability grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Optional, Tuple

import yaml

from .metrics import (
    DEVICES,
    HRC,
    INTERFERENCE,
    STATES,
    DevicePair,
    MetricPoint,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    SensingProfile,
    _check_probability,
    _consumed_power_w,
    _detection_term,
    _pair_rates,
    duty_factor,
)
from .optimizer import _check_coupling, _coupled_hrc_powers, optimize_scenario
from .pathloss import DEFAULT_LOS_PROBABILITY, pathloss_average_db, power_gain, range_notes
from .units import dbm_to_watt

__all__ = [
    "ConfigError",
    "Scenario",
    "SweepSeries",
    "load_scenario",
    "load_scenario_file",
    "load_default_scenario",
    "default_scenario_text",
    "run_sweep",
]

UNIT_MODES = ("watt", "dbm")

# Grid values are rounded to this many decimals so step accumulation noise
# (e.g. 100 * 0.01 slightly exceeding 1.0) cannot break probability bounds.
_GRID_DECIMALS = 12

# Largest p_x grid a scenario may ask for. A series adds two float columns
# to the grid, about 64 bytes per point, so this bounds one near 61 MiB.
_MAX_GRID_POINTS = 1_000_000

# The keys each table may hold ("" is the top level); any other key is a
# ConfigError, so a misspelt key cannot silently leave a default in place.
_KEYS = {
    "": "label unit_mode env sensing pathloss sweep devices primary overheads".split(),
    "env": "bandwidth_hz noise_psd_dbm_hz carrier_ghz".split(),
    "sensing": "transmit_time_s sense_time_s p_inactive p_active p_false_alarm p_detection".split(),
    "pathloss": "los_probability combine".split(),
    "sweep": "start stop step".split(),
    "devices": "hrc_power mrc_power hrc_gains mrc_gains hrc_distances_m mrc_distances_m".split(),
    "primary": "power gain distance_m".split(),
    "overheads": "circuit_power sensing_power".split(),
}

# libyaml's loader when PyYAML was built with it: the same SafeConstructor
# and Resolver as SafeLoader, so the same document, parsed about 10x faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Scenario configuration problem, carrying the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Scenario:
    """Validated, immutable scenario ready for evaluation."""

    env: RadioEnvironment
    sensing: SensingProfile
    pairs: Tuple[DevicePair, ...]
    primary: PrimaryLink
    overheads: PowerOverheads
    los_probability: float
    sweep_grid: Tuple[float, ...]
    unit_mode: str = "watt"
    pathloss_combine: str = "db"
    label: str = "unnamed"
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for p_x in self.sweep_grid:
            _check_probability("p_x", p_x)

    def content_hash(self) -> str:
        """Stable hash of every field except ``notes``, each through its repr.

        Adding or removing a field of a component (``PrimaryLink``, ...)
        changes its repr, and with it the hash.
        """
        parts = [
            repr(self.env),
            repr(self.sensing),
            repr(self.pairs),
            repr(self.primary),
            repr(self.overheads),
            repr(self.los_probability),
            repr(self.sweep_grid),
            self.unit_mode,
            self.pathloss_combine,
            self.label,
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepSeries:
    """One (state, device, optimized) data series over the p_x grid, as columns.

    ``throughput_bps[i]`` and ``ee_bps_per_watt[i]`` are the per-pair means
    at ``p_x[i]``; the mean transmit power ``tx_power_w`` is one value for
    the whole series.
    """

    state: str
    device: str
    optimized: bool
    coupling: str
    p_x: Tuple[float, ...]
    throughput_bps: Tuple[float, ...]
    ee_bps_per_watt: Tuple[float, ...]
    tx_power_w: float
    infeasible_pairs: Tuple[int, ...] = ()
    sic_violations: int = 0

    @property
    def points(self) -> Tuple[MetricPoint, ...]:
        """The series as validated ``MetricPoint`` records, built on each access."""
        return tuple(
            MetricPoint(
                p_x=p_x,
                state=self.state,
                device=self.device,
                throughput_bps=throughput,
                ee_bps_per_watt=ee,
                tx_power_w=self.tx_power_w,
                optimized=self.optimized,
            )
            for p_x, throughput, ee in zip(self.p_x, self.throughput_bps, self.ee_bps_per_watt)
        )


def _reject_unknown_keys(table: Mapping, section: str) -> None:
    for key in table:
        if key not in _KEYS[section]:
            raise ConfigError(f"{section}.{key}" if section else str(key), "unknown key")


def _section(doc: Mapping, name: str, optional: bool = False) -> Mapping:
    value = doc.get(name)
    if value is None and optional:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(name, "missing or not a table")
    _reject_unknown_keys(value, name)
    return value


def _coerce_number(field: str, value) -> float:
    if isinstance(value, bool):
        raise ConfigError(field, f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    # YAML 1.1 floats need a signed exponent; "1.0e6" arrives as a string.
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(field, f"expected a number, got {value!r}")


def _number(table: Mapping, section: str, key: str, default=None) -> float:
    if key not in table:
        if default is not None:
            return default
        raise ConfigError(f"{section}.{key}", "missing required value")
    return _coerce_number(f"{section}.{key}", table[key])


def _number_list(table: Mapping, section: str, key: str) -> Optional[Tuple[float, ...]]:
    if key not in table:
        return None
    value = table[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{section}.{key}", "expected a non-empty list of numbers")
    return tuple(
        _coerce_number(f"{section}.{key}[{i}]", item) for i, item in enumerate(value)
    )


def _power_w(table: Mapping, section: str, key: str, unit_mode: str) -> float:
    raw = _number(table, section, key)
    if unit_mode == "watt":
        return raw
    try:
        return dbm_to_watt(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", str(exc)) from None


def _build_grid(start: float, stop: float, step: float) -> Tuple[float, ...]:
    for key, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"sweep.{key}", f"must be finite, got {value!r}")
    if step <= 0.0:
        raise ConfigError("sweep.step", f"must be > 0, got {step!r}")
    if stop < start:
        raise ConfigError("sweep.stop", "must be >= sweep.start")
    intervals = (stop - start) / step + 1e-9
    # Checked before anything is allocated; "not <" also rejects an overflow to inf.
    if not intervals < _MAX_GRID_POINTS:
        raise ConfigError(
            "sweep.step", f"grid would exceed {_MAX_GRID_POINTS} points (step {step!r})"
        )
    count = int(math.floor(intervals)) + 1
    return tuple(round(start + i * step, _GRID_DECIMALS) for i in range(count))


def _resolve_gains(
    section: str,
    gains: Optional[Tuple[float, ...]],
    distances: Optional[Tuple[float, ...]],
    carrier_ghz: float,
    los_probability: float,
    combine: str,
    notes: list,
) -> Tuple[Tuple[float, ...], Optional[Tuple[float, ...]]]:
    """Return (gains, distances-or-None) from exactly one of the two inputs."""
    if gains is not None and distances is not None:
        raise ConfigError(
            section, "give either explicit gains or distances, not both (ambiguous)"
        )
    if gains is None and distances is None:
        raise ConfigError(section, "either explicit gains or distances are required")
    if gains is not None:
        for i, g in enumerate(gains):
            if g <= 0.0 or not math.isfinite(g):
                raise ConfigError(f"{section}[{i}]", f"gain must be > 0, got {g!r}")
        return gains, None
    resolved = []
    for i, d in enumerate(distances):
        try:
            gain = power_gain(pathloss_average_db(d, carrier_ghz, los_probability, combine))
        except ValueError as exc:
            raise ConfigError(f"{section}[{i}]", str(exc)) from None
        resolved.append(gain)
    # Each distinct range note once per section, in first-seen order.
    notes.extend(
        dict.fromkeys(
            f"{section}: {note}" for d in distances for note in range_notes(d, carrier_ghz)
        )
    )
    return tuple(resolved), distances


def load_scenario(text: str, label: Optional[str] = None) -> Scenario:
    """Parse and validate a YAML scenario document."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"YAML parse failure: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ConfigError("<document>", "top level must be a mapping of sections")

    notes: list = []
    unit_mode = doc.get("unit_mode", "watt")
    if unit_mode not in UNIT_MODES:
        raise ConfigError("unit_mode", f"must be one of {UNIT_MODES}, got {unit_mode!r}")

    env_t = _section(doc, "env")
    try:
        env = RadioEnvironment(
            bandwidth_hz=_number(env_t, "env", "bandwidth_hz"),
            noise_psd_dbm_hz=_number(env_t, "env", "noise_psd_dbm_hz"),
            carrier_ghz=_number(env_t, "env", "carrier_ghz"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("env", str(exc)) from None
    # The noise power sits in every SINR denominator.
    try:
        noise_w = env.noise_w()
    except ValueError as exc:
        raise ConfigError("env.noise_psd_dbm_hz", str(exc)) from None
    if not 0.0 < noise_w < math.inf:
        raise ConfigError(
            "env.noise_psd_dbm_hz",
            f"noise power must be finite and > 0 W, got {noise_w!r}",
        )

    sens_t = _section(doc, "sensing")
    try:
        sensing = SensingProfile(
            t_transmit_s=_number(sens_t, "sensing", "transmit_time_s"),
            t_sense_s=_number(sens_t, "sensing", "sense_time_s"),
            p_inactive=_number(sens_t, "sensing", "p_inactive", 0.5),
            p_active=_number(sens_t, "sensing", "p_active", 0.5),
            p_false_alarm=_number(sens_t, "sensing", "p_false_alarm"),
            p_detection=_number(sens_t, "sensing", "p_detection"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("sensing", str(exc)) from None
    if not sensing.meets_regulatory_sensing():
        notes.append(
            "sensing: p_detection/p_false_alarm outside the regulatory "
            "envelope (p_d >= 0.9, p_f <= 0.1)"
        )

    pl_t = _section(doc, "pathloss", optional=True)
    if "los_probability" in pl_t:
        los_probability = _number(pl_t, "pathloss", "los_probability")
    else:
        los_probability = DEFAULT_LOS_PROBABILITY
        notes.append(f"pathloss.los_probability defaulted to {DEFAULT_LOS_PROBABILITY}")
    if not 0.0 <= los_probability <= 1.0:
        raise ConfigError(
            "pathloss.los_probability", f"must lie in [0, 1], got {los_probability!r}"
        )
    combine = pl_t.get("combine", "db")
    if combine not in ("db", "linear"):
        raise ConfigError("pathloss.combine", f"must be 'db' or 'linear', got {combine!r}")

    dev_t = _section(doc, "devices")
    hrc_power = _power_w(dev_t, "devices", "hrc_power", unit_mode)
    mrc_power = _power_w(dev_t, "devices", "mrc_power", unit_mode)
    hrc_gains, hrc_distances = _resolve_gains(
        "devices.hrc",
        _number_list(dev_t, "devices", "hrc_gains"),
        _number_list(dev_t, "devices", "hrc_distances_m"),
        env.carrier_ghz,
        los_probability,
        combine,
        notes,
    )
    mrc_gains, mrc_distances = _resolve_gains(
        "devices.mrc",
        _number_list(dev_t, "devices", "mrc_gains"),
        _number_list(dev_t, "devices", "mrc_distances_m"),
        env.carrier_ghz,
        los_probability,
        combine,
        notes,
    )
    if len(hrc_gains) != len(mrc_gains):
        raise ConfigError(
            "devices",
            f"HRC and MRC device counts must match (paired NOMA model), "
            f"got {len(hrc_gains)} vs {len(mrc_gains)}",
        )

    pairs = []
    for i in range(len(hrc_gains)):
        try:
            pair = DevicePair(
                hrc_power_w=hrc_power,
                mrc_power_w=mrc_power,
                hrc_gain=hrc_gains[i],
                mrc_gain=mrc_gains[i],
                hrc_distance_m=hrc_distances[i] if hrc_distances else None,
                mrc_distance_m=mrc_distances[i] if mrc_distances else None,
            )
        except ValueError as exc:
            raise ConfigError(f"devices[{i}]", str(exc)) from None
        pairs.append(pair)
        if not pair.sic_ordering_ok():
            notes.append(
                "devices[pair]: received HRC power does not exceed the paired MRC power "
                f"({pair.hrc_power_w * pair.hrc_gain:.3e} W <= "
                f"{pair.mrc_power_w * pair.mrc_gain:.3e} W); SIC ordering strained"
            )

    prim_t = _section(doc, "primary")
    prim_gain = None
    if "gain" in prim_t:
        prim_gain = (_number(prim_t, "primary", "gain"),)
    dist = None
    if "distance_m" in prim_t:
        dist = (_number(prim_t, "primary", "distance_m"),)
    gains, _ = _resolve_gains(
        "primary", prim_gain, dist, env.carrier_ghz, los_probability, combine, notes
    )
    try:
        primary = PrimaryLink(
            power_w=_power_w(prim_t, "primary", "power", unit_mode),
            gain=gains[0],
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("primary", str(exc)) from None

    over_t = _section(doc, "overheads")
    try:
        overheads = PowerOverheads(
            circuit_w=_power_w(over_t, "overheads", "circuit_power", unit_mode),
            sensing_w=_power_w(over_t, "overheads", "sensing_power", unit_mode),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("overheads", str(exc)) from None

    sweep_t = _section(doc, "sweep", optional=True)
    grid = _build_grid(
        _number(sweep_t, "sweep", "start", 0.0),
        _number(sweep_t, "sweep", "stop", 1.0),
        _number(sweep_t, "sweep", "step", 0.01),
    )

    # After the sections, so that a misspelt required section reads as missing.
    _reject_unknown_keys(doc, "")

    if not label:
        label = doc.get("label")
        if label is None:
            label = "unnamed"
        elif not isinstance(label, str):
            raise ConfigError("label", f"must be a string, got {label!r}")

    try:
        return Scenario(
            env=env,
            sensing=sensing,
            pairs=tuple(pairs),
            primary=primary,
            overheads=overheads,
            los_probability=los_probability,
            sweep_grid=grid,
            unit_mode=unit_mode,
            pathloss_combine=combine,
            label=label,
            notes=tuple(notes),
        )
    except ValueError as exc:
        # Scenario checks only the grid; the other fields are checked above.
        raise ConfigError("sweep", str(exc)) from None


def load_scenario_file(path: str) -> Scenario:
    """Load a scenario from a YAML file path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read scenario {path!r}: {exc}") from None
    return load_scenario(text)


def default_scenario_text() -> str:
    """Raw YAML of the bundled default scenario."""
    return resources.files("crnoma").joinpath("data/default.yaml").read_text("utf-8")


def load_default_scenario() -> Scenario:
    """The bundled default scenario (watt-mode nominal parameter set)."""
    return load_scenario(default_scenario_text())


def run_sweep(
    scenario: Scenario,
    state: str,
    device: str,
    optimized: bool,
    coupling: str = "nominal",
) -> SweepSeries:
    """Evaluate one data series over the scenario's p_x grid.

    For the optimized series, each pair's transmit power is replaced by its
    closed-form optimum; pairs whose optimization is infeasible keep their
    nominal power and are listed in ``infeasible_pairs``.  Headline values
    are per-pair means.

    Throughput is linear in p_x, so each pair's Shannon rate is computed
    once per series; every grid point then costs O(1) work per pair (one
    scaling and one addition). The series is stored as columns, so no
    per-point record is built.
    """
    if state not in STATES:
        raise ValueError(f"state must be one of {STATES}, got {state!r}")
    if device not in DEVICES:
        raise ValueError(f"device must be one of {DEVICES}, got {device!r}")
    _check_coupling(coupling)

    infeasible = []
    sic_violations = 0
    if optimized:
        optima = optimize_scenario(scenario, state, coupling)
        results = optima.hrc if device == HRC else optima.mrc
        hrc_powers = _coupled_hrc_powers(scenario.pairs, optima.hrc, coupling)
        pairs = []
        # Optimized powers routinely break the nominal SIC ordering; the
        # series records how often.
        for index, (pair, result) in enumerate(zip(scenario.pairs, results)):
            if not result.feasible:
                infeasible.append(index)
                pairs.append(pair)
                continue
            if device == HRC:
                new_pair = replace(pair, hrc_power_w=result.power_w)
            else:
                new_pair = replace(
                    pair, mrc_power_w=result.power_w, hrc_power_w=hrc_powers[index]
                )
            if not new_pair.sic_ordering_ok():
                sic_violations += 1
            pairs.append(new_pair)
        pairs = tuple(pairs)
    else:
        pairs = scenario.pairs

    # Plain running sums throughout: sum() rounds differently from Python
    # 3.12 on, and these totals must not depend on the interpreter.
    n = len(pairs)
    tx_total = 0.0
    for p in pairs:
        tx_total += p.hrc_power_w if device == HRC else p.mrc_power_w
    mean_tx = tx_total / n
    # energy_efficiency's checks on the transmit power, once per series.
    consumed = _consumed_power_w(mean_tx, scenario.overheads)

    sensing = scenario.sensing
    primary = scenario.primary if state == INTERFERENCE else None
    rates = _pair_rates(scenario.env, pairs, device, primary)
    duty = duty_factor(sensing)
    miss = _detection_term(sensing, state)
    bandwidth = scenario.env.bandwidth_hz

    # energy_efficiency's check that throughput is >= 0 holds by
    # construction: duty lies in (0, 1], p_x (checked by Scenario) and miss
    # in [0, 1], bandwidth is > 0, and each rate is log2(1 + S / D) with
    # S >= 0 and D > 0, so no product, sum or mean below is negative.
    throughputs = []
    for p_x in scenario.sweep_grid:
        # ((duty * p_x) * miss) * b * rate, summed in pair order: the
        # operation order of ``throughput`` on one pair, so every value
        # is bit-identical to evaluating it per pair and point.
        pb = duty * p_x * miss * bandwidth
        total = 0.0
        for r in rates:
            total += pb * r
        throughputs.append(total / n)

    return SweepSeries(
        state=state,
        device=device,
        optimized=optimized,
        coupling=coupling,
        p_x=scenario.sweep_grid,
        throughput_bps=tuple(throughputs),
        ee_bps_per_watt=tuple([mean / consumed for mean in throughputs]),
        tx_power_w=mean_tx,
        infeasible_pairs=tuple(infeasible),
        sic_violations=sic_violations,
    )
