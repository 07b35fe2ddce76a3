"""Scenario configuration, device-pair assembly, and p_x sweeps.

Scenarios are YAML documents with sections for the radio environment,
sensing profile, device pairs, primary link, and power overheads.  Device
gains are either given explicitly or derived from distances through the
pathloss model.  ``run_sweep`` regenerates the original/optimized data
series over a probability grid.
"""

from __future__ import annotations

import math
import reprlib
from functools import cached_property, partial
from typing import Callable, Mapping, NamedTuple, Optional, Tuple, TypeVar

import yaml

from .metrics import (
    HRC,
    INTERFERENCE,
    DevicePair,
    MetricPoint,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    SensingProfile,
    _base_denominator_w,
    _check_device,
    _check_positive,
    _check_probability,
    _check_state,
    _checked,
    _ee_overflow,
    _FLOAT_MIN,
    _gc_paused,
    _prefactor,
    _rate_sum,
    _scaled_rate_sum,
    _sic_ordering_holds,
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

# The tags whose SafeConstructor constructor builds a scalar and returns it;
# the others build a collection through a generator.  Each of these reads
# its node with construct_scalar first, so on a collection node it raises
# the error construct_object would.
_SCALAR_TAGS = frozenset(
    "tag:yaml.org,2002:" + name for name in "null bool int float str binary timestamp".split()
)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's loader when PyYAML was built with it, else SafeLoader.

    libyaml's has the same SafeConstructor and Resolver as SafeLoader, so it
    builds the same document, parsed about 10x faster.  A sequence builds
    each item tagged as a scalar with the constructor registered for its
    tag, skipping ``construct_object``'s per-node alias cache and recursion
    guard, which cost more than the constructor on a list of numbers: a
    scalar holds no node, so it cannot recurse, and an alias to it builds
    an equal value.  Any other item goes through ``construct_object``.
    """

    def construct_sequence(self, node, deep=False):
        if not isinstance(node, yaml.SequenceNode):
            return super().construct_sequence(node, deep)
        constructors = self.yaml_constructors
        construct_object = self.construct_object
        return [
            constructors[child.tag](self, child)
            if child.tag in _SCALAR_TAGS
            else construct_object(child, deep=deep)
            for child in node.value
        ]


_YAML_LOADER = _Loader

# Deepest collection nesting a document may have; a valid scenario has 3.
# Both loaders compose a document recursively: libyaml's crashes the
# process some 50,000 levels down, SafeLoader raises RecursionError at
# about 1,000.
_MAX_NESTING = 100

# A "-" opens a collection only as a block entry: followed by a blank, a
# line break or the end of the text (the "-" of a negative exponent is none).
# Both loaders reject a NUL, PyYAML's own end-of-text mark, before parsing.
_BLOCK_ENTRIES = tuple("-" + end for end in " \t\r\n\x85\u2028\u2029")

T = TypeVar("T")


class _ShortRepr(reprlib.Repr):
    def repr_int(self, x, level):
        # Over Python's int-to-str digit limit, repr itself raises ValueError.
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<{x.bit_length()}-bit integer>"


# Every rejected value is echoed through this, so a huge literal or a YAML
# alias chain that expands to millions of items stays a short message.
# Attributes, not keywords: Repr takes keywords only from Python 3.12.
_SHORT = _ShortRepr()
_SHORT.maxlevel = 2
_SHORT.maxtuple = _SHORT.maxlist = _SHORT.maxarray = _SHORT.maxdict = 4
_SHORT.maxset = _SHORT.maxfrozenset = _SHORT.maxdeque = 4
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 40


class ConfigError(ValueError):
    """Scenario configuration problem, carrying the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _check_unit_mode(unit_mode) -> None:
    if unit_mode not in UNIT_MODES:
        raise ConfigError("unit_mode", f"must be one of {UNIT_MODES}, got {_SHORT.repr(unit_mode)}")


def _named(field: str, build: Callable[..., T], *args, **kwargs) -> T:
    """Call ``build``; any ValueError it raises, even a ConfigError, is renamed ``field``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _named_map(section: str, build: Callable[..., T], *columns) -> Tuple[T, ...]:
    """``tuple(map(build, *columns))``; a ValueError at item i is renamed ``section[i]``.

    The name is formatted only when an item fails: a wide scenario runs
    these loops thousands of times per load.
    """
    built = []
    try:
        for item in map(build, *columns):
            built.append(item)
    except ValueError as exc:
        raise ConfigError(f"{section}[{len(built)}]", str(exc)) from None
    return tuple(built)


class _ScenarioFields(NamedTuple):
    env: RadioEnvironment
    sensing: SensingProfile
    pairs: Tuple[DevicePair, ...]
    primary: PrimaryLink
    overheads: PowerOverheads
    sweep_grid: Tuple[float, ...]
    unit_mode: str = "watt"
    label: str = "unnamed"
    notes: Tuple[str, ...] = ()


@_checked
class Scenario(_ScenarioFields):
    """Validated, immutable scenario ready for evaluation.

    Its fields are listed in a separate ``NamedTuple`` base because a
    ``NamedTuple`` class has ``__slots__ = ()``; this subclass has none, so
    the instance ``__dict__`` holds the ``_memo``, and
    ``__setattr__`` keeps every other attribute unassignable.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __post_init__(self) -> None:
        # Named as the YAML names them, so the loader raises these unwrapped.
        if not isinstance(self.label, str):
            raise ConfigError("label", f"must be a string, got {_SHORT.repr(self.label)}")
        _check_unit_mode(self.unit_mode)
        # Every series divides by the pair count and reads the first grid point.
        if not self.pairs:
            raise ConfigError("devices", "must hold at least one device pair")
        if not self.sweep_grid:
            raise ConfigError("sweep", "grid must hold at least one p_x value")
        for p_x in self.sweep_grid:
            if not 0.0 <= p_x <= 1.0:  # NaN too; only a bad value pays for the call
                _named("sweep", _check_probability, "p_x", p_x)

    def content_hash(self) -> str:
        """Stable hash of every field except ``notes``, each through its repr.

        Distances and pathloss weights count only through the gains they
        resolve to; a component's repr, and so the hash, tracks its fields.
        """
        import hashlib  # loads OpenSSL, so only callers that hash pay for it

        parts = [
            repr(self.env),
            repr(self.sensing),
            repr(self.pairs),
            repr(self.primary),
            repr(self.overheads),
            repr(self.sweep_grid),
            self.unit_mode,
            self.label,
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    @cached_property
    def _memo(self) -> dict:
        """Per-state results for this scenario, filled on demand.

        ``optimize_scenario`` keeps each state's HRC optima under ``state``
        and each ``ScenarioOptima`` under ``(state, coupling)``.
        Not a field, so ``repr``, ``==``, ``hash``, ``content_hash`` and
        ``_replace`` ignore it, and a replaced scenario starts empty.
        ``copy`` and ``pickle`` carry it with the instance ``__dict__``.
        Every field is frozen, so a stored result cannot go stale.
        """
        return {}


class SweepSeries(NamedTuple):
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


def _coerce_number(value) -> float:
    if type(value) is float:
        return value
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {_SHORT.repr(value)}")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            # Only an int can overflow; its digits would swamp the message, and
            # str() of it can pass Python's int-to-str limit.  n bits hold
            # floor(n * log10(2)) decimal digits or one more.
            magnitude = abs(value)
            digits = int(magnitude.bit_length() * math.log10(2.0))
            if 10**digits <= magnitude:
                digits += 1
            raise ValueError(f"integer too large for a float ({digits} digits)") from None
    # YAML 1.1 floats need a signed exponent; "1.0e6" arrives as a string.
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"expected a number, got {_SHORT.repr(value)}")


def _number(table: Mapping, section: str, key: str, default=None) -> float:
    if key not in table:
        if default is not None:
            return default
        raise ConfigError(f"{section}.{key}", "missing required value")
    return _named(f"{section}.{key}", _coerce_number, table[key])


def _number_list(table: Mapping, section: str, key: str) -> Optional[Tuple[float, ...]]:
    if key not in table:
        return None
    value = table[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{section}.{key}", "expected a non-empty list of numbers")
    return _named_map(f"{section}.{key}", _coerce_number, value)


def _power_w(table: Mapping, section: str, key: str, unit_mode: str) -> float:
    raw = _number(table, section, key)
    if unit_mode == "watt":
        return raw
    return _named(f"{section}.{key}", dbm_to_watt, raw)


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


def _nests_deeper_than(text: str, limit: int) -> bool:
    """Whether the document's collections nest more than ``limit`` deep.

    Every collection opens at one of ``[{?:`` (in a flow collection any
    ``:`` can open a single-pair mapping) or at a block entry ``-``, so
    their count bounds the depth; only a larger count pays for an exact
    count over the parser's events, which neither loader produces
    recursively.
    """
    openers = sum(map(text.count, "[{?:")) + sum(map(text.count, _BLOCK_ENTRIES))
    if openers + text.endswith("-") <= limit:
        return False
    depth = 0
    for event in yaml.parse(text, Loader=_YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > limit:
                return True
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return False


@_gc_paused()
def load_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document.

    The cyclic garbage collector is paused while the document is parsed and
    its records are built (``metrics._gc_paused``): it is left enabled or
    disabled as it was found, also when the load raises, and no value
    depends on it.
    """
    # PyYAML's constructors raise a plain ValueError for some scalars, such as
    # an integer literal over Python's int-to-str digit limit.
    try:
        if _nests_deeper_than(text, _MAX_NESTING):
            raise yaml.YAMLError(f"collections nest more than {_MAX_NESTING} levels deep")
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError("<document>", f"YAML parse failure: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ConfigError("<document>", "top level must be a mapping of sections")

    notes: list = []
    unit_mode = doc.get("unit_mode", "watt")
    _check_unit_mode(unit_mode)  # before any power is converted

    env_t = _section(doc, "env")
    env = _named(
        "env",
        RadioEnvironment,
        bandwidth_hz=_number(env_t, "env", "bandwidth_hz"),
        noise_psd_dbm_hz=_number(env_t, "env", "noise_psd_dbm_hz"),
        carrier_ghz=_number(env_t, "env", "carrier_ghz"),
    )
    # The noise power sits in every SINR denominator.
    noise_w = _named("env.noise_psd_dbm_hz", env.noise_w)
    if not 0.0 < noise_w < math.inf:
        raise ConfigError(
            "env.noise_psd_dbm_hz",
            f"noise power must be finite and > 0 W, got {noise_w!r}",
        )
    # A subnormal noise power carries few bits and underflows products in the solver.
    if noise_w < _FLOAT_MIN:
        raise ConfigError(
            "env.noise_psd_dbm_hz",
            f"noise power {noise_w!r} W is below the smallest normal float {_FLOAT_MIN!r}",
        )

    sens_t = _section(doc, "sensing")
    sensing_defaults = SensingProfile._field_defaults
    sensing = _named(
        "sensing",
        SensingProfile,
        t_transmit_s=_number(sens_t, "sensing", "transmit_time_s"),
        t_sense_s=_number(sens_t, "sensing", "sense_time_s"),
        p_inactive=_number(sens_t, "sensing", "p_inactive", sensing_defaults["p_inactive"]),
        p_active=_number(sens_t, "sensing", "p_active", sensing_defaults["p_active"]),
        p_false_alarm=_number(sens_t, "sensing", "p_false_alarm"),
        p_detection=_number(sens_t, "sensing", "p_detection"),
    )
    if not sensing.meets_regulatory_sensing():
        notes.append(
            "sensing: p_detection/p_false_alarm outside the regulatory "
            "envelope (p_d >= 0.9, p_f <= 0.1)"
        )

    # The LOS weight and combine rule only turn distances into gains.
    pl_t = _section(doc, "pathloss", optional=True)
    los_probability = _number(pl_t, "pathloss", "los_probability", DEFAULT_LOS_PROBABILITY)
    if "los_probability" not in pl_t:
        notes.append(f"pathloss.los_probability defaulted to {DEFAULT_LOS_PROBABILITY}")
    if not 0.0 <= los_probability <= 1.0:
        raise ConfigError(
            "pathloss.los_probability", f"must lie in [0, 1], got {los_probability!r}"
        )
    combine = pl_t.get("combine", "db")
    if combine not in ("db", "linear"):
        raise ConfigError(
            "pathloss.combine", f"must be 'db' or 'linear', got {_SHORT.repr(combine)}"
        )
    carrier_ghz = env.carrier_ghz

    def gain_at(distance_m: float) -> float:
        return power_gain(pathloss_average_db(distance_m, carrier_ghz, los_probability, combine))

    def resolve_gains(section, gains, distances) -> Tuple[float, ...]:
        """The section's gains, given directly or resolved from distances (not both)."""
        if gains is not None and distances is not None:
            raise ConfigError(
                section, "give either explicit gains or distances, not both (ambiguous)"
            )
        if gains is None and distances is None:
            raise ConfigError(section, "either explicit gains or distances are required")
        if gains is not None:
            _named_map(section, partial(_check_positive, "gain"), gains)
            return gains
        resolved = _named_map(section, gain_at, distances)
        # Each distinct range note once per section, in first-seen order.
        notes.extend(
            dict.fromkeys(
                f"{section}: {note}" for d in distances for note in range_notes(d, carrier_ghz)
            )
        )
        return resolved

    dev_t = _section(doc, "devices")
    hrc_power = _power_w(dev_t, "devices", "hrc_power", unit_mode)
    mrc_power = _power_w(dev_t, "devices", "mrc_power", unit_mode)
    hrc_gains = resolve_gains(
        "devices.hrc",
        _number_list(dev_t, "devices", "hrc_gains"),
        _number_list(dev_t, "devices", "hrc_distances_m"),
    )
    mrc_gains = resolve_gains(
        "devices.mrc",
        _number_list(dev_t, "devices", "mrc_gains"),
        _number_list(dev_t, "devices", "mrc_distances_m"),
    )
    if len(hrc_gains) != len(mrc_gains):
        raise ConfigError(
            "devices",
            f"HRC and MRC device counts must match (paired NOMA model), "
            f"got {len(hrc_gains)} vs {len(mrc_gains)}",
        )

    # Positional fields cost less than keywords, and there is one build per pair.
    pairs = _named_map("devices", partial(DevicePair, hrc_power, mrc_power), hrc_gains, mrc_gains)
    for pair in pairs:
        if not pair.sic_ordering_ok():
            notes.append(
                "devices[pair]: received HRC power does not exceed the paired MRC power "
                f"({pair.hrc_power_w * pair.hrc_gain:.3e} W <= "
                f"{pair.mrc_power_w * pair.mrc_gain:.3e} W); SIC ordering strained"
            )

    prim_t = _section(doc, "primary")
    prim_gain = (_number(prim_t, "primary", "gain"),) if "gain" in prim_t else None
    dist = (_number(prim_t, "primary", "distance_m"),) if "distance_m" in prim_t else None
    (gain,) = resolve_gains("primary", prim_gain, dist)
    primary = _named(
        "primary",
        PrimaryLink,
        power_w=_power_w(prim_t, "primary", "power", unit_mode),
        gain=gain,
    )

    over_t = _section(doc, "overheads")
    overheads = _named(
        "overheads",
        PowerOverheads,
        circuit_w=_power_w(over_t, "overheads", "circuit_power", unit_mode),
        sensing_w=_power_w(over_t, "overheads", "sensing_power", unit_mode),
    )

    sweep_t = _section(doc, "sweep", optional=True)
    grid = _build_grid(
        _number(sweep_t, "sweep", "start", 0.0),
        _number(sweep_t, "sweep", "stop", 1.0),
        _number(sweep_t, "sweep", "step", 0.01),
    )

    # After the sections, so that a misspelt required section reads as missing.
    _reject_unknown_keys(doc, "")

    label = doc.get("label")
    # Scenario checks the label and the grid, each as a named ConfigError.
    return Scenario(
        env=env,
        sensing=sensing,
        pairs=pairs,
        primary=primary,
        overheads=overheads,
        sweep_grid=grid,
        unit_mode=unit_mode,
        label="unnamed" if label is None else label,
        notes=tuple(notes),
    )


def load_scenario_file(path: str) -> Scenario:
    """Load a scenario from a YAML file path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read scenario {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so ``start`` is a file offset.
        raise ConfigError(
            "<file>",
            f"scenario {path!r} is not UTF-8: {exc.reason} at byte offset {exc.start}",
        ) from None
    return load_scenario(text)


def default_scenario_text() -> str:
    """Raw YAML of the bundled default scenario."""
    from importlib import resources  # a package resource, so zipped installs work

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
    are per-pair means.  The optima come from ``optimize_scenario``, which
    solves each (state, coupling) once per scenario, so later series of
    the same scenario reuse the same ``ScenarioOptima``.  The powers a
    series evaluates are held as HRC and MRC columns; no pair is copied.

    Throughput is linear in p_x, so the pairs' Shannon rates are summed and
    scaled by K = duty * miss * b once per series (``_scaled_rate_sum``),
    and each row costs one product and one division in ``throughput``'s
    operation order, p_x * (K * rate sum) / n, with n the pair count as a
    float (exact, so the quotient is the same): each throughput row equals
    ``throughput(sensing with p_x, ...) / n`` bit for bit.  When K * rate
    sum overflows, the series raises ``throughput``'s ValueError, whatever
    the grid.  The series is stored as columns, so no per-point record is
    built.
    """
    _check_state(state)
    _check_device(device)
    _check_coupling(coupling)

    pairs = scenario.pairs
    hrc_powers = [p.hrc_power_w for p in pairs]
    mrc_powers = [p.mrc_power_w for p in pairs]
    powers = hrc_powers if device == HRC else mrc_powers
    infeasible = []
    sic_violations = 0
    if optimized:
        optima = optimize_scenario(scenario, state, coupling)
        coupled = _coupled_hrc_powers(pairs, optima.hrc, coupling)
        # No DevicePair is built for the optimized powers, and none needs
        # its checks: _closed_forms marks a result feasible only if its power
        # is finite and > 0, and every other power is a validated nominal one.
        # A feasible pair takes the coupled HRC power, then the device's own
        # optimum (``ScenarioOptima`` names its fields by device), which in an
        # HRC series replaces the coupled one.  Optimized powers routinely
        # break the nominal SIC ordering; the series records how often.
        for index, (pair, result) in enumerate(zip(pairs, getattr(optima, device))):
            if not result.feasible:
                infeasible.append(index)
                continue
            hrc_powers[index] = coupled[index]
            powers[index] = result.power_w
            if not _sic_ordering_holds(
                hrc_powers[index], pair.hrc_gain, mrc_powers[index], pair.mrc_gain
            ):
                sic_violations += 1

    n = len(pairs)
    # Every division by the pair count below uses this float, one rule for
    # all three: any n below 2**53 converts to a double exactly, so x / count
    # is the correctly rounded x / n, bit for bit.
    count = float(n)
    # A plain running sum, as in ``_rate_sum``.
    tx_total = 0.0
    for power in powers:
        tx_total += power
    # Each power is finite, so only their sum can reach inf.
    if tx_total == math.inf:
        raise ValueError(f"sum of the {n} pairs' {device} transmit powers overflows to inf")
    mean_tx = tx_total / count
    consumed = mean_tx + scenario.overheads.total_w

    base = _base_denominator_w(scenario.env, scenario.primary if state == INTERFERENCE else None)
    _, kappa_b = _prefactor(scenario.sensing, scenario.env, state)
    scaled = _scaled_rate_sum(device, kappa_b, _rate_sum(device, base, pairs, hrc_powers, powers))
    grid = scenario.sweep_grid

    # p_x * (K * rate sum) / n: the operation order of ``throughput``.
    # energy_efficiency's check that throughput is >= 0 holds by
    # construction: duty lies in (0, 1], p_x (checked by Scenario) and miss
    # in [0, 1], bandwidth is > 0, and each rate is log2(1 + S / D) with
    # S >= 0 and D > 0.  The divisor is ``count``, not n: CPython has no
    # fast path for a float divided by an int and converts the int on every
    # row, and count == n exactly, so every row is unchanged.
    throughputs = [p_x * scaled / count for p_x in grid]
    # Every p_x is at most 1, so every row is at most scaled / n and every
    # EE at most that over ``consumed``; only when that bound overflows is
    # the largest row checked.
    if scaled / count / consumed == math.inf:
        peak = max(throughputs)
        if peak / consumed == math.inf:
            raise ValueError(
                f"{device} energy efficiency overflows to inf: {peak!r} bps over {consumed!r} W"
            )
    # An inf consumed power would make every EE 0.0.
    if consumed == math.inf:
        raise _ee_overflow(max(throughputs), consumed)

    return SweepSeries(
        state=state,
        device=device,
        optimized=optimized,
        coupling=coupling,
        p_x=grid,
        throughput_bps=tuple(throughputs),
        ee_bps_per_watt=tuple([mean / consumed for mean in throughputs]),
        tx_power_w=mean_tx,
        infeasible_pairs=tuple(infeasible),
        sic_violations=sic_violations,
    )
