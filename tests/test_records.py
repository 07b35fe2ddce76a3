"""The record contract: immutable, checked NamedTuples with stable reprs."""

import copy
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import crnoma
from crnoma import (
    DevicePair,
    MetricPoint,
    OptProblem,
    PowerOverheads,
    PrimaryLink,
    RadioEnvironment,
    Scenario,
    SensingProfile,
    load_default_scenario,
    optimize_scenario,
    run_sweep,
)

# A valid record of each checked class, with one invalid change per check,
# in the order ``__post_init__`` runs them, and the message it raises.
CHECKED = {
    SensingProfile: (
        SensingProfile(1e-3, 1e-3),
        [
            ({"t_transmit_s": 0.0}, "t_transmit_s must be > 0, got 0.0"),
            ({"t_sense_s": -1.0}, "t_sense_s must be >= 0, got -1.0"),
            ({"p_inactive": 1.5}, "p_inactive must be a probability in [0, 1], got 1.5"),
            ({"p_active": math.nan}, "p_active must be a probability in [0, 1], got nan"),
            ({"p_false_alarm": -0.1}, "p_false_alarm must be a probability in [0, 1], got -0.1"),
            ({"p_detection": math.inf}, "p_detection must be a probability in [0, 1], got inf"),
            (
                {"t_transmit_s": 1e308, "t_sense_s": 1e308},
                "t_transmit_s + t_sense_s must be finite, got inf",
            ),
        ],
    ),
    RadioEnvironment: (
        RadioEnvironment(1e6, -174.0, 5.0),
        [
            ({"bandwidth_hz": 0.0}, "bandwidth_hz must be > 0, got 0.0"),
            ({"noise_psd_dbm_hz": -math.inf}, "noise_psd_dbm_hz must be finite"),
            ({"carrier_ghz": math.nan}, "carrier_ghz must be > 0, got nan"),
        ],
    ),
    DevicePair: (
        DevicePair(0.7, 0.3, 1e-13, 8e-14),
        [
            ({"hrc_power_w": -1.0}, "hrc_power_w must be >= 0, got -1.0"),
            ({"mrc_power_w": math.inf}, "mrc_power_w must be >= 0, got inf"),
            ({"hrc_gain": 0.0}, "hrc_gain must be > 0, got 0.0"),
            ({"mrc_gain": math.nan}, "mrc_gain must be > 0, got nan"),
        ],
    ),
    PrimaryLink: (
        PrimaryLink(50.0, 1.5e-14),
        [
            ({"power_w": -0.5}, "power_w must be >= 0, got -0.5"),
            ({"gain": math.inf}, "gain must be > 0, got inf"),
        ],
    ),
    PowerOverheads: (
        PowerOverheads(99.0, 1.0),
        [
            ({"circuit_w": -1.0}, "circuit_w must be >= 0, got -1.0"),
            ({"sensing_w": math.nan}, "sensing_w must be >= 0, got nan"),
            ({"circuit_w": 0.0, "sensing_w": 0.0}, "circuit_w + sensing_w must be > 0"),
            (
                {"circuit_w": 1e308, "sensing_w": 1e308},
                "circuit_w + sensing_w must be finite, got inf",
            ),
        ],
    ),
    MetricPoint: (
        MetricPoint(0.5, "effectual", "hrc", 1.0, 0.01, 0.7, False),
        [
            (
                {"state": "idle"},
                "state must be one of ('effectual', 'interference'), got 'idle'",
            ),
            ({"device": "lrc"}, "device must be one of ('hrc', 'mrc'), got 'lrc'"),
            ({"p_x": 1.5}, "p_x must be a probability in [0, 1], got 1.5"),
            ({"throughput_bps": -1.0}, "throughput_bps must be >= 0"),
        ],
    ),
    OptProblem: (
        OptProblem(1e-13, 1e-15, PowerOverheads(99.0, 1.0)),
        [
            ({"gain": 0.0}, "gain must be > 0, got 0.0"),
            ({"denom_power_w": math.inf}, "denom_power_w must be > 0, got inf"),
            (
                {"denom_power_w": 5e-324},
                "denom_power_w 5e-324 is below the smallest normal float "
                "2.2250738585072014e-308",
            ),
        ],
    ),
    Scenario: (
        load_default_scenario(),
        [
            ({"label": ["a"]}, "label: must be a string, got ['a']"),
            (
                {"unit_mode": "joules"},
                "unit_mode: must be one of ('watt', 'dbm'), got 'joules'",
            ),
            ({"pairs": ()}, "devices: must hold at least one device pair"),
            ({"sweep_grid": ()}, "sweep: grid must hold at least one p_x value"),
            (
                {"sweep_grid": (0.0, 2.0)},
                "sweep: p_x must be a probability in [0, 1], got 2.0",
            ),
        ],
    ),
}

# The records built per oracle draw and per pair check each field inline
# and call the named check only to raise: each numeric field's bound, and
# the message for NaN, inf and the largest negative float against it.
FIELD_BOUNDS = {
    OptProblem: {"gain": "> 0", "denom_power_w": "> 0"},
    PowerOverheads: {"circuit_w": ">= 0", "sensing_w": ">= 0"},
    DevicePair: {
        "hrc_power_w": ">= 0",
        "mrc_power_w": ">= 0",
        "hrc_gain": "> 0",
        "mrc_gain": "> 0",
    },
}
BAD_VALUES = [
    (cls, {field: value}, f"{field} must be {bound}, got {value!r}")
    for cls, bounds in FIELD_BOUNDS.items()
    for field, bound in bounds.items()
    for value in (math.nan, math.inf, -5e-324)
] + [
    # With two bad fields, the first field's message wins.
    (OptProblem, {"gain": -1.0, "denom_power_w": math.nan}, "gain must be > 0, got -1.0"),
    (
        OptProblem,
        {"gain": math.inf, "denom_power_w": 5e-324},
        "gain must be > 0, got inf",
    ),
    (
        PowerOverheads,
        {"circuit_w": math.nan, "sensing_w": -1.0},
        "circuit_w must be >= 0, got nan",
    ),
    (
        DevicePair,
        {"mrc_power_w": math.inf, "hrc_gain": math.nan},
        "mrc_power_w must be >= 0, got inf",
    ),
    (DevicePair, {"hrc_gain": 0.0, "mrc_gain": -1.0}, "hrc_gain must be > 0, got 0.0"),
]

CASES = [
    pytest.param(cls, change, message, id=f"{cls.__name__}-{'-'.join(change)}")
    for cls, (_, invalid) in CHECKED.items()
    for change, message in invalid
] + [
    pytest.param(
        cls,
        change,
        message,
        id=f"{cls.__name__}-" + "-".join(f"{k}={v!r}" for k, v in change.items()),
    )
    for cls, change, message in BAD_VALUES
]

# Each checked record's TypeError texts for a call with no arguments and for
# an unknown keyword: they name the record whose constructor was misused.
TYPE_ERRORS = {
    SensingProfile: (
        "SensingProfile.__new__() missing 2 required positional arguments: "
        "'t_transmit_s' and 't_sense_s'",
        "SensingProfile.__new__() got an unexpected keyword argument 'bogus'",
    ),
    RadioEnvironment: (
        "RadioEnvironment.__new__() missing 3 required positional arguments: "
        "'bandwidth_hz', 'noise_psd_dbm_hz', and 'carrier_ghz'",
        "RadioEnvironment.__new__() got an unexpected keyword argument 'bogus'",
    ),
    DevicePair: (
        "DevicePair.__new__() missing 4 required positional arguments: "
        "'hrc_power_w', 'mrc_power_w', 'hrc_gain', and 'mrc_gain'",
        "DevicePair.__new__() got an unexpected keyword argument 'bogus'",
    ),
    PrimaryLink: (
        "PrimaryLink.__new__() missing 2 required positional arguments: 'power_w' and 'gain'",
        "PrimaryLink.__new__() got an unexpected keyword argument 'bogus'",
    ),
    PowerOverheads: (
        "PowerOverheads.__new__() missing 2 required positional arguments: "
        "'circuit_w' and 'sensing_w'",
        "PowerOverheads.__new__() got an unexpected keyword argument 'bogus'",
    ),
    MetricPoint: (
        "MetricPoint.__new__() missing 7 required positional arguments: 'p_x', 'state', "
        "'device', 'throughput_bps', 'ee_bps_per_watt', 'tx_power_w', and 'optimized'",
        "MetricPoint.__new__() got an unexpected keyword argument 'bogus'",
    ),
    OptProblem: (
        "OptProblem.__new__() missing 3 required positional arguments: "
        "'gain', 'denom_power_w', and 'overheads'",
        "OptProblem.__new__() got an unexpected keyword argument 'bogus'",
    ),
    Scenario: (
        "Scenario.__new__() missing 6 required positional arguments: "
        "'env', 'sensing', 'pairs', 'primary', 'overheads', and 'sweep_grid'",
        "Scenario.__new__() got an unexpected keyword argument 'bogus'",
    ),
}

# The default scenario's component reprs, written out from the frozen
# dataclasses these records replaced: ``content_hash`` hashes them, so every
# CSV's ``# scenario_hash`` line depends on them byte for byte.
DEFAULT_REPRS = {
    "env": "RadioEnvironment(bandwidth_hz=1000000.0, noise_psd_dbm_hz=-174.0, carrier_ghz=5.0)",
    "sensing": (
        "SensingProfile(t_transmit_s=0.000125, t_sense_s=0.000125, p_inactive=0.5, "
        "p_active=0.5, p_false_alarm=0.1, p_detection=0.9)"
    ),
    "pairs": (
        "(DevicePair(hrc_power_w=0.7, mrc_power_w=0.3, hrc_gain=6.606509029131798e-14, "
        "mrc_gain=5.223303376839058e-14), "
        "DevicePair(hrc_power_w=0.7, mrc_power_w=0.3, hrc_gain=4.2022627670898534e-14, "
        "mrc_gain=3.431951522802008e-14), "
        "DevicePair(hrc_power_w=0.7, mrc_power_w=0.3, hrc_gain=2.8397286360734464e-14, "
        "mrc_gain=2.376847980308886e-14), "
        "DevicePair(hrc_power_w=0.7, mrc_power_w=0.3, hrc_gain=2.0097599504015565e-14, "
        "mrc_gain=1.7148540806856825e-14), "
        "DevicePair(hrc_power_w=0.7, mrc_power_w=0.3, hrc_gain=1.4751831828189555e-14, "
        "mrc_gain=1.4751831828189555e-14))"
    ),
    "primary": "PrimaryLink(power_w=50.0, gain=1.4751831828189555e-14)",
    "overheads": "PowerOverheads(circuit_w=99.0, sensing_w=1.0)",
}


@pytest.mark.parametrize("cls, change, message", CASES)
def test_invalid_field_raises_at_construction_and_through_replace(cls, change, message):
    valid = CHECKED[cls][0]
    with pytest.raises(ValueError) as built:
        cls(**{**valid._asdict(), **change})
    with pytest.raises(ValueError) as replaced:
        valid._replace(**change)
    assert str(built.value) == str(replaced.value) == message
    # copy.replace, new in Python 3.13, calls the NamedTuple's __replace__.
    if sys.version_info >= (3, 13):
        with pytest.raises(ValueError) as copied:
            copy.replace(valid, **change)
        assert str(copied.value) == message


@pytest.mark.parametrize("cls", list(CHECKED), ids=lambda cls: cls.__name__)
def test_checked_record_is_an_immutable_tuple(cls):
    valid = CHECKED[cls][0]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(valid, name, getattr(valid, name))
    # ``__new__`` takes the fields in order, with the NamedTuple's defaults.
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == list(cls._fields)
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    assert defaults == cls._field_defaults
    assert valid._replace() == valid == cls(*valid) == cls._make(valid)
    assert type(valid._replace()) is cls


@pytest.mark.parametrize("cls", list(TYPE_ERRORS), ids=lambda cls: cls.__name__)
def test_constructor_type_errors_name_the_record(cls):
    missing, unexpected = TYPE_ERRORS[cls]
    with pytest.raises(TypeError) as no_arguments:
        cls()
    assert str(no_arguments.value) == missing
    with pytest.raises(TypeError) as bad_keyword:
        cls(*CHECKED[cls][0], bogus=1)
    assert str(bad_keyword.value) == unexpected


def test_every_public_checked_record_is_decorated_and_tested():
    # A record that forgets @_checked would build without running its
    # checks; one missing from CHECKED would have no invalid-input cases.
    public = [getattr(crnoma, name) for name in crnoma.__all__]
    checked = [
        obj
        for obj in public
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "__post_init__")
    ]
    assert set(checked) == set(CHECKED) == set(TYPE_ERRORS)
    for cls in checked:
        assert CHECKED[cls][1], cls.__name__
        assert vars(cls)["__new__"].__qualname__ == f"{cls.__name__}.__new__"


def test_default_scenario_reprs_are_unchanged(default_scenario):
    for name, text in DEFAULT_REPRS.items():
        assert repr(getattr(default_scenario, name)) == text, name
    assert default_scenario.content_hash() == "67fb6b13507b44ab"


def test_replaced_scenario_memo_starts_empty():
    scenario = load_default_scenario()
    optimize_scenario(scenario, "effectual")
    run_sweep(scenario, "interference", "mrc", False)
    # Only the optima are kept; a sweep stores nothing of its own.
    assert set(scenario._memo) == {"effectual", ("effectual", "nominal")}
    relabelled = scenario._replace(label="x")
    assert relabelled._memo == {}
    # copy and pickle carry the memo with the instance __dict__.
    for duplicate in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert repr(duplicate(scenario)._memo) == repr(scenario._memo)
    # The memo is not a field, and no attribute can be set from outside.
    with pytest.raises(AttributeError):
        scenario._memo = {}
    with pytest.raises(AttributeError):
        scenario.extra = 1
    with pytest.raises(AttributeError):
        del scenario.label


@pytest.mark.parametrize("cls", [SensingProfile, DevicePair], ids=lambda cls: cls.__name__)
def test_builds_go_through_post_init(monkeypatch, cls):
    # The benchmark counts builds by wrapping exactly this method.
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    scenario = load_default_scenario()
    expected = 1 if cls is SensingProfile else len(scenario.pairs)
    assert len(calls) == expected
    valid = CHECKED[cls][0]
    cls(*valid)
    valid._replace()
    assert len(calls) == expected + 2
    # copy and pickle rebuild through __new__ (via __getnewargs__), so they check too.
    for duplicate in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        before = len(calls)
        duplicated = duplicate(valid)
        assert len(calls) == before + 1
        assert duplicated == valid
        assert type(duplicated) is cls


def _fresh_process_json(code):
    """Run ``code`` in a fresh interpreter on this package and decode its JSON output."""
    src = str(Path(crnoma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout)


def _modules_added_by(module):
    # ``before`` is taken first, so what ``site`` preloads does not count.
    return _fresh_process_json(
        f"import json, sys; before = set(sys.modules); import {module}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )


def test_cli_import_loads_no_dataclasses():
    # Importing ``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) and
    # exec-compiling each record's methods cost a fresh CLI process ~20 ms.
    added = _modules_added_by("crnoma.cli")
    assert "crnoma.cli" in added
    assert "dataclasses" not in added


@pytest.mark.parametrize("module", ["crnoma", "crnoma.scenario"])
def test_package_import_loads_only_what_computing_needs(module):
    # Only validate needs the validation suite (~5 ms), only content_hash
    # hashlib (~5 ms), only the bundled YAML importlib.resources and only
    # --out tempfile.
    added = _modules_added_by(module)
    assert module in added
    deferred = {"crnoma.validation", "hashlib", "_hashlib", "importlib.resources", "tempfile"}
    assert deferred.isdisjoint(added)


def test_validation_names_load_on_first_access():
    loaded_by_import, names, loaded_by_star = _fresh_process_json(
        "import json, sys; import crnoma; "
        "loaded = 'crnoma.validation' in sys.modules; "
        "names = {}; exec('from crnoma import *', names); del names['__builtins__']; "
        "print(json.dumps([loaded, sorted(names), 'crnoma.validation' in sys.modules]))"
    )
    assert (loaded_by_import, loaded_by_star) == (False, True)
    assert names == sorted(crnoma.__all__)
    assert len(names) == 43
    from crnoma import validation

    for name in ("CheckResult", "ValidationReport", "run_validation"):
        assert getattr(crnoma, name) is getattr(validation, name)
    assert set(crnoma.__all__) <= set(dir(crnoma))
    with pytest.raises(AttributeError, match="module 'crnoma' has no attribute 'no_such_name'"):
        crnoma.no_such_name
