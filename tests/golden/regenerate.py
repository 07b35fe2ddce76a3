"""Rewrite the golden CLI outputs in this directory from the current code.

Run from the repository root, with the bundled scenario (no CRNOMA_SCENARIO):

    PYTHONPATH=src python tests/golden/regenerate.py

It prints each file's sha256; copy any that moved into the GOLDEN_*_SHA256
constants of tests/test_cli.py.  A changed golden is a stated output change:
review it with ``git diff tests/golden``.

It then prints the sha256 of each ``crnoma sweep`` CSV of the bundled
scenario at ``sweep.step: 0.0001`` (10,001 rows, about 1 MB each), whose
digests alone are pinned in DENSE_SWEEP_SHA256, and the digests pinned in
WIDE_SHA256: for ``wide_scenario_text`` under each combine rule, its
``Scenario.notes``, its 4 ``crnoma optimize --out`` tables and its 8
one-point ``crnoma sweep`` CSVs.  No file is written for either set.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

from crnoma.cli import main
from crnoma.scenario import default_scenario_text, load_scenario_file

GOLDEN_DIR = Path(__file__).resolve().parent
STATES = ("effectual", "interference")
COUPLINGS = ("nominal", "cascaded")
COMBINES = ("db", "linear")
WIDE_PAIRS = 3000
WIDE_SEED = 3000


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if main(argv) != 0:
            raise SystemExit(f"crnoma {' '.join(argv)} failed")
    return buffer.getvalue().encode("utf-8")


def _sweeps(scenario=()):
    """Yield (state, device, coupling, CSV bytes) for all 8 sweep series."""
    for state in STATES:
        for device in ("hrc", "mrc"):
            for coupling in COUPLINGS:
                argv = ["sweep", *scenario, "--state", state, "--device", device]
                argv += ["--coupling", coupling]
                yield state, device, coupling, _stdout(argv)


def dense_sweep_outputs():
    """Yield (series name, CSV bytes) of the 8 sweeps at sweep.step 0.0001."""
    text = default_scenario_text()
    if text.count("step: 0.01\n") != 1:
        raise SystemExit("the bundled scenario no longer holds one 'step: 0.01' line")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dense.yaml"
        path.write_text(text.replace("step: 0.01\n", "step: 0.0001\n"), "utf-8")
        for state, device, coupling, data in _sweeps([str(path)]):
            yield f"dense {state} {device} {coupling}", data


def wide_scenario_text(combine):
    """The bundled scenario's values with 3,000 pairs at seeded distances and one p_x.

    About 1% of the distances lie below the pathloss model's 10 m floor and
    1% above its 2,000 m ceiling, so the load records range notes.  Both
    combine rules draw the same distances.
    """
    rng = random.Random(WIDE_SEED)

    def distance():
        u = rng.random()
        if u < 0.01:
            return rng.uniform(5.0, 9.9)
        if u < 0.02:
            return rng.uniform(2000.5, 2500.0)
        return rng.uniform(10.0, 2000.0)

    def distances():
        return "[" + ", ".join(f"{distance():.2f}" for _ in range(WIDE_PAIRS)) + "]"

    hrc, mrc = distances(), distances()
    return (
        f"label: wide_{combine}\n"
        "unit_mode: watt\n"
        "env: {bandwidth_hz: 1.0e+6, noise_psd_dbm_hz: -174.0, carrier_ghz: 5.0}\n"
        "sensing: {transmit_time_s: 0.125e-3, sense_time_s: 0.125e-3, p_inactive: 0.5,\n"
        "  p_active: 0.5, p_false_alarm: 0.1, p_detection: 0.9}\n"
        f"pathloss: {{los_probability: 0.5, combine: {combine}}}\n"
        "sweep: {start: 0.5, stop: 0.5, step: 0.01}\n"
        "devices:\n"
        "  hrc_power: 0.7\n"
        "  mrc_power: 0.3\n"
        f"  hrc_distances_m: {hrc}\n"
        f"  mrc_distances_m: {mrc}\n"
        "primary: {power: 50.0, distance_m: 2000.0}\n"
        "overheads: {circuit_power: 99.0, sensing_power: 1.0}\n"
    )


def wide_outputs():
    """Yield (name, bytes) for each output of the wide scenario pinned in WIDE_SHA256."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.yaml"
        out = Path(tmp) / "optima.csv"
        for combine in COMBINES:
            path.write_text(wide_scenario_text(combine), "utf-8")
            notes = load_scenario_file(str(path)).notes
            yield f"wide {combine} notes", "".join(f"{note}\n" for note in notes).encode("utf-8")
            for state in STATES:
                for coupling in COUPLINGS:
                    argv = ["optimize", str(path), "--state", state, "--coupling", coupling]
                    _stdout(argv + ["--out", str(out)])
                    yield f"wide {combine} optimize {state} {coupling}", out.read_bytes()
            for state, device, coupling, data in _sweeps([str(path)]):
                yield f"wide {combine} sweep {state} {device} {coupling}", data


def golden_outputs():
    """Yield (file name, bytes) for every golden output, in a fixed order."""
    for state, device, coupling, data in _sweeps():
        yield f"sweep_{state}_{device}_{coupling}.csv", data
    yield "validate.txt", _stdout(["validate", "--trials", "1000", "--seed", "0"])
    yield "validate_trials8000_seed7.txt", _stdout(["validate", "--trials", "8000", "--seed", "7"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "optima.csv"
        for state in STATES:
            for coupling in COUPLINGS:
                argv = ["optimize", "--state", state, "--coupling", coupling]
                yield f"optimize_{state}_{coupling}.txt", _stdout(argv)
                _stdout(argv + ["--out", str(out)])
                yield f"optimize_{state}_{coupling}.csv", out.read_bytes()


if __name__ == "__main__":
    if "CRNOMA_SCENARIO" in os.environ:
        sys.exit("unset CRNOMA_SCENARIO: the goldens use the bundled scenario")
    for name, data in golden_outputs():
        (GOLDEN_DIR / name).write_bytes(data)
        print(hashlib.sha256(data).hexdigest(), name)
    for name, data in dense_sweep_outputs():
        print(hashlib.sha256(data).hexdigest(), name)
    for name, data in wide_outputs():
        print(hashlib.sha256(data).hexdigest(), name)
