"""Rewrite the golden CLI outputs in this directory from the current code.

Run from the repository root, with the bundled scenario (no CRNOMA_SCENARIO):

    PYTHONPATH=src python tests/golden/regenerate.py

It prints each file's sha256; copy any that moved into the GOLDEN_*_SHA256
constants of tests/test_cli.py.  A changed golden is a stated output change:
review it with ``git diff tests/golden``.

It then prints the sha256 of each ``crnoma sweep`` CSV of the bundled
scenario at ``sweep.step: 0.0001`` (10,001 rows, about 1 MB each), whose
digests alone are pinned in DENSE_SWEEP_SHA256; no file is written for them.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from crnoma.cli import main
from crnoma.scenario import default_scenario_text

GOLDEN_DIR = Path(__file__).resolve().parent
STATES = ("effectual", "interference")
COUPLINGS = ("nominal", "cascaded")


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
