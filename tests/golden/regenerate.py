"""Rewrite the golden CLI outputs in this directory from the current code.

Run from the repository root, with the bundled scenario (no CRNOMA_SCENARIO):

    PYTHONPATH=src python tests/golden/regenerate.py

It prints each file's sha256; copy any that moved into the GOLDEN_*_SHA256
constants of tests/test_cli.py.  A changed golden is a stated output change:
review it with ``git diff tests/golden``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from crnoma.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
STATES = ("effectual", "interference")
COUPLINGS = ("nominal", "cascaded")


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if main(argv) != 0:
            raise SystemExit(f"crnoma {' '.join(argv)} failed")
    return buffer.getvalue().encode("utf-8")


def golden_outputs():
    """Yield (file name, bytes) for every golden output, in a fixed order."""
    for state in STATES:
        for device in ("hrc", "mrc"):
            for coupling in COUPLINGS:
                argv = ["sweep", "--state", state, "--device", device, "--coupling", coupling]
                yield f"sweep_{state}_{device}_{coupling}.csv", _stdout(argv)
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
