"""Set-up probe: a fresh interpreter gets ready for a workload's first op.

Usage: python probe.py {cli|scenario|text} FILE...

Imports the package (``crnoma.cli`` for ``cli``), then loads each scenario
file (``cli``, ``scenario``) or only reads it (``text``, whose parse is
part of the op), and prints ``ready``. The caller times start to ``ready``.
"""

import sys


def main() -> int:
    mode, paths = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        import crnoma.cli  # noqa: F401
    import crnoma.scenario

    for path in paths:
        if mode == "text":
            with open(path, encoding="utf-8") as fh:
                fh.read()
        else:
            crnoma.scenario.load_scenario_file(path)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
