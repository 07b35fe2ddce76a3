"""Run the crnoma CLI with spans installed, for the traced ``cli_cold`` run.

Usage: python cli_child.py STATS.json CLI-ARGS...

Behaves like ``python -m crnoma.cli CLI-ARGS...`` (same outputs, same exit
code) and writes the span totals of the invocation to STATS.json.
"""

import json
import sys

import spans


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import crnoma.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return tracer.span("cli.main", crnoma.cli.main)(argv)
    finally:
        tracer.fold()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
