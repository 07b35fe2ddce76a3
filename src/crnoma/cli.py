"""Command-line front end: sweeps, single-point optimization, pathloss
queries, and the validation suite.

Exit codes: 0 success (including informational infeasible rows), 1 any
validation failure, 2 configuration/usage error, 3 numeric domain error.
CSV output is byte-deterministic for a given scenario and flags, and files
are written atomically (write to a temp file, then rename).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import List, Optional

from .metrics import DEVICES, STATES, improvement_percent
from .optimizer import optimize_scenario
from .pathloss import (
    pathloss_average_db,
    pathloss_los_db,
    pathloss_nlos_db,
    power_gain,
    range_notes,
)
from .scenario import (
    ConfigError,
    Scenario,
    SweepSeries,
    load_default_scenario,
    load_scenario_file,
    run_sweep,
)
from .validation import run_validation

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

SCENARIO_ENV_VAR = "CRNOMA_SCENARIO"

_NUM_FMT = "{:.12e}"
# One sweep CSV row: p_x, both throughputs, both EEs, improvement percent.
_SWEEP_ROW = ",".join([_NUM_FMT] * 6).format


def _load(scenario_path: Optional[str]) -> Scenario:
    if scenario_path is None:
        scenario_path = os.environ.get(SCENARIO_ENV_VAR)
    if scenario_path is None:
        return load_default_scenario()
    return load_scenario_file(scenario_path)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".crnoma-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _fmt(value: float) -> str:
    return _NUM_FMT.format(value)


def _sweep_csv(
    scenario: Scenario, original: SweepSeries, optimized: SweepSeries
) -> str:
    lines = [
        f"# scenario_hash: {scenario.content_hash()}",
        f"# scenario_label: {scenario.label}",
        f"# unit_mode: {scenario.unit_mode}",
        f"# state: {original.state}",
        f"# device: {original.device}",
        f"# coupling: {optimized.coupling}",
        f"# infeasible_pairs: {len(optimized.infeasible_pairs)}",
        "# improvement_basis: energy_efficiency",
        "p_x,throughput_bps_original,throughput_bps_optimized,ee_original,ee_optimized,improvement_pct",
    ]
    for p_x, tp_orig, tp_opt, ee_orig, ee_opt in zip(
        original.p_x,
        original.throughput_bps,
        optimized.throughput_bps,
        original.ee_bps_per_watt,
        optimized.ee_bps_per_watt,
    ):
        if ee_opt > 0.0:
            gain = improvement_percent(ee_orig, ee_opt)
        else:
            gain = math.nan
        lines.append(_SWEEP_ROW(p_x, tp_orig, tp_opt, ee_orig, ee_opt, gain))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    original = run_sweep(scenario, args.state, args.device, optimized=False)
    optimized = run_sweep(
        scenario, args.state, args.device, optimized=True, coupling=args.coupling
    )
    text = _sweep_csv(scenario, original, optimized)
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {len(original.p_x)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    optima = optimize_scenario(scenario, args.state, args.coupling)
    header = f"{'pair':>4}  {'device':<6}  {'feasible':<8}  {'p_star_w':>18}  {'ee_bps_per_watt':>18}  {'lambert_arg':>14}"
    rows = []
    for device, results in (("hrc", optima.hrc), ("mrc", optima.mrc)):
        for index, result in enumerate(results):
            rows.append(
                (
                    index,
                    device,
                    "yes" if result.feasible else "no",
                    result.power_w,
                    result.ee_bps_per_watt,
                    result.lambert_arg,
                    result.reason,
                )
            )
    if args.out:
        lines = [
            f"# scenario_hash: {scenario.content_hash()}",
            f"# state: {args.state}",
            f"# coupling: {args.coupling}",
            "pair,device,feasible,p_star_w,ee_bps_per_watt,lambert_arg",
        ]
        for index, device, feasible, power, ee, arg, _reason in rows:
            lines.append(
                f"{index},{device},{feasible},{_fmt(power)},{_fmt(ee)},{_fmt(arg)}"
            )
        _atomic_write(args.out, "\n".join(lines) + "\n")
        print(f"wrote {len(rows)} rows to {args.out}")
        return EXIT_OK
    print(f"state: {args.state}  coupling: {args.coupling}")
    print(header)
    for index, device, feasible, power, ee, arg, reason in rows:
        note = f"  ({reason})" if reason else ""
        print(
            f"{index:>4}  {device:<6}  {feasible:<8}  {_fmt(power):>18}  "
            f"{_fmt(ee):>18}  {arg:>14.6g}{note}"
        )
    return EXIT_OK


def _cmd_pathloss(args: argparse.Namespace) -> int:
    try:
        los = pathloss_los_db(args.d, args.f)
        nlos = pathloss_nlos_db(args.d, args.f)
        # The inputs are in the model's domain; note any outside its range.
        for note in range_notes(args.d, args.f):
            print(f"note: {note}", file=sys.stderr)
        average = pathloss_average_db(args.d, args.f, args.omega, args.combine)
        gain = power_gain(average)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"los_db: {los:.6f}")
    print(f"nlos_db: {nlos:.6f}")
    print(f"average_db: {average:.6f}")
    print(f"power_gain: {gain:.12e}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    report = run_validation(scenario, seed=args.seed, trials=args.trials)
    text = "\n".join(report.lines()) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnoma",
        description=(
            "Throughput and energy-efficiency calculator/optimizer for a "
            "cognitive-radio NOMA uplink."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="emit original and optimized series over the p_x grid as CSV"
    )
    sweep.add_argument("scenario", nargs="?", help="scenario YAML path "
                       f"(default: ${SCENARIO_ENV_VAR} or the bundled scenario)")
    sweep.add_argument("--state", choices=STATES, required=True)
    sweep.add_argument("--device", choices=DEVICES, required=True)
    sweep.add_argument("--coupling", choices=("nominal", "cascaded"), default="nominal")
    sweep.add_argument("--out", help="output CSV path (stdout when omitted)")
    sweep.set_defaults(func=_cmd_sweep)

    optimize = sub.add_parser(
        "optimize", help="per-pair closed-form optimal powers for one state"
    )
    optimize.add_argument("scenario", nargs="?")
    optimize.add_argument("--state", choices=STATES, required=True)
    optimize.add_argument("--coupling", choices=("nominal", "cascaded"), default="nominal")
    optimize.add_argument("--out", help="write a CSV table instead of text")
    optimize.set_defaults(func=_cmd_optimize)

    pathloss = sub.add_parser("pathloss", help="LOS/NLOS/average pathloss and |g|^2")
    pathloss.add_argument("--d", type=float, required=True, help="distance in meters")
    pathloss.add_argument("--f", type=float, required=True, help="carrier in GHz")
    pathloss.add_argument("--omega", type=float, default=0.5, help="LOS probability")
    pathloss.add_argument("--combine", choices=("db", "linear"), default="db")
    pathloss.set_defaults(func=_cmd_pathloss)

    validate = sub.add_parser("validate", help="run the built-in validation suites")
    validate.add_argument("scenario", nargs="?")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--trials", type=int, default=1000)
    validate.add_argument("--out", help="also write the report to a file")
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
