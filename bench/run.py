"""crnoma benchmark: end-to-end metrics, or per-module metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one closed-loop client, one op at a time, no extra threads):

* ``cli_cold``: one op is a fresh ``python -m crnoma.cli`` process (sweep,
  optimize or pathloss) on the default scenario and seeded variants of it.
* ``sweep_dense``: one op is an in-process ``run_sweep`` series over a fine
  p_x grid for a few pairs.
* ``validate_oracle``: one op is ``run_validation`` with many trials.
* ``scenario_wide``: one op is ``load_scenario`` on hundreds to thousands of
  pairs, ``optimize_scenario`` for both states and couplings, and one-point
  ``run_sweep`` series.

Inputs come from ``--seed`` only. Every op's output is checked against the
independent reference in ``reference.py`` and its sha256 is recorded per
input. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
op untraced and then traced, and prints the per-module metrics. The last
stdout line is the result object; the full record, with the environment,
digests and errors, goes to ``.bench_work/results/``.

Op and set-up times are scaled to a reference machine speed by
calibrations taken around every sample (see ``SpeedScale``); the record also
keeps the raw wall times. The package is imported from this checkout's
``src`` (never an installed copy); the run stops with exit code 2 if that is
not possible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import reference as ref
import scenarios
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Calibration times on the reference machine (a shared 2-vCPU x86_64 VM,
# CPython 3.11, in its faster speed state). They only set the scale of the
# reported times; see SpeedScale.
CALIBRATION_PYTHON_S = 0.8e-3
# The Python calibration swung about 1.75x between the two speed states,
# the in-process ops about 1.45x; 0.7 is about log(1.45) / log(1.75). Process
# start-up follows its calibration one to one.
CALIBRATION_PYTHON_EXPONENT = 0.7
CALIBRATION_PROCESS_S = 12.0e-3
CALIBRATION_READY_S = 10.0e-3

SETUP_PROBES = 7
REFERENCE_ROWS = 3
DENSE_PAIRS, DENSE_STEP = 5, "0.0001"
VALIDATION_TRIALS, VALIDATION_SEEDS = 8000, 8
# One cycle of scenario_wide: the median op lands inside the 1000-pair
# group and the tail (11th-largest op) inside the 3000-pair group.
WIDE_SIZES = ((300, "linear"), (1000, "db"), (3000, "db"), (1000, "linear"), (3000, "linear"))

# Units of the reported metrics; other names are ".self_s" (s) or counts.
UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "cli.interp_ms": "ms",
    "cli.interp_nosite_ms": "ms",
    "cli.import_ms": "ms",
    "optimizer.feasible_ratio": "ratio",
    "optimizer.ee_evals_per_argmax": "ratio",
    "validation.draws_per_feasible": "ratio",
    "trace_overhead_pct": "%",
}

SPANNED = (
    "scenario.yaml_safe_load",
    "scenario.load_scenario",
    "scenario.run_sweep",
    "metrics.throughput",
    "pathloss.pathloss_average_db",
    "optimizer.optimize_scenario",
    "optimizer.optimal_power",
    "optimizer.numerical_argmax",
    "lambertw.lambert_w0",
)
COUNTED = (
    "metrics.SensingProfile.builds",
    "units.noise_power_w.calls",
    "pathloss.power_gain.calls",
    "metrics.DevicePair.builds",
    "optimizer.ee_of_power.calls",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Op:
    """One timed unit of work with its digest key, item count and checks."""

    def __init__(self, key: str, items: int, run: Callable, render: Callable, check: Callable):
        self.key, self.items = key, items
        self.run, self.render, self.check = run, render, check


# ------------------------------------------------------------ processes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: List[str], cwd: Path, env: Dict[str, str]):
    """Run to completion; return (seconds, exit code, stdout, stderr, max RSS KiB)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return elapsed, proc.returncode, out.read(), err.read(), usage.ru_maxrss


def time_to_ready(cmd: List[str], cwd: Path, env: Dict[str, str]) -> float:
    """Seconds from launch until the child prints its first line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {cmd} -> {proc.returncode} {line!r}")
    return elapsed


def median_run_ms(cmd: List[str], env: Dict[str, str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        elapsed, code, _, err, _ = run_child(cmd, ROOT, env)
        if code != 0:
            raise RuntimeError(f"{cmd} exited {code}: {err.decode(errors='replace')}")
        times.append(elapsed * 1000.0)
    return statistics.median(times)


def environment(env: Dict[str, str]) -> dict:
    import yaml

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    tree = hashlib.sha256()
    for path in sorted((SRC / "crnoma").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    python = sys.executable
    interp = median_run_ms([python, "-c", "pass"], env, REFERENCE_ROWS)
    nosite = median_run_ms([python, "-S", "-c", "pass"], env, REFERENCE_ROWS)
    imported = median_run_ms([python, "-c", "import crnoma.cli"], env, REFERENCE_ROWS)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "bare_interp_ms": interp,
        "bare_interp_nosite_ms": nosite,
        "import_crnoma_cli_ms": imported - interp,
    }


# ------------------------------------------------------------ workloads


class Workload:
    """Generated inputs, set-up probe arguments and the cycle of op blocks."""

    probe_mode = "scenario"
    in_process = True

    def __init__(self, seed: int, work: Path, env: Dict[str, str]):
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.work, self.env = work, env
        self.inputs: List[Path] = []
        self.blocks: List[List[Op]] = []

    def write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        self.inputs.append(path)
        return path

    def in_process_op(self, key: str, items: int, fn: Callable, render: Callable, check: Callable) -> Op:
        """An op calling into the package; an exception it raises fails the op."""

        def run(tracer: Optional[spans.Tracer]):
            restore = spans.install(tracer) if tracer else None
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # the run goes on and reports the op as failed
                result = exc
            finally:
                elapsed = time.perf_counter() - start
                if restore:
                    restore()
                    tracer.fold()
            return elapsed, result

        def checked(result) -> List[str]:
            return [f"{key}: raised {result!r}"] if isinstance(result, Exception) else check(result)

        def rendered(result) -> bytes:
            return repr(result).encode() if isinstance(result, Exception) else render(result)

        return Op(key, items, run, rendered, checked)


def render_series(series) -> bytes:
    rows = [repr((p.p_x, p.throughput_bps, p.ee_bps_per_watt, p.tx_power_w)) for p in series.points]
    rows.append(repr(tuple(series.infeasible_pairs)))
    return "\n".join(rows).encode()


def series_rows(series):
    return [(p.p_x, p.throughput_bps, p.ee_bps_per_watt) for p in series.points]


def opt_rows(results):
    return [(r.feasible, r.power_w, r.ee_bps_per_watt, r.lambert_arg) for r in results]


class CliCold(Workload):
    """Fresh CLI processes: the per-figure cost a researcher pays."""

    probe_mode = "cli"
    in_process = False

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        variants = scenarios.cli_variants(self.rng)
        self.out = work / "out.csv"
        for name, spec in variants.items():
            path = self.write(f"{name}.yaml", spec.yaml())
            model = ref.Model(spec)
            queries = scenarios.pathloss_queries(self.rng, 2)
            coupling = self.rng.choice(ref.COUPLINGS)
            sweeps = [
                self.sweep_op(path.name, model, state, device, cpl)
                for state in ref.STATES
                for device in ref.DEVICES
                for cpl in ref.COUPLINGS
            ]
            others = [self.optimize_op(path.name, model, state, coupling) for state in ref.STATES]
            others += [self.pathloss_op(*q) for q in queries]
            block = []
            for i, op in enumerate(sweeps):
                block.append(op)
                if i % 2 == 1:
                    block.append(others[i // 2])
            self.blocks.append(block)

    def cli_op(self, key: str, args: List[str], check: Callable[[str, str], List[str]]) -> Op:
        def run(tracer: Optional[spans.Tracer]):
            if self.out.exists():
                self.out.unlink()
            if tracer is None:
                cmd = [sys.executable, "-m", "crnoma.cli", *args]
            else:
                stats = self.work / "stats.json"
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(stats), *args]
            elapsed, code, out, err, rss = run_child(cmd, self.work, self.env)
            if tracer is not None and stats.exists():
                tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
                stats.unlink()
            written = self.out.read_bytes() if self.out.exists() else b""
            return elapsed, (code, out, written, err, rss)

        def render(result) -> bytes:
            code, out, written, _, _ = result
            return b"exit %d\n" % code + out + b"\n--out--\n" + written

        def checked(result) -> List[str]:
            code, out, written, err, _ = result
            if code != 0:
                return [f"{key}: exit {code}: {err.decode(errors='replace')[-300:]}"]
            return check(out.decode(), written.decode())

        return Op(key, 1, run, render, checked)

    def sweep_op(self, path, model, state, device, coupling) -> Op:
        rows = model.grid[2]

        def check(stdout: str, csv: str) -> List[str]:
            if stdout != f"wrote {rows} rows to out.csv\n":
                return [f"{key}: stdout {stdout!r}"]
            return ref.check_sweep_csv(model, key, csv, state, device, coupling)

        key = f"{path} sweep {state} {device} {coupling}"
        args = ["sweep", path, "--state", state, "--device", device, "--coupling", coupling, "--out", "out.csv"]
        return self.cli_op(key, args, check)

    def optimize_op(self, path, model, state, coupling) -> Op:
        def check(stdout: str, csv: str) -> List[str]:
            if stdout != f"wrote {2 * model.n} rows to out.csv\n":
                return [f"{key}: stdout {stdout!r}"]
            return ref.check_optimize_csv(model, key, csv, state, coupling)

        key = f"{path} optimize {state} {coupling}"
        args = ["optimize", path, "--state", state, "--coupling", coupling, "--out", "out.csv"]
        return self.cli_op(key, args, check)

    def pathloss_op(self, d, f, omega, combine) -> Op:
        def check(stdout: str, _csv: str) -> List[str]:
            return ref.check_pathloss(key, stdout, float(d), float(f), float(omega), combine)

        key = f"pathloss {d} {f} {omega} {combine}"
        args = ["pathloss", "--d", d, "--f", f, "--omega", omega, "--combine", combine]
        return self.cli_op(key, args, check)


class SweepDense(Workload):
    """Few pairs, thousands of grid points: the per-point rate kernel."""

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        import crnoma.scenario as scenario_mod

        spec = scenarios.dense_spec(self.rng, DENSE_PAIRS, DENSE_STEP)
        path = self.write("dense.yaml", spec.yaml())
        model = ref.Model(spec)
        scenario = scenario_mod.load_scenario_file(str(path))
        items = model.n * model.grid[2]
        series = [
            (state, device, optimized, "nominal")
            for state in ref.STATES
            for device in ref.DEVICES
            for optimized in (False, True)
        ] + [(state, ref.MRC, True, "cascaded") for state in ref.STATES]
        block = []
        for state, device, optimized, coupling in series:
            key = f"{state} {device} optimized={optimized} {coupling}"

            def fn(args=(state, device, optimized, coupling)):
                return scenario_mod.run_sweep(scenario, *args)

            def check(result, args=(state, device, optimized, coupling), key=key):
                return ref.check_points(model, key, *args, series_rows(result), result.infeasible_pairs)

            block.append(self.in_process_op(key, items, fn, render_series, check))
        self.blocks.append(block)


class ValidateOracle(Workload):
    """run_validation with many trials: golden-section oracle and Lambert grid."""

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        import crnoma.scenario as scenario_mod
        import crnoma.validation as validation_mod

        path = self.write("default.yaml", scenarios.Spec(label="default").yaml())
        scenario = scenario_mod.load_scenario_file(str(path))
        for vseed in (self.rng.randrange(2**31) for _ in range(VALIDATION_SEEDS)):
            key = f"run_validation seed={vseed} trials={VALIDATION_TRIALS}"

            def fn(vseed=vseed):
                return validation_mod.run_validation(scenario, seed=vseed, trials=VALIDATION_TRIALS)

            def check(report, key=key):
                errors = [f"{key}: {c.line()}" for c in report.checks if not c.passed]
                oracle = [c for c in report.checks if c.name == "closed_form_vs_oracle"]
                if report.trials != VALIDATION_TRIALS or not oracle:
                    errors.append(f"{key}: report lacks the oracle check for {VALIDATION_TRIALS} trials")
                elif not oracle[0].detail.startswith(f"{VALIDATION_TRIALS} feasible,"):
                    errors.append(f"{key}: oracle detail {oracle[0].detail!r}")
                return errors

            def render(report):
                return ("\n".join(report.lines()) + "\n").encode()

            self.blocks.append([self.in_process_op(key, VALIDATION_TRIALS, fn, render, check)])


class ScenarioWide(Workload):
    """Hundreds to thousands of pairs, one grid point: parse, pathloss, optimizer."""

    probe_mode = "text"

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        import crnoma.optimizer as optimizer_mod
        import crnoma.scenario as scenario_mod

        optimizations = [(s, c) for s in ref.STATES for c in ref.COUPLINGS]
        sweeps = [
            (state, device, optimized, "cascaded" if device == ref.MRC else "nominal")
            for state in ref.STATES
            for device in ref.DEVICES
            for optimized in (False, True)
        ]
        block = []
        for pairs, combine in WIDE_SIZES:
            spec = scenarios.wide_spec(self.rng, pairs, combine)
            text = spec.yaml()
            self.write(f"{spec.label}.yaml", text)
            model = ref.Model(spec)

            def fn(text=text):
                scenario = scenario_mod.load_scenario(text)
                optima = {k: optimizer_mod.optimize_scenario(scenario, *k) for k in optimizations}
                series = {k: scenario_mod.run_sweep(scenario, *k) for k in sweeps}
                return scenario, optima, series

            def render(result):
                scenario, optima, series = result
                parts = [repr(tuple(scenario.notes)), repr(scenario.primary.gain)]
                parts += [repr((p.hrc_power_w, p.mrc_power_w, p.hrc_gain, p.mrc_gain)) for p in scenario.pairs]
                parts += [f"{k}: {opt_rows(v.hrc)!r} {opt_rows(v.mrc)!r}" for k, v in optima.items()]
                parts += [render_series(v).decode() for v in series.values()]
                return "\n".join(parts).encode()

            def check(result, model=model, label=spec.label):
                scenario, optima, series = result
                errors = self.check_scenario(model, label, scenario)
                for (state, coupling), opt in optima.items():
                    results = {ref.HRC: opt_rows(opt.hrc), ref.MRC: opt_rows(opt.mrc)}
                    errors += ref.check_optima(model, f"{label} {state} {coupling}", state, coupling, results)
                for args, s in series.items():
                    errors += ref.check_points(model, f"{label} {args}", *args, series_rows(s), s.infeasible_pairs)
                return errors

            block.append(self.in_process_op(spec.label, pairs, fn, render, check))
        self.blocks.append(block)

    @staticmethod
    def check_scenario(model, label, scenario) -> List[str]:
        """Gains against the reference pathloss; range and SIC notes counted."""
        errors = []
        got = [g for p in scenario.pairs for g in (p.hrc_gain, p.mrc_gain)] + [scenario.primary.gain]
        want = [g for pair in zip(model.gh, model.gm) for g in pair] + [model.gp]
        if len(got) != len(want) or not all(map(ref.close, got, want)):
            errors.append(f"{label}: pair or primary gains differ from the reference pathloss")
        # One distinct note per out-of-range (section, distance); the LOS and
        # NLOS terms may each repeat it.
        out_of_range = len({(s, d) for s, d in model.distances if not 10.0 <= d <= 2000.0})
        sic = sum(model.ph * gh <= model.pm * gm for gh, gm in zip(model.gh, model.gm))
        range_notes = len({n for n in scenario.notes if "outside the model validity range" in n})
        sic_notes = sum(n.startswith("devices[pair]:") for n in scenario.notes)
        if (range_notes, sic_notes) != (out_of_range, sic):
            errors.append(
                f"{label}: {range_notes} range / {sic_notes} SIC notes, "
                f"reference {out_of_range} / {sic}"
            )
        return errors


WORKLOADS = {
    "cli_cold": CliCold,
    "sweep_dense": SweepDense,
    "validate_oracle": ValidateOracle,
    "scenario_wide": ScenarioWide,
}


# ------------------------------------------------------------ measuring


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}

    def judge(self, op: Op, result, label: str = "") -> None:
        errors = op.check(result)
        digest = sha256(op.render(result))
        if self.digests.setdefault(op.key, digest) != digest:
            errors.append(f"{op.key}{label}: output digest differs from an earlier run of this input")
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def cycle(blocks: List[List[Op]], seconds: float):
    """Yield whole blocks, round robin, while the next one should end within ``seconds``.

    The next block is expected to take as long as the last one did, so a
    run neither overshoots by a block nor leaves a block half done.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        start = time.perf_counter()
        yield blocks[index % len(blocks)]
        index += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def tail(latencies: List[float]):
    """(value, percentile, samples above): the highest percentile with 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    above = min(10, n - 1)
    return ordered[n - 1 - above], 100.0 * (n - above) / n, above


@dataclasses.dataclass(frozen=True)
class _Link:
    power_w: float
    gain: float
    noise_w: float = 1e-3

    def __post_init__(self) -> None:
        if not math.isfinite(self.power_w) or self.power_w < 0.0:
            raise ValueError("power_w")
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain")


def calibrate_python() -> float:
    """Seconds for a fixed pure-Python loop shaped like the package's hot paths.

    It rebuilds a validated frozen dataclass with ``dataclasses.replace``,
    takes a ``log2`` rate and fills a dict with formatted keys. Best of 3.
    """
    best = math.inf
    base = _Link(0.5, 1e-3)
    for _ in range(3):
        start = time.perf_counter()
        total, rows = 0.0, {}
        for i in range(400):
            link = dataclasses.replace(base, power_w=0.5 + i * 1e-3)
            total += i / 400.0 * math.log2(1.0 + link.power_w * link.gain / link.noise_w)
            rows[f"k{i}"] = (link.power_w, total)
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_process(env: Dict[str, str]) -> float:
    """Seconds to start and end a bare interpreter without site (``python -S -c pass``)."""
    return run_child([sys.executable, "-S", "-c", "pass"], ROOT, env)[0]


class SpeedScale:
    """Scales wall times to the reference machine speed.

    The calibration runs once before the first sample and once after every
    sample. Sample i is scaled by ``(reference / c) ** exponent``, where c is
    the median of the ``2 * SIDE`` calibrations nearest to it in time
    (``SIDE`` on each side, fewer at the ends). That follows speed states
    lasting seconds while damping the jitter of single calibrations. The
    exponent is how strongly the measured work follows the calibration
    across speed states. Nothing in the package affects a calibration.
    """

    SIDE = 2

    def __init__(self, calibrate: Callable[[], float], reference_s: float, exponent: float = 1.0) -> None:
        self.calibrate, self.reference_s, self.exponent = calibrate, reference_s, exponent
        self.walls: List[float] = []
        self.calibrations = [calibrate()]

    def add(self, wall_s: float) -> None:
        self.walls.append(wall_s)
        self.calibrations.append(self.calibrate())

    def factors(self) -> List[float]:
        cal, side = self.calibrations, self.SIDE
        return [
            (self.reference_s / statistics.median(cal[max(0, i + 1 - side) : i + 1 + side])) ** self.exponent
            for i in range(len(self.walls))
        ]

    def scaled(self) -> List[float]:
        return [w * f for w, f in zip(self.walls, self.factors())]


def scale_for(workload: "Workload") -> SpeedScale:
    if workload.in_process:
        return SpeedScale(calibrate_python, CALIBRATION_PYTHON_S, CALIBRATION_PYTHON_EXPONENT)
    return SpeedScale(lambda: calibrate_process(workload.env), CALIBRATION_PROCESS_S)


def measure(workload: Workload, seconds: float, outcome: Outcome) -> dict:
    scale = scale_for(workload)
    items, child_rss = 0, 0
    for block in cycle(workload.blocks, seconds):
        for op in block:
            elapsed, result = op.run(None)
            scale.add(elapsed)
            items += op.items
            if not workload.in_process:
                child_rss = max(child_rss, result[4])
            outcome.judge(op, result)
    rss_kib = child_rss if not workload.in_process else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls, latencies = scale.walls, scale.scaled()
    value, percentile, above = tail(latencies)
    return {
        "metrics": {
            "op_ms_p50": statistics.median(latencies) * 1000.0,
            "op_ms_tail": value * 1000.0,
            "items_per_s": items / sum(latencies),
            "peak_rss_mb": rss_kib / 1024.0,
        },
        "tail_percentile": percentile,
        "tail_samples_above": above,
        "samples": len(latencies),
        "items": items,
        "op_ms_quartiles": [q * 1000.0 for q in statistics.quantiles(latencies, n=4)],
        "wall": {
            "op_ms_p50": statistics.median(walls) * 1000.0,
            "op_ms_tail": tail(walls)[0] * 1000.0,
            "items_per_s": items / sum(walls),
            "timed_s": sum(walls),
        },
        "speed_factor_quartiles": statistics.quantiles(scale.factors(), n=4),
        "samples_wall_s": walls,
        "samples_calibration_s": scale.calibrations,
    }


def measure_setup(workload: Workload) -> dict:
    """Median over fresh processes of the time until ready for the first op."""
    probe = [sys.executable, str(BENCH / "probe.py"), workload.probe_mode]
    probe += [str(p) for p in workload.inputs]
    ready = [sys.executable, "-S", "-c", "print('ready')"]
    scale = SpeedScale(lambda: time_to_ready(ready, ROOT, workload.env), CALIBRATION_READY_S)
    for _ in range(SETUP_PROBES):
        scale.add(time_to_ready(probe, workload.work, workload.env))
    return {
        "setup_s": statistics.median(scale.scaled()),
        "wall_setup_s": scale.walls,
        "setup_speed_factors": scale.factors(),
    }


def measure_traced(workload: Workload, seconds: float, outcome: Outcome, env_record: dict) -> dict:
    """Each op untraced, then traced: per-module metrics and the tracing overhead."""
    tracer = spans.Tracer()
    plain = traced = 0.0
    ops = 0
    for block in cycle(workload.blocks, seconds):
        for op in block:
            elapsed, result = op.run(None)
            plain += elapsed
            outcome.judge(op, result)
            elapsed, result = op.run(tracer)
            traced += elapsed
            ops += 1
            outcome.judge(op, result, " (traced)")
    totals, counts, by_parent = tracer.totals, tracer.counts, tracer.by_parent

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "cli.interp_ms": env_record["bare_interp_ms"],
        "cli.interp_nosite_ms": env_record["bare_interp_nosite_ms"],
        "cli.import_ms": env_record["import_crnoma_cli_ms"],
        "cli.main.self_s": per_op(totals.get("cli.main", [0, 0.0, 0.0])[2]),
    }
    for name in SPANNED:
        row = totals.get(name, [0, 0.0, 0.0, 0])
        metrics[f"{name}.calls"] = per_op(row[0])
        metrics[f"{name}.self_s"] = per_op(row[2])
    for name in COUNTED:
        metrics[name] = per_op(counts[name])
    power = totals.get("optimizer.optimal_power", [0, 0.0, 0.0, 0])
    argmax_calls = totals.get("optimizer.numerical_argmax", [0])[0]
    draws = by_parent.get(("optimizer.optimal_power", "validation.run_validation"), [0, 0])
    metrics.update(
        {
            "optimizer.feasible_ratio": ratio(power[3], power[0]),
            "optimizer.ee_evals_per_argmax": ratio(
                counts[("optimizer.ee_of_power.calls", "optimizer.numerical_argmax")], argmax_calls
            ),
            "validation.run_validation.self_s": per_op(totals.get("validation.run_validation", [0, 0.0, 0.0])[2]),
            "validation.draws_per_feasible": ratio(draws[0], draws[1]),
            "trace_overhead_pct": 100.0 * (traced / plain - 1.0),
        }
    )
    return {"metrics": metrics, "traced_ops": ops, "untraced_s": plain, "traced_s": traced, "gaps": tracer.gaps}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith(".self_s") else "count")


# ------------------------------------------------------------ main


def load_package() -> None:
    """Import crnoma from this checkout's src, or exit 2."""
    if not (SRC / "crnoma" / "__init__.py").is_file():
        print(f"error: {SRC / 'crnoma'} not found; run from a crnoma checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crnoma

    if Path(crnoma.__file__).resolve().parent != SRC / "crnoma":
        print(f"error: crnoma imported from {crnoma.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_package()

    env = child_env()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, work, env)
        env_record = environment(env)
        outcome = Outcome()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            record.update(measure_traced(workload, args.seconds, outcome, env_record))
        else:
            setup = measure_setup(workload)
            record.update(measure(workload, args.seconds, outcome))
            record["metrics"]["setup_s"] = setup.pop("setup_s")
            record.update(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        environment=env_record,
        attempted=outcome.attempted,
        failed=outcome.failed,
        error_rate=outcome.failed / outcome.attempted,
        errors=outcome.errors,
        digests=outcome.digests,
        digest_of_digests=sha256(json.dumps(outcome.digests, sort_keys=True).encode()),
    )
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    summary = {k: record.get(k) for k in ("tail_percentile", "tail_samples_above", "samples", "error_rate", "gaps")}
    summary.update(record=str(path.relative_to(ROOT)), digest=record["digest_of_digests"], environment=env_record)
    print(json.dumps(summary, sort_keys=True))
    for error in outcome.errors[:5]:
        print(f"check failed: {error}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in record["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
