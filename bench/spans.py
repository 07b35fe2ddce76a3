"""In-memory spans around the package's public functions, installed from outside.

``install(tracer)`` patches each traced name where its caller looks it up
(``from x import y`` copies the name, so ``crnoma.cli.run_sweep`` and
``crnoma.scenario.run_sweep`` are patched separately) and returns an undo
function. Nothing under ``src/`` is modified.

A span records (name, start, end, parent index, tag). Spans of one op are
kept in memory and folded into per-name totals when the op ends, so memory
stays bounded by one op. A layer's self time is its span's duration minus
the time covered by its child spans. Hot leaf functions that are only
counted (constructors, ``noise_power_w``, ``ee_of_power``, ``power_gain``)
get a counter instead of a span; each count is also keyed by the enclosing
span, which yields ratios such as oracle evaluations per ``numerical_argmax``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List

# (module, attribute) -> span name. Every caller's binding is listed.
SPAN_TARGETS = {
    "scenario.yaml_safe_load": [("yaml", "load")],  # yaml.safe_load calls yaml.load
    "scenario.load_scenario": [("crnoma.scenario", "load_scenario")],
    "scenario.run_sweep": [
        ("crnoma.scenario", "run_sweep"),
        ("crnoma.cli", "run_sweep"),
        ("crnoma.validation", "run_sweep"),
    ],
    "metrics.throughput": [
        ("crnoma.scenario", "throughput_hrc_effectual"),
        ("crnoma.scenario", "throughput_mrc_effectual"),
        ("crnoma.scenario", "throughput_hrc_interference"),
        ("crnoma.scenario", "throughput_mrc_interference"),
    ],
    "pathloss.pathloss_average_db": [
        ("crnoma.scenario", "pathloss_average_db"),
        ("crnoma.cli", "pathloss_average_db"),
    ],
    "optimizer.optimize_scenario": [
        ("crnoma.optimizer", "optimize_scenario"),
        ("crnoma.scenario", "optimize_scenario"),
        ("crnoma.cli", "optimize_scenario"),
    ],
    "optimizer.optimal_power": [
        ("crnoma.optimizer", "optimal_power"),
        ("crnoma.validation", "optimal_power"),
    ],
    "optimizer.numerical_argmax": [
        ("crnoma.optimizer", "numerical_argmax"),
        ("crnoma.validation", "numerical_argmax"),
    ],
    "lambertw.lambert_w0": [("crnoma.validation", "lambert_w0")],
    "validation.run_validation": [
        ("crnoma.validation", "run_validation"),
        ("crnoma.cli", "run_validation"),
    ],
}

COUNT_TARGETS = {
    "metrics.SensingProfile.builds": [("crnoma.metrics", "SensingProfile.__post_init__")],
    "metrics.DevicePair.builds": [("crnoma.metrics", "DevicePair.__post_init__")],
    "units.noise_power_w.calls": [("crnoma.metrics", "noise_power_w")],
    "pathloss.power_gain.calls": [
        ("crnoma.pathloss", "power_gain"),
        ("crnoma.scenario", "power_gain"),
        ("crnoma.cli", "power_gain"),
    ],
    "optimizer.ee_of_power.calls": [
        ("crnoma.optimizer", "ee_of_power"),
        ("crnoma.validation", "ee_of_power"),
    ],
}

# optimal_power binds ``lambert_fn=lambert_w0`` when it is defined, so no
# module-level patch reaches those calls; that last default is swapped instead.
LAMBERT_DEFAULT = ("crnoma.optimizer", "optimal_power", "lambert_fn")

# Spans whose return value is tagged: optimal_power's ``feasible`` flag.
_TAGGERS = {"optimizer.optimal_power": lambda result: bool(getattr(result, "feasible", False))}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        # name -> [calls, total_s, self_s, tagged]
        self.totals: Dict[str, List[float]] = {}
        # (name, parent name) -> [calls, tagged]
        self.by_parent: Dict[tuple, List[int]] = {}
        self.gaps: List[str] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tagger = _TAGGERS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tagger is not None:
                record[4] = tagger(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[(name, spans[stack[-1]][0])] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, tag) in enumerate(spans):
            row = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += bool(tag)
            key = (name, spans[parent][0] if parent >= 0 else None)
            pair = self.by_parent.setdefault(key, [0, 0])
            pair[0] += 1
            pair[1] += bool(tag)
        self.spans.clear()

    def snapshot(self) -> dict:
        """JSON-friendly totals, e.g. for a child process to hand back."""
        return {
            "totals": self.totals,
            "by_parent": [[k[0], k[1], v[0], v[1]] for k, v in self.by_parent.items()],
            "counts": [[k if isinstance(k, str) else list(k), v] for k, v in self.counts.items()],
            "gaps": self.gaps,
        }

    def merge(self, snap: dict) -> None:
        for name, row in snap["totals"].items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                mine[i] += value
        for name, parent, calls, tagged in snap["by_parent"]:
            pair = self.by_parent.setdefault((name, parent), [0, 0])
            pair[0] += calls
            pair[1] += tagged
        for key, value in snap["counts"]:
            self.counts[key if isinstance(key, str) else tuple(key)] += value
        for gap in snap["gaps"]:
            self.gap(gap)

    def gap(self, target: str) -> None:
        """Record a traced name the package no longer has."""
        if target not in self.gaps:
            self.gaps.append(target)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every target; return a function that restores the originals.

    A target the package no longer has is recorded in ``tracer.gaps`` by
    name instead of failing the run.
    """
    undo = []
    for targets, make in ((SPAN_TARGETS, tracer.span), (COUNT_TARGETS, tracer.counter)):
        for name, places in targets.items():
            for module, path in places:
                owner, attr = _resolve(module, path)
                if owner is None or attr not in vars(owner):
                    tracer.gap(f"{module}.{path}")
                    continue
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
    module, func_name, param = LAMBERT_DEFAULT
    func = getattr(importlib.import_module(module), func_name, None)
    func = getattr(func, "__wrapped__", func)
    defaults = getattr(func, "__defaults__", None)
    if defaults and list(inspect.signature(func).parameters)[-1] == param:
        undo.append((func, "__defaults__", defaults))
        func.__defaults__ = defaults[:-1] + (tracer.span("lambertw.lambert_w0", defaults[-1]),)
    else:
        tracer.gap(f"{module}.{func_name}({param}=...)")

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
