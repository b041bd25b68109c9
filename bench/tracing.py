"""Spans around the library's public calls, patched in from outside.

Each wrapped name is replaced where its caller looks it up: methods on
their classes, module functions on their modules (``defenses`` imports
``best_control_for_sigma`` inside a function, so patching the ``policy``
module attribute reaches it).  A span records its name, start, end and
the span that was open when it started; spans stay in memory until the
run writes them out.  Only the names a per-layer metric reports are
wrapped, so a name's self time holds all the work beneath it that no other
metric reports.  Private helpers are not wrapped.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from schedleak import cli, defenses, eavesdropper, markov, policy, simulate

Est = eavesdropper.EveEstimator


def _kind_name(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return f"simulate.run_episode.{cfg.policy_kind.value}"


def _packing_steps(result):
    return {"defenses.pde_packing_steps.steps": len(result) - 1}


# (owner, attribute, span name or namer, result counter)
TARGETS = [
    (markov, "steady_state", "markov.steady_state", None),
    (eavesdropper, "steady_state", "markov.steady_state", None),
    (policy, "solve_goc", "policy.solve_goc", None),
    (policy, "solve_periodic", "policy.solve_periodic", None),
    (policy, "best_control_for_sigma", "policy.best_control_for_sigma", None),
    (policy, "occupancy_distribution", "policy.occupancy_distribution", None),
    (defenses, "pde_packing_steps", "defenses.pde_packing_steps", _packing_steps),
    (defenses, "ade_schedule", "defenses.ade_schedule", None),
    (defenses, "forecast_leakage", "defenses.forecast_leakage", None),
    (eavesdropper.SegmentModel, "__init__", "eavesdropper.SegmentModel.init", None),
    (Est, "observe", "eavesdropper.EveEstimator.observe", None),
    (Est, "clone", "eavesdropper.EveEstimator.clone", None),
    (Est, "backward", "eavesdropper.EveEstimator.backward", None),
    (Est, "belief_at_time", "eavesdropper.EveEstimator.belief_at_time", None),
    (Est, "leakage", "eavesdropper.EveEstimator.leakage", None),
    (simulate.CellSolution, "__init__", "simulate.CellSolution", None),
    (simulate, "run_episode", _kind_name, None),
    (cli, "cmd_solve", "cli.solve", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_pareto", "cli.pareto", None),
]

KINDS = ("MPI", "PP", "ADE", "PDE")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []

    def add(base, *suffixes):
        for suf in suffixes:
            unit = {"s": "s", "self_s": "s", "calls": "count", "steps": "count",
                    "us_per_call": "us", "init_s": "s"}[suf]
            out.append((f"{base}.{suf}", unit))

    add("policy.solve_goc", "s")
    add("policy.solve_periodic", "s")
    add("policy.best_control_for_sigma", "s", "calls")
    add("policy.occupancy_distribution", "s", "calls")
    add("defenses.pde_packing_steps", "s", "steps")
    add("defenses.ade_schedule", "s", "calls")
    add("defenses.forecast_leakage", "s")
    add("eavesdropper.EveEstimator", "s")
    add("eavesdropper.EveEstimator.observe", "s", "calls")
    add("eavesdropper.EveEstimator.leakage", "s", "calls", "us_per_call")
    add("eavesdropper.EveEstimator.belief_at_time", "s", "self_s", "calls")
    add("eavesdropper.EveEstimator.backward", "s", "self_s", "calls")
    add("eavesdropper.EveEstimator.clone", "s", "calls")
    add("eavesdropper.SegmentModel", "init_s", "calls")
    add("markov.steady_state", "s", "calls")
    add("simulate.CellSolution", "s", "calls")
    for kind in KINDS:
        add(f"simulate.run_episode.{kind}", "s")
    add("simulate.run_episode", "self_s")
    add("cli.solve", "s")
    add("cli.simulate", "s")
    add("cli.pareto", "s")
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []     # [name, start, end, parent, outermost]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(tracer.spans)
            span = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer._open[label] == 0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._open[label] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._open[label] -= 1
                tracer._stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    tracer.counters[key] += value
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counters recorded so far and reset."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(int)
        return spans, counters


def summarize(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``.s`` sums the outermost spans of a name (a name nested in itself is
    counted once), ``.self_s`` subtracts the time covered by direct child
    spans, ``.calls`` counts spans.
    """
    incl = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    child = [0.0] * len(spans)
    # the listener's own time: spans of any EveEstimator method not inside another
    listener = [s[0].startswith("eavesdropper.EveEstimator.") for s in spans]
    inside = [False] * len(spans)
    for i, (name, start, end, parent, outer) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            inside[i] = listener[parent] or inside[parent]
        if listener[i] and not inside[i]:
            incl["eavesdropper.EveEstimator"] += end - start
    for i, (name, start, end, parent, outer) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_t[name] += dur - child[i]
        if outer:
            incl[name] += dur
    values = {}
    for metric, _ in metric_names():
        base, _, suffix = metric.rpartition(".")
        if suffix in ("s", "init_s"):
            key = base if suffix == "s" else base + ".init"
            values[metric] = incl[key]
        elif suffix == "self_s":
            keys = ([f"{base}.{k}" for k in KINDS] if base == "simulate.run_episode"
                    else [base])
            values[metric] = sum(self_t[k] for k in keys)
        elif suffix == "calls":
            key = base + ".init" if base.endswith("SegmentModel") else base
            values[metric] = calls[key]
        elif suffix == "steps":
            values[metric] = counters.get(metric, 0)
        elif suffix == "us_per_call":
            values[metric] = 1e6 * incl[base] / calls[base] if calls[base] else 0.0
    return values


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """Gzipped JSON: a name table and, per traced pass, [name, start, end, parent]."""
    names: dict[str, int] = {}
    doc = {"passes": []}
    for spans in passes:
        t0 = min((s[1] for s in spans), default=0.0)
        doc["passes"].append([[names.setdefault(n, len(names)), round(a - t0, 7),
                               round(b - t0, 7), p] for n, a, b, p, _ in spans])
    doc["names"] = list(names)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh, separators=(",", ":"))
