"""Benchmark of the schedleak library and its command-line front end.

    python3 bench/run.py --workload est-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root (the checkout's ``src/`` is imported, nothing
is installed).  One workload runs in one process; ``--workload all`` runs
each in its own process, one after another.  BLAS is pinned to one thread
before numpy loads.

Untraced runs repeat whole passes (set-up, episodes, artifacts) for
``--seconds`` seconds and at least twice, then check every pass's outputs
and print the end-to-end metrics.  Traced runs alternate an
untraced and a traced pass on the same inputs, at least twice each, print
the per-layer metrics and the tracing overhead, and write their spans to
``bench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 2
WORKLOAD_NAMES = ("est-long", "ctl-pareto", "est-grid-cli")
END_TO_END = (("setup_s", "s"), ("sim_steps_per_s", "steps/s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_library():
    """Import the checkout's own ``src/schedleak``; fail if it is absent."""
    if not (SRC / "schedleak" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'schedleak'} not found; run from a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import schedleak
    if SRC not in Path(schedleak.__file__).resolve().parents:
        raise SystemExit(f"error: imported schedleak from {schedleak.__file__}, not {SRC}")
    import workloads
    return workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Passes of one workload, their checks and their metrics."""

    def __init__(self, workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = OUT / f"work-{workload.name}-{os.getpid()}"
        self._n = 0

    def one_pass(self, index: int):
        work = self.work / f"pass{self._n}"
        work.mkdir(parents=True)
        p = self.w.run_pass(self.seed, index, work)
        p.files_digest = files_digest(work)
        print(f"  pass {index}: set-up {p.setup_s:.4f} s, episodes {p.episodes_s:.4f} s "
              f"({p.steps} steps), artifacts {p.artifacts_s:.4f} s", flush=True)
        self._n += 1
        return p

    def checks(self, p) -> list[tuple[str, list[str]]]:
        """The workload's checks of one pass; a checker that raises fails."""
        try:
            return self.w.checks(p)
        except Exception:  # noqa: BLE001 - reported as a failed check
            return [("checks of a pass", [traceback.format_exc(limit=3)])]

    def untraced(self):
        start = perf_counter()
        passes = []
        while len(passes) < MIN_PASSES or perf_counter() - start < self.seconds:
            passes.append(self.one_pass(len(passes)))
            if len(passes) == MIN_PASSES:
                # later passes repeat the same operations; their retained
                # outputs would make the peak depend on the pass count
                rss = peak_rss_mb()
        results = [r for p in passes for r in self.checks(p)]
        results.append(("cells identical across passes",
                        _same([p.cell_digest for p in passes], "solved policies")))
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in passes),
            "sim_steps_per_s": (sum(p.steps for p in passes)
                                / sum(p.episodes_s for p in passes)),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        return passes, results, {k: (v, units[k]) for k, v in metrics.items()}

    def traced(self):
        import tracing as tr
        tracer = tr.Tracer()
        tracer.install()
        start = perf_counter()
        plain, traced, layers, span_log = [], [], [], []
        try:
            while len(traced) < MIN_PASSES or perf_counter() - start < self.seconds:
                plain.append(self.one_pass(0))
                tracer.enabled = True
                try:
                    traced.append(self.one_pass(0))
                finally:
                    tracer.enabled = False
                spans, counters = tracer.take()
                layers.append(tr.summarize(spans, counters))
                span_log.append(spans)
        finally:
            tracer.uninstall()
        passes = plain + traced
        results = self.checks(passes[0])
        results.append(("traced outputs equal untraced",
                        _same([(p.cell_digest, p.files_digest) for p in passes],
                              "policies or artifacts")))
        counts = [name for name, unit in tr.metric_names() if unit == "count"]
        results.append(("per-layer counts repeat",
                        _same([tuple(l[c] for c in counts) for l in layers], "counts")))
        units = dict(tr.metric_names())
        # counts are equal in every traced pass (checked above); times vary
        metrics = {name: (layers[0][name] if units[name] == "count"
                          else statistics.median(l[name] for l in layers), units[name])
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in plain),
                                       units["trace.overhead_s"])
        path = OUT / f"trace-{self.w.name}-seed{self.seed}.json.gz"
        tr.write_spans(path, span_log)
        print(f"spans written to {path.relative_to(ROOT)}")
        return passes, results, {n: metrics[n] for n, _ in tr.metric_names()}

    def run(self, trace: bool) -> dict:
        try:
            passes, results, metrics = self.traced() if trace else self.untraced()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        bad = [(name, errs) for name, errs in results if errs]
        for name, errs in bad:
            print(f"CHECK FAILED {self.w.name}: {name}: {'; '.join(errs[:3])}",
                  file=sys.stderr)
        attempted = sum(p.attempted for p in passes) + len(results)
        failed = sum(p.failed for p in passes) + len(bad)
        print(f"{self.w.name}: seed {self.seed}, {len(passes)} passes, "
              f"{len(results)} checks, {len(bad)} failed")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:>14.6g} {unit}")
        print(f"  attempted {attempted}  failed {failed}  correct {not bad}")
        return {"correct": not bad, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def files_digest(work: Path) -> str:
    """SHA-256 over a pass's artifacts; manifests name their directory."""
    h = hashlib.sha256()
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(work)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _same(values: list, what: str) -> list[str]:
    return [] if len(set(values)) <= 1 else [f"{what} differ between passes"]


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = import_library()
    result = Runner(workloads.WORKLOADS[args.workload], args.seed,
                    args.seconds).run(bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
