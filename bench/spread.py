"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 --label first
    python3 bench/spread.py --seeds 11-20 --label second --against first

Runs the command in ``BENCHMARK.json`` once per workload and seed in the
inclusive range ``lo-hi``, one
process at a time, untraced, for ``run_seconds``.  For each metric it prints
the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, against
the metric's bound.  With ``--against`` it also prints how far each median
moved, in the metric's worse direction, from an earlier report.  Reports
are written to ``bench/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def seeds_arg(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", default=None, help="label of an earlier report")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    before = (json.loads((OUT / f"spread-{args.against}.json").read_text())
              if args.against else None)
    report = {}
    for name in names:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}, correct {res['correct']}",
                flush=True)
        entry = {"runs": runs, "metrics": {},
                 "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                 "correct": all(r["correct"] for r in runs)}
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": (q3 - q1) / med}
        report[name] = entry
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spread-{args.label}.json").write_text(json.dumps(report, indent=2))
    print(f"\n{'workload':<14} {'metric':<16} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'drift':>8}")
    for name, entry in report.items():
        for metric, st in entry["metrics"].items():
            spec = bounds[metric]
            drift = ""
            if before and name in before:
                old = before[name]["metrics"][metric]["median"]
                worse = (st["median"] - old) / old
                drift = f"{(worse if spec['better'] == 'lower' else -worse):+8.3f}"
            flag = "" if st["spread"] < spec["bound"] / 3 else "  WIDE"
            print(f"{name:<14} {metric:<16} {st['median']:>12.6g} {st['spread']:>8.4f} "
                  f"{spec['bound']:>6} {drift:>8}{flag}")
        print(f"{name:<14} failed share {entry['failed_share']}  correct {entry['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
