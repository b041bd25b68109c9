"""Hash the CLI's artifacts for a fixed set of configs, to compare two trees.

Usage::

    python tests/cli_artifacts.py OUT

runs ``solve``, ``simulate`` (trace on, ``d_gap`` [3, 5]) and ``pareto``
with ``--workers 1``, 100 steps, 3 episodes and seed 7, on the estimation
grid theta {8, 32} x beta {0.5, 1} and on the control cell (32, 1), and
writes the outputs under ``OUT``.  It prints one ``name sha256`` line per
artifact, sorted by name, 31 in all; ``manifest.json`` files are left out,
since they hold the output paths.  Run it on two trees into two fresh
directories and ``diff`` the printed lines: a change that should leave
results alone must print the same lines.  The hashes depend on the
machine's floating point, so they are compared between trees on one
machine and kept out of the test suite.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schedleak import cli  # noqa: E402

CONFIGS = {
    "estimation": {"model": {"scenario": "estimation", "theta": [8, 32]},
                   "planner": {"beta": [0.5, 1]}},
    "control": {"model": {"scenario": "control", "theta": 32},
                "planner": {"beta": 1}},
}
SIMULATION = {"n_steps": 100, "n_episodes": 3, "d_gap": [3, 5], "trace": True, "seed": 7}


def artifacts(out: Path) -> dict[str, str]:
    """Run every command on every config under ``out``; name -> sha256."""
    hashes = {}
    for label, sections in CONFIGS.items():
        config = out / f"{label}.json"
        config.write_text(json.dumps({**sections, "simulation": SIMULATION}))
        for command in ("solve", "simulate", "pareto"):
            target = out / label / command
            code = cli.main([command, "--config", str(config), "--out", str(target),
                             "--workers", "1"])
            if code != 0:
                raise SystemExit(f"{label} {command} exited {code}")
            for path in sorted(target.iterdir()):
                if path.name != "manifest.json":
                    name = f"{label}/{command}/{path.name}"
                    hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_artifacts.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, digest in sorted(artifacts(out).items()):
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
