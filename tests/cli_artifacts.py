"""Hash the CLI's artifacts and seeded episodes, to compare two trees.

Usage::

    python tests/cli_artifacts.py OUT

runs ``solve``, ``simulate`` (trace on, ``d_gap`` [3, 5]) and ``pareto``
with ``--workers 1``, 100 steps, 3 episodes and seed 7, on the estimation
grid theta {8, 32} x beta {0.5, 1} and on the control cell (32, 1), and
writes the outputs under ``OUT``.  It prints one ``name sha256`` line per
artifact, sorted by name, 31 in all; ``manifest.json`` files are left out,
since they hold the output paths.  One more line, ``library/episodes``,
hashes the records of seeded ``run_episode`` calls: every policy kind at
gaps 0, 3 and 5, 2 episodes of 300 steps, seed 7, in the estimation cells
(32, 1) and (8, 0.5) and the control cell (32, 1).  A last line,
``library/planner``, hashes the planner's output on the control cells
theta {0.5, 2, 8, 32} x beta {0.2, 1, 3}: the ``policy_to_json`` of
``solve_goc``, of ``solve_periodic`` and of every ``pde_packing_steps``
step from the goal-oriented schedule and table.  The line after it,
``library/planner-deep``, hashes the ``policy_to_json`` of ``solve_goc``
and ``solve_periodic`` at ``t_max`` 12 on the control cells (32, 1) and
(8, 3), where the plan trees are nine times larger.  Run it on two trees
into two fresh directories and ``diff`` the printed lines: a change that
should leave results alone must print the same lines.  The hashes depend
on the machine's floating point, so they are compared between trees on
one machine and kept out of the test suite.  The file name keeps pytest
from collecting it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from schedleak import cli, defenses, markov, policy, simulate  # noqa: E402
from schedleak.markov import Scenario  # noqa: E402

CONFIGS = {
    "estimation": {"model": {"scenario": "estimation", "theta": [8, 32]},
                   "planner": {"beta": [0.5, 1]}},
    "control": {"model": {"scenario": "control", "theta": 32},
                "planner": {"beta": 1}},
}
SIMULATION = {"n_steps": 100, "n_episodes": 3, "d_gap": [3, 5], "trace": True, "seed": 7}
EPISODE_CELLS = [(Scenario.ESTIMATION, 32.0, 1.0), (Scenario.ESTIMATION, 8.0, 0.5),
                 (Scenario.CONTROL, 32.0, 1.0)]
PLANNER_CELLS = [(theta, beta) for theta in (0.5, 2.0, 8.0, 32.0) for beta in (0.2, 1.0, 3.0)]
DEEP_CELLS = [(32.0, 1.0), (8.0, 3.0)]


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


def episodes_digest() -> str:
    """sha256 over the per-step records of the seeded library episodes."""
    digest = hashlib.sha256()
    for scenario, theta, beta in EPISODE_CELLS:
        base = simulate.EpisodeConfig(scenario=scenario, theta=theta, beta=beta,
                                      n_steps=300, seed=7)
        sol = simulate.CellSolution(base)
        for kind in simulate.PolicyKind:
            for gap in (0, 3, 5):
                cfg = dataclasses.replace(base, policy_kind=kind, d_gap=gap)
                for i in range(2):
                    rec, _ = simulate.run_episode(cfg, sol, episode_index=i)
                    for field in (rec.states, rec.actions, rec.transmits, rec.task_rewards,
                                  rec.leakages, rec.eve_hits, rec.eve_hit_truncated):
                        digest.update(np.ascontiguousarray(field).tobytes())
                    digest.update(" ".join(rec.modes).encode())
    return digest.hexdigest()


def planner_digest() -> str:
    """sha256 over the goal-oriented, periodic and packing policies of the
    control planner cells."""
    digest = hashlib.sha256()
    for theta, beta in PLANNER_CELLS:
        model = markov.build_model(theta, 30, Scenario.CONTROL)
        planner = policy.PlannerConfig(beta=beta)
        goc = policy.solve_goc(model, planner)
        steps = defenses.pde_packing_steps(policy.extract_sigma(goc), model, planner,
                                           0.0, goc.control)
        for jp in [goc, policy.solve_periodic(model, planner)] + [jp for jp, _ in steps]:
            digest.update(policy.policy_to_json(jp).encode())
    return digest.hexdigest()


def deep_planner_digest() -> str:
    """sha256 over the goal-oriented and periodic policies at t_max 12."""
    digest = hashlib.sha256()
    for theta, beta in DEEP_CELLS:
        model = markov.build_model(theta, 30, Scenario.CONTROL)
        planner = policy.PlannerConfig(beta=beta, t_max=12)
        for jp in (policy.solve_goc(model, planner), policy.solve_periodic(model, planner)):
            digest.update(policy.policy_to_json(jp).encode())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_artifacts.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, digest in sorted(artifacts(out).items()):
        print(name, digest)
    print("library/episodes", episodes_digest())
    print("library/planner", planner_digest())
    print("library/planner-deep", deep_planner_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
