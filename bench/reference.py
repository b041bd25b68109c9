"""Reference figures quoted in bench/README.md.

    python3 bench/reference.py

One process, BLAS pinned to one thread: the estimation and control cells
at (theta=32, beta=1), their packing passes, and one estimation episode
of every kind at 200 and 800 steps (seed 42).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schedleak import defenses, markov, policy, simulate  # noqa: E402
from schedleak.markov import Scenario  # noqa: E402
from schedleak.simulate import EpisodeConfig, PolicyKind  # noqa: E402


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def main() -> None:
    est = EpisodeConfig(scenario=Scenario.ESTIMATION, theta=32.0, beta=1.0, d_gap=5, seed=42)
    sol, dt = timed(simulate.CellSolution, est)
    print(f"estimation cell: CellSolution {dt:.3f} s")
    steps, dt = timed(sol.pde_steps)
    print(f"estimation cell: packing {dt:.3f} s over {len(steps) - 1} steps")

    ctl = dataclasses.replace(est, scenario=Scenario.CONTROL)
    model = markov.build_model(ctl.theta, ctl.num_states, ctl.scenario)
    planner = ctl.planner()
    goc, dt = timed(policy.solve_goc, model, planner)
    print(f"control cell: solve_goc {dt:.3f} s")
    _, dt = timed(policy.solve_periodic, model, planner)
    print(f"control cell: solve_periodic {dt:.3f} s")
    csteps, dt = timed(defenses.pde_packing_steps, policy.extract_sigma(goc), model, planner)
    print(f"control cell: pde_packing_steps {dt:.3f} s over {len(csteps) - 1} steps")

    for n_steps in (200, 800):
        for kind in PolicyKind:
            cfg = dataclasses.replace(est, n_steps=n_steps, policy_kind=kind)
            _, dt = timed(simulate.run_episode, cfg, sol)
            print(f"estimation episode {kind.value} n={n_steps}: {dt:.3f} s")


if __name__ == "__main__":
    main()
