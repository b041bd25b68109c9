"""Deterministic episode execution and experiment sweeps.

An episode couples three actors: the process (advanced by a seeded
generator), the scheduler/controller (driving requests and actions off
the last reported state and elapsed time), and the listener (fed every
realized interval).  Per-step logs capture state, action, request flag,
rewards, leakage and the listener's delayed hit/miss; aggregates carry
means with standard errors.

Reproducibility: the stream for episode ``i`` under master seed ``m`` is
``numpy.random.default_rng([m, i])`` (seed-sequence splitting), so any
row of any sweep can be regenerated in isolation.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import defenses, eavesdropper, markov, policy
from .defenses import AdeState, DefenseMode
from .eavesdropper import EveEstimator, SegmentModel
from .markov import Scenario
from .policy import PlannerConfig

log = logging.getLogger("schedleak")

CSV_COLUMNS = ["n", "s", "a", "c", "r_task", "r_comm", "leakage", "eve_hit", "mode"]


class PolicyKind(Enum):
    MPI = "MPI"
    PP = "PP"
    ADE = "ADE"
    PDE = "PDE"


@dataclass(frozen=True)
class EpisodeConfig:
    scenario: Scenario = Scenario.ESTIMATION
    theta: float = 32.0
    beta: float = 1.0
    gamma: float = 0.95
    t_max: int = 10
    d_gap: int = 5
    n_steps: int = 200
    seed: int = 0
    policy_kind: PolicyKind = PolicyKind.MPI
    num_states: int = 30
    l_low: float = 0.4
    l_high: float = 0.6
    target_entropy_fraction: float = 0.5
    epsilon: float = 0.0

    def __post_init__(self):
        if self.num_states < 5:
            raise ValueError(f"num_states must be at least 5, got {self.num_states!r}")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive and finite, got {self.theta!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.d_gap < 0:
            raise ValueError("d_gap must be nonnegative")
        if not self.l_low < self.l_high:
            raise ValueError(f"need l_low < l_high, got {self.l_low!r} and {self.l_high!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if not 0 <= self.target_entropy_fraction <= 1:
            raise ValueError("target_entropy_fraction must be in [0, 1], got "
                             f"{self.target_entropy_fraction!r}")
        self.planner()  # validate planner parameters eagerly

    def planner(self) -> PlannerConfig:
        return PlannerConfig(gamma=self.gamma, beta=self.beta, t_max=self.t_max)


@dataclass
class EpisodeRecord:
    """Per-step log of one episode; arrays all have length n_steps."""

    states: np.ndarray
    actions: np.ndarray
    transmits: np.ndarray
    task_rewards: np.ndarray
    comm_rewards: np.ndarray
    leakages: np.ndarray
    eve_hits: np.ndarray
    eve_hit_truncated: np.ndarray
    modes: list[str]
    d_gap: int

    @property
    def total_rewards(self) -> np.ndarray:
        return self.task_rewards + self.comm_rewards

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for n in range(len(self.states)):
            writer.writerow([
                n, int(self.states[n]), int(self.actions[n]),
                int(self.transmits[n]),
                repr(float(self.task_rewards[n])),
                repr(float(self.comm_rewards[n])),
                repr(float(self.leakages[n])),
                int(self.eve_hits[n]), self.modes[n],
            ])


@dataclass(frozen=True)
class EpisodeMetrics:
    mean_leakage: float
    mean_total_reward: float
    mean_task_reward: float
    eve_accuracy: float
    transmission_probability: float
    weighted_performance: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class BatchMetrics:
    """Across-episode means and standard errors of the mean."""

    means: EpisodeMetrics
    stderrs: dict
    n_episodes: int

    def to_dict(self) -> dict:
        doc = self.means.to_dict()
        doc.update({f"se_{k}": v for k, v in self.stderrs.items()})
        doc["n_episodes"] = self.n_episodes
        return doc


class CellSolution:
    """Solved policies and listener models for one (scenario, theta, beta).

    Everything here is deterministic given the configuration, so a cell
    can be solved once and shared across episodes, gap values and defense
    parameters.  Each regime, the policy of a kind with the listener's
    model of it, is one ``SegmentModel`` built on first use by ``regime``.
    """

    def __init__(self, cfg: EpisodeConfig):
        self.scenario = cfg.scenario
        self.model = markov.build_model(cfg.theta, cfg.num_states, cfg.scenario)
        self.cdf = np.cumsum(self.model.transitions, axis=2)
        self.planner = cfg.planner()
        self.goc = policy.solve_goc(self.model, self.planner)
        self.sigma_goc = policy.extract_sigma(self.goc)
        self.pp_policy = policy.solve_periodic(self.model, self.planner)
        self.pp_period = int(self.pp_policy.intervals[0])
        self._pde_steps = None
        self._regimes: dict[tuple, SegmentModel] = {}
        self._occupancy: dict = {}

    def pde_steps(self):
        if self._pde_steps is None:
            self._pde_steps = defenses.pde_packing_steps(
                self.sigma_goc, self.model, self.planner, target_entropy=0.0,
                control=self.goc.control)
        return self._pde_steps

    def pde(self, fraction: float):
        """(policy, policy, regime) of the first packing step at or below
        fraction * H(sigma_goc), with ``regime = regime(PDE, fraction)``;
        the policy comes twice, as schedule and as policy."""
        r = self.regime(PolicyKind.PDE, fraction)
        return r.policy, r.policy, r

    def policy(self, kind: PolicyKind, fraction: float = 0.5) -> policy.JointPolicy:
        """A kind's policy.

        MPI is the goal-oriented policy, PP the periodic one and PDE the
        first packing step at or below fraction * H(sigma_goc).  ADE has no
        fixed schedule; it switches between the MPI and PP regimes, and is
        given the MPI policy.
        """
        if kind is PolicyKind.PDE:
            steps = self.pde_steps()
            return next(jp for jp, h in steps if h <= fraction * steps[0][1])
        return self.pp_policy if kind is PolicyKind.PP else self.goc

    def regime(self, kind: PolicyKind, fraction: float = 0.5) -> SegmentModel:
        """The listener's model of a kind's regime, holding ``policy(kind,
        fraction)``.  Built once per (kind, PDE fraction), so a repeated
        call returns the same object; ADE is given MPI's.
        """
        kind = PolicyKind.MPI if kind is PolicyKind.ADE else kind
        key = kind, round(float(fraction), 12) if kind is PolicyKind.PDE else None
        if key not in self._regimes:
            self._regimes[key] = SegmentModel(self.model, self.policy(kind, fraction))
        return self._regimes[key]

    def occupancy(self, kind: PolicyKind, fraction: float = 0.5) -> np.ndarray:
        """Long-run true-state distribution under a policy kind, memoised.

        Estimation dynamics ignore the schedule, so one distribution serves
        every kind; under control, ADE shares the goal-oriented one.
        """
        key = None if self.model.num_actions == 1 else self.regime(kind, fraction)
        if key not in self._occupancy:
            self._occupancy[key] = (markov.steady_state(self.model) if key is None else
                                    policy.occupancy_distribution(self.model, key.policy))
        return self._occupancy[key]


def run_episode(cfg: EpisodeConfig, solution: CellSolution | None = None,
                episode_index: int = 0) -> tuple[EpisodeRecord, EpisodeMetrics]:
    """Simulate one seeded episode under the configured policy kind.

    A given ``solution`` must have been solved for the cell of ``cfg``.
    """
    sol = solution if solution is not None else CellSolution(cfg)
    solved = {"scenario": sol.model.scenario, "theta": sol.model.density_decay,
              "num_states": sol.model.num_states, **dataclasses.asdict(sol.planner)}
    for name, value in solved.items():
        if getattr(cfg, name) != value:
            raise ValueError(f"the solution was solved for {name}={value!r}, "
                             f"but the episode has {name}={getattr(cfg, name)!r}")
    model, n_states = sol.model, sol.model.num_states
    n_steps, gap = cfg.n_steps, cfg.d_gap
    kind, fraction = cfg.policy_kind, cfg.target_entropy_fraction
    rng = np.random.default_rng([cfg.seed, episode_index])

    mu0 = sol.occupancy(kind, fraction)
    seg = sol.regime(kind, fraction)   # the regime in force; ADE switches it
    label = (DefenseMode.PERIODIC if kind is PolicyKind.PP else DefenseMode.GOC).value
    ade = None
    if kind is PolicyKind.ADE:
        ade = AdeState(mode=DefenseMode.GOC, l_low=cfg.l_low, l_high=cfg.l_high,
                       goc_segment=sol.regime(PolicyKind.MPI),
                       pp_segment=sol.regime(PolicyKind.PP))

    est = EveEstimator(model, active=seg, prior=mu0)

    states = np.zeros(n_steps, dtype=np.int64)
    actions = np.zeros(n_steps, dtype=np.int64)
    transmits = np.zeros(n_steps, dtype=np.int64)
    task_rewards = np.zeros(n_steps)
    leakages = np.zeros(n_steps)
    guesses = np.zeros(n_steps, dtype=np.int64)   # listener's MAP state, 0-indexed
    modes: list[str] = [""] * n_steps

    def draw(cdf_row) -> int:
        return int(min(np.searchsorted(cdf_row, rng.random(), side="right"),
                       n_states - 1))

    s = draw(np.cumsum(mu0))  # 0-indexed true state
    next_tx = 0
    control_row = None
    interval = None
    last_tx = 0
    for n in range(n_steps):
        if n == next_tx:
            if n > 0:
                est.observe(interval)
            if ade is not None:
                label = defenses.ade_schedule(s + 1, ade, est, gap).value
                seg = ade.segment
            interval, control_row = int(seg.policy.intervals[s]), seg.policy.control[s]
            est.set_active(seg)
            transmits[n] = 1
            last_tx = n
            next_tx = n + interval
        states[n] = s + 1
        a = int(control_row[n - last_tx])
        actions[n] = a
        if model.num_actions == 1:
            task_rewards[n] = 1.0 if a == s + 1 else 0.0
        else:
            task_rewards[n] = model.task_reward[s]
        # the leakage at n is over the window at n, whose oldest belief guesses s(n-gap)
        leakages[n] = est.leakage(n, gap)
        if n >= gap:
            guesses[n - gap] = np.argmax(est.belief_at_time(n, gap))
        modes[n] = label
        matrix_index = 0 if model.num_actions == 1 else a
        s = draw(sol.cdf[matrix_index, s])

    comm_rewards = -cfg.beta * transmits.astype(float)
    # guesses the episode end cuts short are made at its last step
    for d, bel in enumerate(est.window(n_steps - 1, gap)[:gap]):
        guesses[n_steps - 1 - d] = np.argmax(bel)
    truncated = np.arange(n_steps) + gap > n_steps - 1
    eve_hits = (guesses + 1 == states).astype(np.int64)
    log.debug("listener: %s episode, %d steps, %d requests observed, "
              "%d backward vectors, %d beliefs made, %d reused, "
              "trace log-likelihood %.6g, smallest forward normaliser %.3g",
              kind.value, n_steps, len(est.times), est.backward_vectors,
              est.beliefs_made, est.beliefs_reused, est.log_norms[-1],
              est.min_forward_norm)

    record = EpisodeRecord(states=states, actions=actions, transmits=transmits,
                           task_rewards=task_rewards, comm_rewards=comm_rewards,
                           leakages=leakages, eve_hits=eve_hits,
                           eve_hit_truncated=truncated, modes=modes,
                           d_gap=gap)
    metrics = EpisodeMetrics(
        mean_leakage=float(leakages.mean()),
        mean_total_reward=float(record.total_rewards.mean()),
        mean_task_reward=float(task_rewards.mean()),
        eve_accuracy=float(eve_hits.mean()),
        transmission_probability=float(transmits.mean()),
        weighted_performance=defenses.weighted_performance(
            record.total_rewards, leakages, cfg.epsilon),
    )
    return record, metrics


def run_batch(cfg: EpisodeConfig, n_episodes: int,
              solution: CellSolution | None = None) -> BatchMetrics:
    """Aggregate metrics over deterministically seeded episodes."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    sol = solution if solution is not None else CellSolution(cfg)
    episodes = [run_episode(cfg, sol, episode_index=i)[1] for i in range(n_episodes)]
    return aggregate(episodes)


def aggregate(episodes: list[EpisodeMetrics]) -> BatchMetrics:
    names = list(episodes[0].to_dict())
    table = {k: np.array([e.to_dict()[k] for e in episodes]) for k in names}
    means = EpisodeMetrics(**{k: float(v.mean()) for k, v in table.items()})
    n = len(episodes)
    stderrs = {k: (float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
               for k, v in table.items()}
    return BatchMetrics(means=means, stderrs=stderrs, n_episodes=n)


def sweep(base: EpisodeConfig, thetas, betas, d_gaps, kinds,
          n_episodes: int, solutions: dict | None = None) -> list[dict]:
    """One aggregated row per (theta, beta, d_gap, policy kind) cell.

    Policies are solved once per (theta, beta) and shared across rows;
    failures are recorded in-row and the sweep continues.
    """
    solutions = solutions if solutions is not None else {}
    rows = []
    for theta in thetas:
        for beta in betas:
            key = (base.scenario.value, float(theta), float(beta))
            try:
                if key not in solutions:
                    solutions[key] = CellSolution(
                        dataclasses.replace(base, theta=theta, beta=beta))
                sol = solutions[key]
            except Exception as exc:  # noqa: BLE001 - per-cell fault isolation
                for d in d_gaps:
                    for kind in kinds:
                        rows.append({"scenario": base.scenario.value,
                                     "theta": theta, "beta": beta, "d_gap": d,
                                     "policy": PolicyKind(kind).value,
                                     "error": f"{type(exc).__name__}: {exc}"})
                continue
            for d in d_gaps:
                for kind in kinds:
                    kind = PolicyKind(kind)
                    cfg = dataclasses.replace(base, theta=theta, beta=beta, d_gap=d,
                                              policy_kind=kind)
                    row = {"scenario": base.scenario.value, "theta": theta,
                           "beta": beta, "d_gap": d, "policy": kind.value}
                    try:
                        batch = run_batch(cfg, n_episodes, sol)
                        row.update(batch.to_dict())
                        row["policy_entropy"] = _kind_entropy(sol, kind, cfg)
                        row["min_leakage"] = eavesdropper.min_leakage(
                            sol.model, mu=sol.occupancy(kind, cfg.target_entropy_fraction))
                    except Exception as exc:  # noqa: BLE001
                        row["error"] = f"{type(exc).__name__}: {exc}"
                    rows.append(row)
    return rows


def _kind_entropy(sol: CellSolution, kind: PolicyKind, cfg: EpisodeConfig) -> float:
    if kind is PolicyKind.ADE:
        return float("nan")  # ADE alternates; its schedule has no fixed entropy
    return policy.policy_entropy(sol.policy(kind, cfg.target_entropy_fraction),
                                 sol.model.num_states)


def pareto_sweep(base: EpisodeConfig, ade_lows, pde_fractions,
                 n_episodes: int, solution: CellSolution | None = None) -> list[dict]:
    """Leakage/reward operating points for both defenses plus anchors.

    ADE points vary the lower threshold with a fixed 0.2 hysteresis band;
    packing points vary the target entropy as a fraction of the
    goal-oriented schedule entropy.  Every point's configuration is built
    first, so one outside the domain raises ``ValueError`` before the cell
    is solved.
    """
    points = [(PolicyKind.MPI, None, {}), (PolicyKind.PP, None, {})]
    points += [(PolicyKind.ADE, low, dict(l_low=low, l_high=low + 0.2))
               for low in map(float, ade_lows)]
    points += [(PolicyKind.PDE, frac, dict(target_entropy_fraction=frac))
               for frac in map(float, pde_fractions)]
    configs = [dataclasses.replace(base, policy_kind=kind, **overrides)
               for kind, _, overrides in points]
    sol = solution if solution is not None else CellSolution(base)
    rows = []
    for (kind, param, _), cfg in zip(points, configs):
        row = {"defense": kind.value, "param": param}
        try:
            batch = run_batch(cfg, n_episodes, sol)
            row.update(batch.to_dict())
        except Exception as exc:  # noqa: BLE001
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def pareto_filter(rows: list[dict]) -> list[dict]:
    """Keep points not dominated in (lower leakage, higher reward)."""
    ok = [r for r in rows if "error" not in r]
    kept = []
    for r in ok:
        dominated = any(
            o is not r
            and o["mean_leakage"] <= r["mean_leakage"]
            and o["mean_total_reward"] >= r["mean_total_reward"]
            and (o["mean_leakage"] < r["mean_leakage"]
                 or o["mean_total_reward"] > r["mean_total_reward"])
            for o in ok)
        if not dominated:
            kept.append(r)
    return kept


def rows_to_csv(rows: list[dict]) -> str:
    """Render sweep rows as CSV with a stable union-of-keys header."""
    fields = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
