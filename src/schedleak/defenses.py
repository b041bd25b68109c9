"""Leakage countermeasures: hysteresis mode switching and entropy packing.

The alternating defense (ADE) runs online: at every renewal the scheduler
forecasts what the listener's certainty will be at the next request
instant, switches to the fixed-period schedule when that forecast crosses
an upper threshold, and back to the goal-oriented schedule when it falls
below a lower threshold.  The forecast is forward-only (a flat backward
boundary): at decision time no future observations exist, but the sender
controls the timing, so the listener's forward state is computable
exactly.

The packing defense (PDE) runs offline: starting from the goal-oriented
schedule it repeatedly applies the single-state deviation that lowers the
schedule entropy while costing the least reward, until a target entropy
is reached.  Its output is a plain schedule, usable as a lookup table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import policy
from .eavesdropper import EveEstimator, SegmentModel
from .markov import MarkovModel, shannon_entropy
from .policy import (PlannerConfig, SchedulingFunction, policy_entropy,
                     single_state_deviation)

log = logging.getLogger("schedleak")


class DefenseMode(Enum):
    GOC = "goc"
    PERIODIC = "periodic"


@dataclass
class AdeState:
    """Mode flag, hysteresis band and the fallback period.

    ``goc_segment``/``pp_segment`` are the listener-side models of the two
    regimes, used to forecast leakage under each hypothesis.
    """

    mode: DefenseMode
    l_low: float
    l_high: float
    period: int
    goc_segment: SegmentModel | None = None
    pp_segment: SegmentModel | None = None

    def __post_init__(self):
        if not self.l_low < self.l_high:
            raise ValueError("need l_low < l_high")


def forecast_leakage(est: EveEstimator, planned_interval: int, D: int,
                     segment_model: SegmentModel | None = None,
                     mode: str = "instant") -> float:
    """Leakage the listener would reach if the next interval were as planned.

    Simulates appending the interval to the timing trace and evaluates
    leakage at the anticipated next request instant (``mode="instant"``)
    or its maximum over every step of the hypothetical segment
    (``mode="interval_max"``).
    """
    probe = est.clone()
    if segment_model is not None:
        probe.set_active(segment_model)
    probe.observe(planned_interval)
    arrival = probe.times[-1]
    if mode == "instant":
        return probe.leakage(arrival, D)
    if mode == "interval_max":
        start = probe.times[-2] + 1
        return max(probe.leakage(h, D) for h in range(start, arrival + 1))
    raise ValueError(f"unknown forecast mode {mode!r}")


def ade_decide(mode: DefenseMode, forecast: float, ade: AdeState,
               sigma_s: int) -> tuple[int, DefenseMode]:
    """Pure hysteresis rule given the forecast for the active mode."""
    if mode is DefenseMode.GOC:
        if forecast >= ade.l_high:
            return ade.period, DefenseMode.PERIODIC
        return sigma_s, DefenseMode.GOC
    if forecast < ade.l_low:
        return sigma_s, DefenseMode.GOC
    return ade.period, DefenseMode.PERIODIC


def ade_schedule(s: int, ade: AdeState, sigma: SchedulingFunction,
                 est: EveEstimator, D: int,
                 forecast_mode: str = "instant") -> tuple[int, DefenseMode]:
    """Next interval and mode for a renewal at state ``s`` (1-indexed).

    In goal-oriented mode the forecast hypothesizes the goal-oriented
    interval sigma(s); in periodic mode it hypothesizes the period.  The
    mode the interval is scheduled under determines which schedule the
    listener should assume for it.
    """
    if ade.mode is DefenseMode.GOC:
        fc = forecast_leakage(est, sigma(s), D, ade.goc_segment, forecast_mode)
    else:
        fc = forecast_leakage(est, ade.period, D, ade.pp_segment, forecast_mode)
    interval, new_mode = ade_decide(ade.mode, fc, ade, sigma(s))
    ade.mode = new_mode
    return interval, new_mode


# ---------------------------------------------------------------------------
# packing defense
# ---------------------------------------------------------------------------


class _PackingScorer:
    """Scores a single-state deviation by swapping that state's row of the
    incumbent evaluation system (I - K) v = c and solving it again."""

    def _select(self, c_tab: np.ndarray, k_tab: np.ndarray,
                intervals: np.ndarray) -> None:
        idx = np.arange(len(intervals))
        self._c, self._k = c_tab[idx, intervals], k_tab[idx, intervals]

    def _swap_and_solve(self, s_idx: int, c_row: float, k_row: np.ndarray) -> float:
        c = self._c.copy()
        k = self._k.copy()
        c[s_idx] = c_row
        k[s_idx] = k_row
        v0 = np.linalg.solve(np.eye(len(c)) - k, c)
        return float(v0.mean())


class _EstimationScorer(_PackingScorer):
    """Exact candidate evaluation for guess tasks.

    MAP-guess segment rewards and renewal kernels are tabulated once for
    every stopping time, so scoring a single-state deviation is one row
    swap plus a linear solve.
    """

    def __init__(self, model: MarkovModel, cfg: PlannerConfig,
                 intervals: np.ndarray):
        pre = policy.segment_beliefs(model, None, cfg.t_max)
        self.c_tab, self.k_tab = policy.segment_stats(model, cfg, pre, None)
        self.refresh(intervals)

    def refresh(self, intervals: np.ndarray) -> None:
        self._select(self.c_tab, self.k_tab, intervals)

    def score_deviation(self, s_idx: int, tau: int) -> float:
        return self._swap_and_solve(s_idx, self.c_tab[s_idx, tau],
                                    self.k_tab[s_idx, tau])


class _ControlScorer(_PackingScorer):
    """Candidate evaluation with the control plan adapted to the schedule.

    Scanning hundreds of candidates per packing step makes a full control
    re-optimization per candidate impractical; candidates are scored with
    the incumbent plans, adapting only the deviated state's plan (prefix
    truncation, or a greedy stop-value extension) and swapping that one
    row of the evaluation system.  After a deviation is accepted the
    control maps are re-optimized exactly for the new schedule, warm from
    the table optimal for the previous one, which differs in one state;
    so a refresh runs few sweeps and prunes most of the plan tree.  The
    first refresh starts from ``control`` when given: a table optimal for
    the input schedule, which that refresh only certifies.
    """

    def __init__(self, model: MarkovModel, cfg: PlannerConfig,
                 intervals: np.ndarray, control: np.ndarray | None = None):
        self.model = model
        self.cfg = cfg
        self.control = control
        self.refresh(intervals)

    def refresh(self, intervals: np.ndarray) -> None:
        sigma = SchedulingFunction(intervals=intervals, t_max=self.cfg.t_max)
        self.taus = sigma.intervals
        self.control = policy.best_control_for_sigma(self.model, sigma, self.cfg,
                                                     self.control).control
        self.pre = policy.segment_beliefs(self.model, self.control, self.cfg.t_max)
        self._select(*policy.segment_stats(self.model, self.cfg, self.pre, self.control),
                     self.taus)
        self.v0 = np.linalg.solve(np.eye(len(self.taus)) - self._k, self._c)

    def score_deviation(self, s_idx: int, tau: int) -> float:
        actions = self.control[s_idx].copy()
        beliefs = self.pre[s_idx].copy()
        stop_vec = -self.cfg.beta + self.v0
        for t in range(self.taus[s_idx], tau):
            scores = [float((beliefs[t] @ m) @ stop_vec) for m in self.model.transitions]
            actions[t] = int(np.argmax(scores))
            beliefs[t + 1] = beliefs[t] @ self.model.transitions[actions[t]]
        c, k = policy.segment_stats(self.model, self.cfg, beliefs[None, :tau + 1],
                                    actions[None, :tau])
        return self._swap_and_solve(s_idx, c[0, tau], k[0, tau])


def pde_packing_steps(sigma0: SchedulingFunction, model: MarkovModel,
                      planner: PlannerConfig, target_entropy: float = 0.0,
                      control: np.ndarray | None = None
                      ) -> list[tuple[SchedulingFunction, float]]:
    """Accepted packing deviations, in order, down to the target entropy.

    Each step applies the reward-best single-state deviation among those
    that strictly lower the schedule entropy; candidates are scanned in
    ascending (state, interval) order and the first maximum is kept.  A
    candidate's entropy follows from the step's interval counts with one
    count moved, so it depends only on the (old, new) interval pair.
    ``control``, a control table optimal for ``sigma0`` such as the goal-
    oriented one, lets the first control refresh certify it in one sweep
    instead of searching; it never changes the result.  Returns
    [(schedule, entropy)] starting with the input schedule.
    """
    if target_entropy < 0:
        raise ValueError("target entropy must be nonnegative")
    policy.check_schedule(model, sigma0, planner.t_max)
    n = model.num_states
    if model.num_actions == 1:
        scorer = _EstimationScorer(model, planner, sigma0.intervals)
    else:
        scorer = _ControlScorer(model, planner, sigma0.intervals, control)
    current = sigma0
    h = policy_entropy(current, n)
    steps = [(current, h)]
    scored = evaluated = 0
    while h > target_entropy:
        counts = np.bincount(current.intervals, minlength=planner.t_max + 1)
        entropies: dict[tuple[int, int], float] = {}
        best = None
        for s_star in range(1, n + 1):
            old = current(s_star)
            for tau in range(1, planner.t_max + 1):
                if tau == old:
                    continue
                h_cand = entropies.get((old, tau))
                if h_cand is None:
                    moved = counts.copy()
                    moved[old] -= 1
                    moved[tau] += 1
                    h_cand = entropies[old, tau] = shannon_entropy(moved[1:] / n)
                if h_cand >= h:
                    continue
                score = scorer.score_deviation(s_star - 1, tau)
                scored += 1
                if best is None or score > best[0]:
                    best = (score, s_star, tau, h_cand)
        evaluated += len(entropies)
        if best is None:
            break
        _, s_star, tau, h = best
        current = single_state_deviation(current, s_star, tau)
        scorer.refresh(current.intervals)
        steps.append((current, h))
    log.debug("pde packing: %d steps accepted, %d candidates scored, "
              "%d distinct entropy evaluations, final entropy %.6g",
              len(steps) - 1, scored, evaluated, h)
    return steps


def weighted_performance(records, epsilon: float, D: int | None = None) -> float:
    """Sum over steps of total reward minus ``epsilon`` times leakage.

    ``records`` is either an episode record (with ``total_rewards`` and
    ``leakages`` arrays, leakage computed at its own opacity gap) or an
    iterable of (reward, leakage) pairs.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if hasattr(records, "total_rewards"):
        if D is not None and getattr(records, "d_gap", D) != D:
            raise ValueError("record leakage was computed at a different gap")
        rewards = np.asarray(records.total_rewards, dtype=float)
        leak = np.asarray(records.leakages, dtype=float)
    else:
        pairs = list(records)
        rewards = np.array([p[0] for p in pairs], dtype=float)
        leak = np.array([p[1] for p in pairs], dtype=float)
    return float(rewards.sum() - epsilon * leak.sum())
