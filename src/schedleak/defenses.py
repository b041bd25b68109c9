"""Leakage countermeasures: hysteresis mode switching and entropy packing.

The alternating defense (ADE) runs online: at every renewal the scheduler
forecasts the listener's highest certainty over the segment the current
regime would schedule next, switches to the fixed-period schedule when
that forecast crosses an upper threshold, and back to the goal-oriented
schedule when it falls below a lower threshold.  The forecast is
forward-only (a flat backward boundary): at decision time no future
observations exist, but the sender controls the timing, so the listener's
forward state is computable exactly.

The packing defense (PDE) runs offline: starting from the goal-oriented
schedule it repeatedly applies the single-state deviation that lowers the
schedule entropy while costing the least reward, until a target entropy
is reached.  Each accepted schedule comes with its best control table,
so a step is a policy, usable as a lookup table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import policy
from .eavesdropper import EveEstimator, SegmentModel
from .markov import MarkovModel
from .policy import (PlannerConfig, SchedulingFunction, policy_entropy,
                     single_state_deviation)

log = logging.getLogger("schedleak")


class DefenseMode(Enum):
    GOC = "goc"
    PERIODIC = "periodic"


@dataclass
class AdeState:
    """Mode flag, hysteresis band and the listener-side models of the two
    regimes; ``segment`` is the regime the current mode schedules under."""

    mode: DefenseMode
    l_low: float
    l_high: float
    goc_segment: SegmentModel
    pp_segment: SegmentModel

    def __post_init__(self):
        if not self.l_low < self.l_high:
            raise ValueError("need l_low < l_high")

    @property
    def segment(self) -> SegmentModel:
        return self.goc_segment if self.mode is DefenseMode.GOC else self.pp_segment


def forecast_leakage(est: EveEstimator, planned_interval: int, D: int,
                     segment_model: SegmentModel) -> float:
    """Leakage the listener would reach if the next interval were as planned.

    Simulates appending the interval, scheduled under ``segment_model``, to
    the timing trace and returns the maximum leakage over every step of
    that hypothetical segment.
    """
    probe = est.clone()
    probe.set_active(segment_model)
    probe.observe(planned_interval)
    start, arrival = probe.times[-2] + 1, probe.times[-1]
    return max(probe.leakage(h, D) for h in range(start, arrival + 1))


def ade_decide(mode: DefenseMode, forecast: float, l_low: float,
               l_high: float) -> DefenseMode:
    """Pure hysteresis rule given the forecast for the active mode."""
    if mode is DefenseMode.GOC:
        return DefenseMode.PERIODIC if forecast >= l_high else DefenseMode.GOC
    return DefenseMode.GOC if forecast < l_low else DefenseMode.PERIODIC


def ade_schedule(s: int, ade: AdeState, est: EveEstimator, D: int) -> DefenseMode:
    """Mode for a renewal at state ``s`` (1-indexed); updates ``ade.mode``.

    The forecast hypothesizes the interval that the current mode's regime
    assigns to ``s``, under that regime; the mode the interval is then
    scheduled under determines which regime the listener should assume.
    """
    seg = ade.segment
    fc = forecast_leakage(est, int(seg.policy.intervals[s - 1]), D, seg)
    ade.mode = ade_decide(ade.mode, fc, ade.l_low, ade.l_high)
    return ade.mode


# ---------------------------------------------------------------------------
# packing defense
# ---------------------------------------------------------------------------


def _deviation_table(model: MarkovModel, cfg: PlannerConfig,
                     jp: policy.JointPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Segment reward ``c[s, tau]`` and renewal row ``K[s, tau]`` of every
    single-state deviation of ``jp``, from ``policy.segment_stats``.

    Estimation models score the guess table of ``jp``, which covers every
    elapsed time.  On control models, with ``jp`` optimal for its
    schedule, a deviation keeps the incumbent plan, truncated or extended
    greedily toward the stop values of ``jp``; a greedy step depends only
    on the plan before it, so each plan is extended to ``t_max`` once and
    shorter extensions are its prefixes.  Each depth extends every plan
    that has ended by one step, reading the one-step stop values of all
    actions from the table ``q[:, a] = M_a @ stop``.
    """
    beliefs = policy.segment_beliefs(model, jp.control, cfg.t_max)
    if model.num_actions == 1:
        return policy.segment_stats(model, cfg, beliefs, jp.control)
    stop_vec = -cfg.beta + policy.evaluate_policy_values(model, jp, cfg)
    q = (model.transitions @ stop_vec).T
    actions = jp.control.copy()
    for t in range(int(jp.intervals.min()), cfg.t_max):
        ext = np.flatnonzero(jp.intervals <= t)
        actions[ext, t] = np.argmax(beliefs[ext, t] @ q, axis=1)
        beliefs[ext, t + 1] = (beliefs[ext, t, None, :]
                               @ model.transitions[actions[ext, t]])[:, 0]
    return policy.segment_stats(model, cfg, beliefs, actions)


def pde_packing_steps(sigma0: SchedulingFunction, model: MarkovModel,
                      planner: PlannerConfig, target_entropy: float = 0.0,
                      control: np.ndarray | None = None
                      ) -> list[tuple[policy.JointPolicy, float]]:
    """Accepted packing deviations, in order, down to the target entropy.

    Each step applies the reward-best single-state deviation among those
    that strictly lower the schedule entropy; candidates are taken in
    ascending (state, interval) order and the first maximum is kept.
    Moving a state from an interval shared by ``a`` states to one shared
    by ``b`` changes the entropy by ``-[g(a-1) + g(b+1) - g(a) - g(b)] /
    (n ln 2)`` with ``g(c) = c ln c`` strictly convex, so it lowers the
    entropy exactly when ``b >= a``; candidates are picked by that integer
    rule (``b = a - 1`` only swaps two counts and is never taken).  A
    candidate's score is the mean renewal value of the evaluation system
    (I - K) v = c with that state's row swapped; all of a step's systems
    are solved in one stacked call.

    Every accepted schedule carries its best control table: the first is
    ``policy.best_control_for_sigma`` of ``sigma0``, where ``control``, a
    table optimal for ``sigma0`` such as the goal-oriented one, lets the
    refresh certify it in one sweep instead of searching (it never changes
    the result).  On control models each later schedule, the last one
    included, is refreshed warm from the previous step's table; estimation
    models keep the first step's guess table, which does not depend on the
    schedule.  Returns [(policy, entropy)] starting with ``sigma0``.
    """
    if target_entropy < 0:
        raise ValueError("target entropy must be nonnegative")
    n = model.num_states
    current = policy.best_control_for_sigma(model, sigma0, planner, control)
    h = policy_entropy(current, n)
    steps = [(current, h)]
    if model.num_actions == 1:
        c_tab, k_tab = _deviation_table(model, planner, current)
    scored = 0
    idx = np.arange(n)
    # while h > target >= 0 two intervals are in use, so moving a state from
    # the less shared one to the more shared one is always a candidate
    while h > target_entropy:
        taus = current.intervals
        if model.num_actions > 1:
            c_tab, k_tab = _deviation_table(model, planner, current)
        counts = np.bincount(taus, minlength=planner.t_max + 1)
        lowers = counts >= counts[taus][:, None]   # never interval 0: counts[0] = 0
        lowers[idx, taus] = False
        cand_s, cand_tau = np.nonzero(lowers)
        scored += len(cand_s)
        rows = np.arange(len(cand_s))
        a = np.repeat((np.eye(n) - k_tab[idx, taus])[None], len(cand_s), axis=0)
        b = np.repeat(c_tab[idx, taus][None], len(cand_s), axis=0)
        a[rows, cand_s] = np.eye(n)[cand_s] - k_tab[cand_s, cand_tau]
        b[rows, cand_s] = c_tab[cand_s, cand_tau]
        scores = np.linalg.solve(a, b[..., None])[..., 0].mean(axis=1)
        best = int(np.argmax(scores))
        current = single_state_deviation(current, int(cand_s[best]) + 1, int(cand_tau[best]))
        if model.num_actions > 1:
            current = policy.best_control_for_sigma(model, current, planner, current.control)
        h = policy_entropy(current, n)
        steps.append((current, h))
    log.debug("pde packing: %d steps accepted, %d candidates scored, final entropy %.6g",
              len(steps) - 1, scored, h)
    return steps


def weighted_performance(rewards, leakages, epsilon: float) -> float:
    """Sum over steps of total reward minus ``epsilon`` times leakage."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return float(np.asarray(rewards, dtype=float).sum()
                 - epsilon * np.asarray(leakages, dtype=float).sum())
