"""Joint transmit/control policy optimization over the renewal statistic.

Between two updates the controller acts open-loop: its information is the
last reported state ``s`` and the elapsed time ``d`` since that report, so
a policy is, per renewal state, a stopping time ``tau`` (when to request
the next update, capped by ``t_max``) plus the action sequence applied
while waiting.  Conditional on stopping times and action sequences the
renewal states form a Markov chain, which makes exact policy evaluation a
linear solve and lets policy iteration search the full plan space:

* evaluation: per-state discounted segment reward + discounted renewal
  kernel, then ``(I - K) v = c``;
* improvement: an exact branch-and-bound search of candidate plans per
  renewal state against the current values (a belief tree of
  ``|A|**tau`` nodes, pruned by full-information upper bounds in the
  spirit of Hauskrecht, JAIR 13, 2000), accepting only strict
  improvements.

Ties, values equal up to a rounding margin, are always resolved toward
the smaller stopping time, then the lexicographically smaller action
sequence, so outputs are reproducible bit for bit.

For estimation tasks the action is a state guess that does not affect the
dynamics; the per-step reward of the best guess is the largest belief
entry and the stored "action" is that guess as a 1-indexed state label.
For control tasks actions are matrix indices and the reward is a fixed
per-state vector.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .markov import MarkovModel, NumericalError, shannon_entropy, stationary_law

log = logging.getLogger("schedleak")


# policy iteration accepts a plan only if it beats the current value by more
# than this; a smaller margin lets rounding noise cycle improvements
_IMPROVEMENT_MARGIN = 1e-11
# policy iteration that runs this many sweeps raises NumericalError
_MAX_SWEEPS = 100_000


@dataclass(frozen=True)
class PlannerConfig:
    """Planner parameters: discount, transmission cost and horizon."""

    gamma: float = 0.95
    beta: float = 1.0
    t_max: int = 10

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta!r}")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")


@dataclass(frozen=True)
class SchedulingFunction:
    """Per-state inter-transmission interval, values in 1..t_max."""

    intervals: np.ndarray
    t_max: int

    def __post_init__(self):
        iv = np.asarray(self.intervals)
        if iv.dtype.kind == "f" and np.all(np.isfinite(iv) & (iv == np.round(iv))):
            iv = iv.astype(np.int64)
        if iv.ndim != 1 or iv.size == 0 or iv.dtype.kind not in "iu":
            raise ValueError("intervals must be a nonempty 1-D array of whole numbers, "
                             f"got {iv.tolist()!r}")
        iv = iv.astype(np.int64, copy=False)
        if np.any(iv < 1) or np.any(iv > self.t_max):
            raise ValueError("intervals must lie in 1..t_max")
        object.__setattr__(self, "intervals", iv)


@dataclass(frozen=True)
class JointPolicy(SchedulingFunction):
    """Schedule sigma(s) plus the control map pi(s, d) applied while waiting.

    ``control`` has shape (S, t_max) over elapsed times 0..t_max-1, one row
    per interval.  Control entries are action indices for control models
    and 1-indexed state guesses for estimation models.
    """

    control: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        ct = np.asarray(self.control, dtype=np.int64)
        if ct.shape != (len(self.intervals), self.t_max):
            raise ValueError(f"control has shape {ct.shape}, expected "
                             f"{(len(self.intervals), self.t_max)}: one row per interval")
        object.__setattr__(self, "control", ct)

    @property
    def transmit(self) -> np.ndarray:
        """Transmit map psi(s, d), shape (S, t_max+1) over elapsed times
        0..t_max: 1 from ``intervals[s]`` on, so 0 at d = 0 and 1 at t_max."""
        return (np.arange(self.t_max + 1) >= self.intervals[:, None]).astype(np.int64)


def extract_sigma(policy: JointPolicy) -> SchedulingFunction:
    """The policy's schedule alone."""
    return SchedulingFunction(policy.intervals, policy.t_max)


def policy_entropy(sigma: SchedulingFunction, num_states: int) -> float:
    """Entropy (bits) of the empirical distribution of interval values."""
    counts = np.bincount(sigma.intervals, minlength=sigma.t_max + 1)[1:]
    return shannon_entropy(counts / num_states)


def check_schedule(model: MarkovModel, sigma: SchedulingFunction, t_max: int) -> None:
    """Raise unless ``sigma`` has one interval per model state and the
    ``t_max`` of the planner it is used with."""
    if len(sigma.intervals) != model.num_states:
        raise ValueError(f"schedule has {len(sigma.intervals)} intervals, one per "
                         f"state is needed (num_states={model.num_states})")
    if sigma.t_max != t_max:
        raise ValueError(f"sigma t_max {sigma.t_max} does not match "
                         f"t_max {t_max} of the planner")


def single_state_deviation(sigma: SchedulingFunction, s_star: int,
                           tau: int) -> SchedulingFunction:
    """Copy of sigma with state ``s_star`` (1-indexed) remapped to ``tau``.

    The copy keeps the class and every other field, so a deviated
    ``JointPolicy`` carries the input's control table unchanged.
    """
    if not 1 <= tau <= sigma.t_max:
        raise ValueError(f"tau {tau} outside 1..{sigma.t_max}")
    if not 1 <= s_star <= len(sigma.intervals):
        raise ValueError(f"state {s_star} out of range")
    intervals = sigma.intervals.copy()
    intervals[s_star - 1] = tau
    return replace(sigma, intervals=intervals)


# ---------------------------------------------------------------------------
# segment beliefs and plan machinery
#
# A plan set is the pair (intervals, control table) that a JointPolicy
# holds: per renewal state a stopping time tau and a row of the control
# table.  Control rows hold action indices, zero from tau on; estimation
# rows hold 1-indexed state guesses.  Permitted stopping times are an
# (S, t_max+1) boolean mask.
# ---------------------------------------------------------------------------


def segment_beliefs(model: MarkovModel, control: np.ndarray | None,
                    t_max: int) -> np.ndarray:
    """Table ``pre[s, t]``: the belief ``t`` steps after a renewal at s.

    Shape (S, t_max+1, S) for t = 0..t_max.  Control models apply action
    ``control[s, t]`` at elapsed time t; estimation models ignore the
    table (it may be None), so ``pre[:, t]`` is the t-th matrix power.
    """
    n = model.num_states
    pre = np.empty((n, t_max + 1, n))
    pre[:, 0] = np.eye(n)
    for t in range(t_max):
        if model.num_actions == 1:
            pre[:, t + 1] = pre[:, t] @ model.transitions[0]
        else:
            pre[:, t + 1] = (pre[:, t, None, :] @ model.transitions[control[:, t]])[:, 0]
    return pre


def segment_stats(model: MarkovModel, cfg: PlannerConfig, pre: np.ndarray,
                  control: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment reward ``c[s, tau]`` and renewal rows ``K[s, tau]``, all tau.

    ``c = sum_{t<tau} gamma^t R[s, t] - gamma^tau beta`` and
    ``K = gamma^tau pre[s, tau]``, where R is the task reward of the belief
    for control models and the probability of the guessed state for
    estimation models (for MAP guesses, the largest belief entry).
    ``pre`` has shape (rows, T+1, S) and ``control`` (rows, T), for any
    number of rows and any width T.
    """
    gam = cfg.gamma ** np.arange(pre.shape[1])
    if model.num_actions == 1:
        r = np.take_along_axis(pre[:, :-1], control[:, :, None] - 1, axis=2)[:, :, 0]
    else:
        r = pre[:, :-1] @ model.task_reward
    c = np.zeros(pre.shape[:2])
    c[:, 1:] = np.cumsum(gam[:-1] * r, axis=1)
    return c - gam * cfg.beta, gam[:, None] * pre


def _plan_stats(model, cfg, control):
    return segment_stats(model, cfg, segment_beliefs(model, control, cfg.t_max), control)


def _values(c, k, taus) -> np.ndarray:
    """Renewal values of a plan set: solve (I - K) v = c on its rows."""
    idx = np.arange(len(taus))
    return np.linalg.solve(np.eye(len(taus)) - k[idx, taus], c[idx, taus])


def _greedy_stops(model, cfg, q, w, stacked, allowed, last):
    """Per state, the best permitted stop value along one greedy plan.

    All states dive at once, one node each: every step takes the action
    whose child has the best full-information bound over the stops still
    permitted.  The plan is a real one, so the value is a lower bound on
    the state's best plan, up to rounding.
    """
    n, na, t_max = model.num_states, model.num_actions, cfg.t_max
    rows = np.arange(n)
    beliefs = np.eye(n)
    acc = np.zeros(n)
    inc = np.full(n, -np.inf)
    for t in range(1, last.max() + 1):
        acc = acc + cfg.gamma ** (t - 1) * (beliefs @ model.task_reward)
        if allowed[:, t].any():
            ends = acc + cfg.gamma ** t * (beliefs @ q).max(axis=1)
            inc = np.where(allowed[:, t], np.maximum(inc, ends), inc)
        if t == last.max():
            break
        kids = (beliefs @ stacked).reshape(n, na, n)
        ahead = np.max(kids @ w[:, 1:t_max - t + 1], axis=2,
                       where=allowed[:, None, t + 1:], initial=-np.inf)
        beliefs = kids[rows, np.argmax(ahead, axis=1)]
    return inc


def _improve_control(model, cfg, v0, allowed):
    """Exact plan search: branch and bound over action prefixes, all
    states in one frontier per depth.

    A prefix is bounded by the full-information values ``W[:, j]`` of j
    more steps and then a permitted stop, which no open-loop plan can
    beat.  It is expanded only while that bound reaches its state's best
    plan found so far, its current value, and its incumbent less one
    margin, all less a rounding margin, so a sweep that finds no strict
    improvement certifies optimality against v0.  The incumbent is the
    best stop value on one greedy plan per state (``_greedy_stops``); it
    is never a result, and it prunes only subtrees a full tie window
    below any plan the tie rule could keep.

    Each depth holds the nodes of every state, state-major and, within a
    state, enumerated with earlier actions varying last (parent-major),
    so taking each state's first maximum, up to the margin, while
    scanning depths in ascending order realizes the (smaller tau,
    smaller actions) rule.  A node's value after one more action is read
    from the stop-value table ``q[:, a] = M_a @ (v0 - beta)`` of its
    parent's belief, so child beliefs are made only where the search
    goes deeper.  No node keeps its actions: node i of depth d + 1 takes
    ``i % na`` after survivor ``kept[d][i // na]`` of depth d, and only a
    new best is rebuilt.
    Returns (taus, control, values, nodes expanded, most nodes expanded
    at one depth).
    """
    n, na, t_max = model.num_states, model.num_actions, cfg.t_max
    r = model.task_reward
    stop_vec = -cfg.beta + v0
    q = (model.transitions @ stop_vec).T
    # beliefs are row vectors: children of row z are [z @ M_a for each a]
    stacked = np.concatenate(list(model.transitions), axis=1)
    w = np.empty((n, t_max + 1))
    w[:, 0] = stop_vec
    for j in range(1, t_max + 1):
        w[:, j] = r + cfg.gamma * (model.transitions @ w[:, j - 1]).max(axis=0)
    last = t_max - np.argmax(allowed[:, ::-1], axis=1)
    margin = 1e-12 * np.maximum(1.0, np.abs(v0))
    floor = np.maximum(v0, _greedy_stops(model, cfg, q, w, stacked, allowed, last) - margin)
    taus = np.ones(n, dtype=np.int64)
    control = np.zeros((n, t_max), dtype=np.int64)
    best_vals = np.full(n, -np.inf)
    own = np.arange(n)                  # the state of each node
    beliefs = np.eye(n)
    acc = np.zeros(n)
    kept = [own]                        # the roots survive
    expanded = widest = 0
    for t in range(1, last.max() + 1):
        expanded += len(acc)
        widest = max(widest, len(acc))
        step = cfg.gamma ** (t - 1) * (beliefs @ r)
        acc = np.repeat(acc + step, na)
        own = np.repeat(own, na)
        # row p*na + a is (parent p, action a): lexicographic order
        vals = acc + cfg.gamma ** t * (beliefs @ q).ravel()
        if allowed[:, t].any():
            # each state's first plan within the margin of its best: a
            # plan's rounding depends on its row in the batched product,
            # so exact ties can differ by an ulp
            states = np.flatnonzero(np.bincount(own, minlength=n))
            starts = np.searchsorted(own, states)
            top = np.maximum.reduceat(vals, starts)
            lim = np.empty(n)
            lim[states] = top - margin[states]
            near = np.flatnonzero(vals >= lim[own])
            i = near[np.searchsorted(own[near], states)]
            new = allowed[states, t] & (top > best_vals[states] + margin[states])
            states, i = states[new], i[new]
            best_vals[states] = vals[i]
            taus[states] = t
            for d in range(t - 1, -1, -1):
                i, control[states, d] = np.divmod(i, na)
                i = kept[d][i]
        if t == last.max():
            break
        beliefs = (beliefs @ stacked).reshape(-1, n)
        ahead = np.max(beliefs @ w[:, 1:t_max - t + 1], axis=1,
                       where=allowed[own, t + 1:], initial=-np.inf)
        bound = acc + cfg.gamma ** t * ahead
        keep = bound >= (np.maximum(best_vals, floor) - margin)[own]
        if not keep.any():
            break
        kept.append(np.flatnonzero(keep))
        if not keep.all():
            beliefs, acc, own = beliefs[keep], acc[keep], own[keep]
    return taus, control, best_vals, expanded, widest


def _policy_iteration(model, cfg, allowed, init_control=None):
    """Exact policy iteration over per-renewal-state plans.

    Plans start at each state's smallest permitted stopping time, with
    ``init_control`` (control models) or all-zero actions.  Estimation
    models guess by MAP, ties to the smaller state; their c and K tables
    never change, so they are built once and improvement is a masked
    argmax over stopping times.
    Control models improve by the exact branch-and-bound plan search.
    Every sweep is exact, so the first sweep that finds no strict
    improvement ends at a plan set optimal over the full plan space.
    Returns (taus, control, values).
    """
    n = model.num_states
    taus = np.argmax(allowed, axis=1)
    if model.num_actions == 1:
        pre = segment_beliefs(model, None, cfg.t_max)
        control = np.argmax(pre[:, :cfg.t_max], axis=2) + 1
        c, k = segment_stats(model, cfg, pre, control)
    else:
        control = (init_control if init_control is not None
                   else np.zeros((n, cfg.t_max), dtype=np.int64))
        c, k = _plan_stats(model, cfg, control)
    v0 = _values(c, k, taus)
    expanded = widest = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        if model.num_actions == 1:
            vals = np.where(allowed, c + k @ v0, -np.inf)
            cand_taus = np.argmax(vals, axis=1)
            best = vals[np.arange(n), cand_taus]
        else:
            cand_taus, cand_control, best, nodes, width = _improve_control(
                model, cfg, v0, allowed)
            expanded += nodes
            widest = max(widest, width)
        accept = best > v0 + _IMPROVEMENT_MARGIN
        if not accept.any():
            log.debug("policy iteration: %d sweeps, %d plan nodes expanded, "
                      "at most %d at one depth", sweep, expanded, widest)
            return taus, control, v0
        taus = np.where(accept, cand_taus, taus)
        if model.num_actions > 1:
            control = np.where(accept[:, None], cand_control, control)
            c, k = _plan_stats(model, cfg, control)
        v0 = _values(c, k, taus)
    raise NumericalError(f"policy iteration exceeded {_MAX_SWEEPS} sweeps")


# ---------------------------------------------------------------------------
# public solver surface
# ---------------------------------------------------------------------------


def solve_goc(model: MarkovModel, config: PlannerConfig) -> JointPolicy:
    """Jointly optimal goal-oriented transmit/control policy."""
    allowed = np.tile(np.arange(config.t_max + 1) > 0, (model.num_states, 1))
    taus, control, _ = _policy_iteration(model, config, allowed)
    return JointPolicy(taus, config.t_max, control)


def solve_periodic(model: MarkovModel, config: PlannerConfig) -> JointPolicy:
    """Best fixed-period policy: re-optimizes control for every period.

    Every state's interval is the period.  Period values that agree to
    within solver noise count as ties, which go to the smaller period.
    """
    best = None
    init = None
    for period in range(1, config.t_max + 1):
        allowed = np.tile(np.arange(config.t_max + 1) == period, (model.num_states, 1))
        taus, control, v0 = _policy_iteration(model, config, allowed, init)
        value = float(v0.mean())
        if best is None or value > best[0] + 1e-11 * max(1.0, abs(best[0])):
            best = (value, taus, control)
        if period < config.t_max:
            # warm-start the next period with one extra repeat of the last action
            init = control.copy()
            init[:, period] = control[:, period - 1]
    _, taus, control = best
    return JointPolicy(taus, config.t_max, control)


def best_control_for_sigma(model: MarkovModel, sigma: SchedulingFunction,
                           config: PlannerConfig,
                           init_control: np.ndarray | None = None) -> JointPolicy:
    """Re-derive the control map for a fixed transmission schedule.

    Policy iteration starts from all-zero plans, or from ``init_control``
    (shape (S, t_max)) with its entries from each state's interval on set
    to zero; a row that no sweep strictly improves is returned as given.
    Any start reaches an optimal table, but where plans tie, the one kept
    can depend on the start: the result equals the cold solve tie for tie
    when ``init_control`` is optimal for a neighbouring schedule, such as
    the goal-oriented table or the previous packing step's table.
    Estimation models ignore the table's values.
    """
    check_schedule(model, sigma, config.t_max)
    allowed = np.arange(config.t_max + 1) == sigma.intervals[:, None]
    if init_control is not None:
        init_control = np.asarray(init_control, dtype=np.int64)
        if init_control.shape != (model.num_states, config.t_max):
            raise ValueError(f"init_control has shape {init_control.shape}, "
                             f"expected {(model.num_states, config.t_max)}")
        init_control = np.where(np.arange(config.t_max) < sigma.intervals[:, None],
                                init_control, 0)
    taus, control, _ = _policy_iteration(model, config, allowed, init_control)
    return JointPolicy(taus, config.t_max, control)


def evaluate_policy(model: MarkovModel, policy: JointPolicy,
                    config: PlannerConfig) -> float:
    """Exact expected discounted return of a policy.

    Transmissions are forced at elapsed sigma(s); the start state is
    averaged uniformly, a policy-independent weighting that keeps value
    comparisons between schedules meaningful.
    """
    return float(evaluate_policy_values(model, policy, config).mean())


def evaluate_policy_values(model: MarkovModel, policy: JointPolicy,
                           config: PlannerConfig) -> np.ndarray:
    """Renewal values of a policy; estimation tables are read as the
    guesses made, not assumed to be MAP."""
    check_schedule(model, policy, config.t_max)
    c, k = _plan_stats(model, config, policy.control)
    return _values(c, k, policy.intervals)


def occupancy_distribution(model: MarkovModel, policy: JointPolicy) -> np.ndarray:
    """Long-run distribution of the true state under a renewal policy.

    The long-run law nu of the renewal-state chain (``markov.stationary_law``,
    exact on periodic and reducible chains too), then the time-average of
    the within-segment beliefs weighted by nu and segment lengths.
    """
    check_schedule(model, policy, policy.t_max)
    n = model.num_states
    taus = policy.intervals
    pre = segment_beliefs(model, policy.control, policy.t_max)
    nu = stationary_law(pre[np.arange(n), taus])
    occupancy = np.zeros(n)
    for s in range(n):
        occupancy += nu[s] * pre[s, :taus[s]].sum(axis=0)
    return occupancy / (nu * taus).sum()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def policy_to_json(policy: JointPolicy) -> str:
    doc = {
        "t_max": policy.t_max,
        "sigma": policy.intervals.tolist(),
        "psi": policy.transmit.tolist(),
        "pi": policy.control.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def policy_from_json(text: str) -> JointPolicy:
    """Policy of a ``policy_to_json`` document, built from ``sigma``,
    ``t_max`` and ``pi``; raises unless ``psi`` is the transmit map of
    ``sigma``."""
    doc = json.loads(text)
    t_max = doc["t_max"]
    if not (type(t_max) is int or isinstance(t_max, float) and t_max.is_integer()):
        raise ValueError(f"t_max must be a whole number, got {t_max!r}")
    jp = JointPolicy(np.array(doc["sigma"]), int(t_max), np.array(doc["pi"]))
    if not np.array_equal(np.array(doc["psi"]), jp.transmit):
        raise ValueError("psi is not the transmit map of sigma")
    return jp
