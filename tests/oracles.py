"""Independent brute-force oracles for the test suite.

These deliberately share no smoothing/solver code with the package: the
posterior oracle enumerates complete state trajectories and filters them
by timing consistency; the policy oracle enumerates complete joint
policies (or every action sequence under a fixed schedule) and
evaluates each by linear solve; the return oracle is a seeded Monte-Carlo
rollout; the occupancy oracle solves for the stationary law of the
explicit (last reported state, elapsed time, true state) chain; the
propagation oracle pushes a belief forward one step at a time under an
open-loop control plan.  Two references are the exception.  The packing
reference scans candidates one at a time on the package's own segment
tables and planner, and pins down the batched scan of
``pde_packing_steps``.  The plan-search reference is the package's
earlier branch and bound, one state at a time with no incumbent, and
pins down the one-frontier search of ``policy._improve_control``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def enum_posteriors(transitions: np.ndarray, prior: np.ndarray,
                    segments: list[tuple[int, np.ndarray, np.ndarray | None]],
                    open_segment: tuple[np.ndarray, np.ndarray | None],
                    horizon: int) -> np.ndarray:
    """Exact posteriors at every time 0..horizon by path enumeration.

    ``segments`` lists the completed intervals as (tau, schedule vector,
    per-state action table or None); ``open_segment`` is the (schedule,
    actions) pair in force after the last transmission.  Transmissions
    happen at times 0, tau_1, tau_1+tau_2, ...; consistency requires the
    state at each transmission to schedule exactly the interval that
    followed.  No condition is imposed on the open segment (the absence
    of further traffic is not informative in this model).  Returns an
    array of shape (horizon+1, S).
    """
    n = transitions.shape[1]
    t_marks = [0]
    for tau, _, _ in segments:
        t_marks.append(t_marks[-1] + tau)
    horizon = max(horizon, t_marks[-1])
    paths = np.array(list(itertools.product(range(n), repeat=horizon + 1)),
                     dtype=np.int64)
    w = prior[paths[:, 0]].astype(float).copy()
    for t in range(horizon):
        seg = np.searchsorted(np.asarray(t_marks), t, side="right") - 1
        if seg < len(segments):
            _, _, plan = segments[seg]
        else:
            _, plan = open_segment
        renewal = paths[:, t_marks[seg]]
        offset = t - t_marks[seg]
        if plan is None:
            actions = np.zeros(len(paths), dtype=np.int64)
        else:
            actions = plan[renewal, offset]
        w *= transitions[actions, paths[:, t], paths[:, t + 1]]
    for j, (tau, taus_vec, _) in enumerate(segments):
        w *= taus_vec[paths[:, t_marks[j]]] == tau
    total = w.sum()
    if total <= 0:
        raise ValueError("no consistent trajectory")
    out = np.empty((horizon + 1, n))
    for m in range(horizon + 1):
        out[m] = np.bincount(paths[:, m], weights=w, minlength=n) / total
    return out


def enum_posterior(transitions, prior, segments, open_segment, m):
    """Single-time wrapper around :func:`enum_posteriors`."""
    return enum_posteriors(transitions, prior, segments, open_segment, m)[m]


def random_stochastic(rng: np.random.Generator, num_actions: int,
                      num_states: int, sparse: bool = False) -> np.ndarray:
    """Random row-stochastic transition tensor, optionally sparsified."""
    t = rng.dirichlet(np.ones(num_states), size=(num_actions, num_states))
    if sparse:
        mask = rng.random((num_actions, num_states, num_states)) < 0.5
        mask[:, :, 0] = True  # keep rows nonzero
        t = t * mask
        t = t / t.sum(axis=2, keepdims=True)
    return t


def enumerate_joint_policies(num_states: int, num_actions: int, t_max: int):
    """All (tau, action sequence) plans per state, as a cartesian iterator."""
    per_state = []
    for tau in range(1, t_max + 1):
        for actions in itertools.product(range(num_actions), repeat=tau):
            per_state.append((tau, actions))
    return itertools.product(per_state, repeat=num_states)


def evaluate_joint(transitions: np.ndarray, reward_vec: np.ndarray | None,
                   plans, gamma: float, beta: float) -> np.ndarray:
    """Exact renewal values of one joint plan assignment (linear solve).

    ``reward_vec`` None means the guess task: per-step reward is the
    largest belief entry.
    """
    n = transitions.shape[1]
    c = np.zeros(n)
    k = np.zeros((n, n))
    for s, (tau, actions) in enumerate(plans):
        belief = np.zeros(n)
        belief[s] = 1.0
        total = 0.0
        for t in range(tau):
            step = belief.max() if reward_vec is None else float(belief @ reward_vec)
            total += gamma ** t * step
            belief = belief @ transitions[actions[t]]
        c[s] = total - gamma ** tau * beta
        k[s] = gamma ** tau * belief
    return np.linalg.solve(np.eye(n) - k, c)


def brute_force_best(transitions: np.ndarray, reward_vec: np.ndarray | None,
                     gamma: float, beta: float, t_max: int) -> np.ndarray:
    """Optimal renewal values over all joint policies (exhaustive)."""
    num_actions, n = transitions.shape[0], transitions.shape[1]
    best = None
    for plans in enumerate_joint_policies(n, num_actions, t_max):
        v = evaluate_joint(transitions, reward_vec, plans, gamma, beta)
        if best is None:
            best = v
        else:
            best = np.maximum(best, v)
    return best


def brute_force_for_schedule(transitions: np.ndarray, reward_vec: np.ndarray,
                             gamma: float, beta: float,
                             intervals: np.ndarray) -> np.ndarray:
    """Optimal renewal values when state s must stop at ``intervals[s]``:
    every action sequence of that length is enumerated per state."""
    num_actions = transitions.shape[0]
    per_state = [[(int(tau), actions)
                  for actions in itertools.product(range(num_actions), repeat=int(tau))]
                 for tau in intervals]
    best = None
    for plans in itertools.product(*per_state):
        v = evaluate_joint(transitions, reward_vec, plans, gamma, beta)
        best = v if best is None else np.maximum(best, v)
    return best


def monte_carlo_return(transitions: np.ndarray, reward_vec: np.ndarray | None,
                       intervals: np.ndarray, control: np.ndarray | None,
                       gamma: float, beta: float, n_episodes: int,
                       horizon: int, seed: int) -> tuple[float, float]:
    """Seeded rollout estimate of the uniform-start discounted return.

    ``control`` rows hold 1-indexed guesses when ``reward_vec`` is None,
    action indices otherwise.  All episodes step together: each step draws
    one uniform per episode and takes the next state by inverse CDF.
    Returns (mean, standard error).
    """
    rng = np.random.default_rng(seed)
    n = transitions.shape[1]
    cdf = np.cumsum(transitions, axis=2)
    s = rng.integers(n, size=n_episodes)
    last, elapsed = s.copy(), np.zeros(n_episodes, dtype=np.int64)
    disc = 1.0
    value = np.zeros(n_episodes)
    for _ in range(horizon):
        renew = elapsed == intervals[last]
        last[renew], elapsed[renew] = s[renew], 0
        value -= disc * beta * renew
        if reward_vec is None:
            value += disc * (control[last, elapsed] - 1 == s)
            a = np.zeros(n_episodes, dtype=np.int64)
        else:
            a = control[last, elapsed] if control is not None else np.zeros_like(s)
            value += disc * reward_vec[s]
        u = rng.random(n_episodes)
        s = np.minimum((cdf[a, s] <= u[:, None]).sum(axis=1), n - 1)
        elapsed += 1
        disc *= gamma
    return float(value.mean()), float(value.std(ddof=1) / np.sqrt(n_episodes))


def renewal_occupancy(transitions: np.ndarray, intervals: np.ndarray,
                      control: np.ndarray | None) -> np.ndarray:
    """Long-run distribution of the true state under a renewal schedule.

    Builds the chain over (last reported state r, elapsed time d < tau(r),
    true state x) explicitly, solves pi P = pi with the normalization row
    appended, and marginalizes onto x.  ``control`` rows hold action
    indices; None means the single action.
    """
    n = transitions.shape[1]
    index = {(r, d, x): None for r in range(n) for d in range(int(intervals[r]))
             for x in range(n)}
    for i, key in enumerate(index):
        index[key] = i
    p = np.zeros((len(index), len(index)))
    for (r, d, x), i in index.items():
        a = int(control[r, d]) if control is not None else 0
        for y in range(n):
            nxt = (y, 0, y) if d + 1 == int(intervals[r]) else (r, d + 1, y)
            p[i, index[nxt]] += transitions[a, x, y]
    m = len(index)
    lhs = np.vstack([p.T - np.eye(m), np.ones(m)])
    rhs = np.zeros(m + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    occupancy = np.zeros(n)
    for (_, _, x), i in index.items():
        occupancy[x] += pi[i]
    return occupancy


@dataclass(frozen=True)
class ControlPlan:
    """Open-loop action schedule between updates.

    ``actions[s, d]`` is the action applied ``d`` steps after the last
    update reported state ``s+1`` (0-indexed row for 1-indexed state).
    Estimation models use the all-zeros plan (the only action).
    """

    actions: np.ndarray


def check_belief(belief: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    b = np.asarray(belief, dtype=float)
    if b.ndim != 1 or np.any(b < -tol) or abs(b.sum() - 1.0) > tol:
        raise ValueError("not a probability vector")
    return b


def propagate_belief(model, start: np.ndarray, plan: ControlPlan | None,
                     steps: int, renewal_state: int | None = None,
                     start_delta: int = 0) -> np.ndarray:
    """Push a belief forward ``steps`` steps.

    For control models the applied actions are read from ``plan`` at rows
    ``renewal_state`` (1-indexed) starting at elapsed offset
    ``start_delta``; between updates the decision-maker conditions on the
    last reported state, not the true one, so the plan row is fixed for
    the whole call.  Estimation models ignore the plan.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    b = check_belief(start)
    if model.num_actions == 1:
        m = model.transitions[0]
        for _ in range(steps):
            b = b @ m
        return b
    if plan is None or renewal_state is None:
        raise ValueError("control models need a plan and a renewal state")
    row = plan.actions[renewal_state - 1]
    for t in range(steps):
        b = b @ model.transitions[row[start_delta + t]]
    return b


def reference_packing_steps(sigma0, model, planner, target_entropy: float = 0.0):
    """Packing scan one candidate at a time, with cold control refreshes.

    Each step re-optimizes the control plans from all-zero plans for the
    current schedule, then gives every candidate deviation its own
    schedule, ``policy_entropy``, plan (the incumbent's, truncated or
    extended greedily toward the incumbent's stop values) and linear solve
    of the evaluation system with that state's row swapped; the first
    maximum in (state, interval) order wins.  Returns (steps, the control
    tables the scan scored with).
    """
    from schedleak import policy

    n, t_max = model.num_states, planner.t_max
    current, h = sigma0, policy.policy_entropy(sigma0, n)
    steps, tables = [(current, h)], []
    if model.num_actions == 1:
        pre = policy.segment_beliefs(model, None, t_max)
        c_tab, k_tab = policy.segment_stats(model, planner, pre,
                                            np.argmax(pre[:, :t_max], axis=2) + 1)
    while h > target_entropy:
        taus = current.intervals
        if model.num_actions > 1:
            control = policy.best_control_for_sigma(model, current, planner).control
            tables.append(control)
            pre = policy.segment_beliefs(model, control, t_max)
            c_tab, k_tab = policy.segment_stats(model, planner, pre, control)
        idx = np.arange(n)
        c_inc, k_inc = c_tab[idx, taus], k_tab[idx, taus]
        stop_vec = -planner.beta + np.linalg.solve(np.eye(n) - k_inc, c_inc)
        best = None
        for s in range(n):
            for tau in range(1, t_max + 1):
                if tau == taus[s]:
                    continue
                cand = policy.single_state_deviation(current, s + 1, tau)
                h_cand = policy.policy_entropy(cand, n)
                if not h_cand < h - 1e-9:   # a pure count swap changes nothing
                    continue
                if model.num_actions == 1:
                    c_row, k_row = c_tab[s, tau], k_tab[s, tau]
                else:
                    actions, beliefs = control[s].copy(), pre[s].copy()
                    for t in range(taus[s], tau):
                        scores = [float((beliefs[t] @ m) @ stop_vec)
                                  for m in model.transitions]
                        actions[t] = int(np.argmax(scores))
                        beliefs[t + 1] = beliefs[t] @ model.transitions[actions[t]]
                    c, k = policy.segment_stats(model, planner, beliefs[None, :tau + 1],
                                                actions[None, :tau])
                    c_row, k_row = c[0, tau], k[0, tau]
                c, k = c_inc.copy(), k_inc.copy()
                c[s], k[s] = c_row, k_row
                score = float(np.linalg.solve(np.eye(n) - k, c).mean())
                if best is None or score > best[0]:
                    best = (score, cand, h_cand)
        if best is None:
            break
        _, current, h = best
        steps.append((current, h))
    return steps, tables


def reference_improve_control(model, cfg, v0, allowed):
    """Exact plan search per state: branch and bound over action prefixes.

    A prefix is bounded by the full-information values ``W[:, j]`` of j
    more steps and then a stop, which no open-loop plan can beat.  It is
    expanded only while that bound reaches both the best plan found so
    far and the state's current value, less a rounding margin, so a sweep
    that finds no strict improvement certifies optimality against v0.

    Nodes at each depth are enumerated with earlier actions varying last
    (parent-major), so taking the first maximum, up to the margin, while
    scanning depths in ascending order realizes the (smaller tau, smaller
    actions) rule.  A node's value after one more action is read from the
    stop-value table ``q[:, a] = M_a @ (v0 - beta)`` of its parent's
    belief, so child beliefs are made only where the search goes deeper.
    No node keeps its actions: node i of depth d + 1 takes ``i % na`` after
    survivor ``kept[d][i // na]`` of depth d, and only a new best is rebuilt.
    Returns (taus, control, values, nodes expanded).
    """
    from schedleak.markov import delta_belief

    n, na = model.num_states, model.num_actions
    r = model.task_reward
    stop_vec = -cfg.beta + v0
    q = (model.transitions @ stop_vec).T
    # beliefs are row vectors: children of row z are [z @ M_a for each a]
    stacked = np.concatenate(list(model.transitions), axis=1)
    w = np.empty((n, cfg.t_max + 1))
    w[:, 0] = stop_vec
    for j in range(1, cfg.t_max + 1):
        w[:, j] = r + cfg.gamma * (model.transitions @ w[:, j - 1]).max(axis=0)
    taus = np.ones(n, dtype=np.int64)
    control = np.zeros((n, cfg.t_max), dtype=np.int64)
    best_vals = np.empty(n)
    expanded = 0
    for s in range(n):
        stops = np.flatnonzero(allowed[s])
        margin = 1e-12 * max(1.0, abs(v0[s]))
        beliefs = delta_belief(s + 1, n)[None, :]
        acc = np.zeros(1)
        kept = [[0]]                    # the root survives
        best_val = -np.inf
        for t in range(1, stops[-1] + 1):
            expanded += len(acc)
            step = cfg.gamma ** (t - 1) * (beliefs @ r)
            acc = np.repeat(acc + step, na)
            # row p*na + a is (parent p, action a): lexicographic order
            ends = (beliefs @ q).ravel()
            vals = acc + cfg.gamma ** t * ends
            if allowed[s, t]:
                # first plan within the margin of the best: a plan's rounding
                # depends on its row in the batched product, so exact ties
                # can differ by an ulp
                top = vals.max()
                i = int(np.argmax(vals >= top - margin))
                if top > best_val + margin:
                    best_val = float(vals[i])
                    taus[s] = t
                    for d in range(t - 1, -1, -1):
                        i, control[s, d] = divmod(i, na)
                        i = kept[d][i]
            if t == stops[-1]:
                break
            beliefs = (beliefs @ stacked).reshape(-1, n)
            ahead = stops[stops > t] - t
            bound = acc + cfg.gamma ** t * (beliefs @ w[:, ahead]).max(axis=1)
            keep = bound >= max(best_val, v0[s]) - margin
            if not keep.any():
                break
            kept.append(np.flatnonzero(keep))
            if not keep.all():
                beliefs, acc = beliefs[keep], acc[keep]
        best_vals[s] = best_val
    return taus, control, best_vals, expanded
