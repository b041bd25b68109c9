"""Output checks written apart from the library.

Nothing here calls into ``schedleak``: the ring chain, the stationary
priors, the listener's smoother, the policy values and the plan search are
recomputed from their definitions with plain numpy, and every checker
returns a list of failure messages (empty when the output is correct).

Episodes are described by plain arrays (1-indexed states, actions,
transmit flags, mode labels, per-step leakage and hits), so the same
checkers serve records returned by the library and trace CSVs written by
the command-line front end.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEAKAGE_TOL = 1e-9
VALUE_TOL = 1e-9
TIE_TOL = 1e-9


# ---------------------------------------------------------------------------
# model, rewards and priors from their definitions
# ---------------------------------------------------------------------------


def ring_transitions(theta: float, num_states: int, control: bool) -> np.ndarray:
    """(A, S, S) ring chain: mass to chi+1, chi+3, chi-2 with chi = s + a.

    The sharpness factor is |2(s-2)/(S-2) - 1| ** (theta ** -0.5), capped
    at 1; rows with s % 4 == 2 split (2-2g)/6, (2+g)/6, (2+g)/6 and the
    others (1+2g)/3, (1-g)/3, (1-g)/3.
    """
    s = np.arange(1, num_states + 1)
    g = np.minimum(1.0, np.abs(2.0 * (s - 2) / (num_states - 2) - 1.0) ** (theta ** -0.5))
    flat = s % 4 == 2
    probs = np.where(flat[:, None],
                     np.stack([(2 - 2 * g) / 6, (2 + g) / 6, (2 + g) / 6], axis=1),
                     np.stack([(1 + 2 * g) / 3, (1 - g) / 3, (1 - g) / 3], axis=1))
    actions = 3 if control else 1
    out = np.zeros((actions, num_states, num_states))
    for a in range(actions):
        for j, step in enumerate((1, 3, -2)):
            target = (s - 1 + a + step) % num_states
            np.add.at(out[a], (s - 1, target), probs[:, j])
    return out


def control_reward(num_states: int) -> np.ndarray:
    target = max(1, round(num_states / 2) - 1)
    return 5.0 * np.exp(-np.abs(np.arange(1, num_states + 1) - target).astype(float))


def stationary(matrix: np.ndarray) -> np.ndarray:
    """pi P = pi, sum(pi) = 1, by one least-squares linear solve."""
    n = matrix.shape[0]
    lhs = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return pi / pi.sum()


def segment_beliefs(trans: np.ndarray, s: int, actions) -> np.ndarray:
    """Beliefs 0..len(actions) steps after a report of 0-indexed state s."""
    rows = [np.eye(trans.shape[1])[s]]
    for a in actions:
        rows.append(rows[-1] @ trans[a])
    return np.array(rows)


def occupancy(trans: np.ndarray, taus: np.ndarray, control: np.ndarray | None) -> np.ndarray:
    """Long-run true-state distribution of a renewal schedule.

    The renewal chain's stationary law comes from a linear solve; the
    occupancy is the segment-length-weighted average of in-segment beliefs.
    """
    n = trans.shape[1]
    if control is None:
        return stationary(trans[0])
    segs = [segment_beliefs(trans, s, control[s, :taus[s]]) for s in range(n)]
    nu = stationary(np.array([seg[-1] for seg in segs]))
    occ = sum(nu[s] * segs[s][:-1].sum(axis=0) for s in range(n))
    return occ / float(nu @ taus)


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def schedule_entropy(taus) -> float:
    _, counts = np.unique(np.asarray(taus), return_counts=True)
    return entropy_bits(counts / counts.sum())


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


@dataclass
class Regime:
    """Interval per reported state, and the action table (S, t_max)."""

    taus: np.ndarray
    actions: np.ndarray


@dataclass
class Episode:
    """One episode as plain arrays; states are 1-indexed."""

    states: np.ndarray
    actions: np.ndarray
    transmits: np.ndarray
    modes: list
    leakages: np.ndarray
    eve_hits: np.ndarray

    @staticmethod
    def from_record(record) -> "Episode":
        return Episode(np.asarray(record.states), np.asarray(record.actions),
                       np.asarray(record.transmits), list(record.modes),
                       np.asarray(record.leakages, dtype=float),
                       np.asarray(record.eve_hits))

    @staticmethod
    def from_csv(path: Path) -> "Episode":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        col = lambda k, f: np.array([f(r[k]) for r in rows])  # noqa: E731
        return Episode(col("s", int), col("a", int), col("c", int),
                       [r["mode"] for r in rows], col("leakage", float),
                       col("eve_hit", int))


def check_schedule(ep: Episode, trans: np.ndarray, regimes: dict[str, Regime]) -> list[str]:
    """Intervals follow the schedule in force; actions follow its plan;
    every realized transition has positive probability."""
    errs = []
    n_steps = len(ep.states)
    tx = np.flatnonzero(ep.transmits)
    if len(tx) == 0 or tx[0] != 0:
        return ["no transmission at step 0"]
    for k, t in enumerate(tx):
        reg = regimes.get(ep.modes[t])
        if reg is None:
            errs.append(f"step {t}: unknown mode {ep.modes[t]!r}")
            continue
        s = int(ep.states[t])
        tau = int(reg.taus[s - 1])
        end = int(tx[k + 1]) if k + 1 < len(tx) else None
        if end is None:
            if t + tau < n_steps:
                errs.append(f"step {t}: schedule {tau} due at {t + tau}, none sent")
        elif end - t != tau:
            errs.append(f"step {t}: interval {end - t} != scheduled {tau} for state {s}")
        stop = end if end is not None else n_steps
        if stop - t > reg.actions.shape[1]:
            errs.append(f"step {t}: segment of {stop - t} steps exceeds t_max")
            stop = t + reg.actions.shape[1]
        for n in range(t, stop):
            if ep.modes[n] != ep.modes[t]:
                errs.append(f"step {n}: mode changed inside a segment")
            if int(ep.actions[n]) != int(reg.actions[s - 1, n - t]):
                errs.append(f"step {n}: action {ep.actions[n]} not the plan's "
                            f"{reg.actions[s - 1, n - t]}")
        if len(errs) > 20:
            break
    control = trans.shape[0] > 1
    for n in range(n_steps - 1):
        a = int(ep.actions[n]) if control else 0
        if trans[a, ep.states[n] - 1, ep.states[n + 1] - 1] <= 0.0:
            errs.append(f"step {n}: transition {ep.states[n]}->{ep.states[n + 1]} "
                        f"has probability 0 under action {a}")
    return errs


class Smoother:
    """Per-step forward/backward smoothing of the listener's posterior.

    The hidden chain runs step by step.  For control it is the pair
    (last reported state, current state), because the action applied at
    each step depends on the report; for estimation the pair collapses to
    the current state (a single row).  At a request the pair resets to
    (current, current); the interval it opens is the emission of the
    reported state.  At horizon h the listener has seen the requests up to
    h: the intervals they close are evidence, the still-open interval is
    not (a flat backward boundary at the last request).
    """

    def __init__(self, trans: np.ndarray, prior: np.ndarray,
                 regimes: dict[str, Regime]):
        self.trans = trans
        self.control = trans.shape[0] > 1
        self.n = trans.shape[1]
        self.prior = prior
        self.regimes = regimes

    def _step_mats(self, reg: Regime, d: int) -> np.ndarray:
        if self.control:
            return self.trans[reg.actions[:, d]]          # (R=S, S, S)
        return self.trans[:1]                              # (1, S, S)

    def _reset(self, f: np.ndarray) -> np.ndarray:
        if not self.control:
            return f
        return np.diag(f.sum(axis=0))

    def _marginal(self, f: np.ndarray) -> np.ndarray:
        b = f.sum(axis=0)
        return b / b.sum()

    def run(self, ep: Episode, gap: int):
        """Per-step leakage, hit and hit-ambiguity (near-tied MAP) arrays."""
        n_steps = len(ep.states)
        tx = [int(t) for t in np.flatnonzero(ep.transmits)]
        k_of = np.cumsum(ep.transmits) - 1               # last request index <= n
        regs = [self.regimes[ep.modes[t]] for t in tx]
        taus_next = [tx[k + 1] - tx[k] for k in range(len(tx) - 1)]
        emis = [(regs[k].taus == taus_next[k]).astype(float)
                for k in range(len(taus_next))]

        # forward, stored after the reset and before the emission at n
        rows = self.n if self.control else 1
        fwd = np.empty((n_steps, rows, self.n))
        f = np.diag(self.prior) if self.control else self.prior[None, :].copy()
        for n in range(n_steps):
            k = int(k_of[n])
            if n == tx[k] and n > 0:
                f = self._reset(f)
            fwd[n] = f
            if n == n_steps - 1:
                break
            if n == tx[k] and k < len(emis):
                f = f * emis[k][None, :]
            f = np.einsum("rx,rxy->ry", f, self._step_mats(regs[k], n - tx[k]))
            f /= f.sum()

        h0 = math.log2(self.n)
        beliefs: dict[int, dict[int, np.ndarray]] = {}
        for k, t in enumerate(tx):
            per_m = {}
            # open segment: blind propagation from the request, no emission
            end = tx[k + 1] if k + 1 < len(tx) else n_steps
            g = fwd[t]
            for m in range(t, end):
                per_m[m] = self._marginal(g)
                g = np.einsum("rx,rxy->ry", g, self._step_mats(regs[k], m - t))
                g /= g.sum()
            # closed segments: backward from a flat boundary at request k
            b = np.ones((rows, self.n))
            j = k
            for m in range(t - 1, max(0, t - gap) - 1, -1):
                if m + 1 == tx[j] and j < k:
                    b = np.broadcast_to(emis[j] * (np.diagonal(b) if self.control
                                                   else b[0]), (rows, self.n))
                if m < tx[j]:
                    j -= 1
                mats = self._step_mats(regs[j], m - tx[j])
                b = np.einsum("rxy,ry->rx", mats, b)
                b = b / b.sum()
                post = fwd[m] * b
                if m == tx[j]:
                    post = post * emis[j][None, :]
                per_m[m] = self._marginal(post)
            beliefs[k] = per_m

        cert = {k: {m: 1.0 - entropy_bits(v) / h0 for m, v in per_m.items()}
                for k, per_m in beliefs.items()}
        leak = np.empty(n_steps)
        hits = np.empty(n_steps, dtype=np.int64)
        ambiguous = np.zeros(n_steps, dtype=bool)
        for n in range(n_steps):
            k = int(k_of[n])
            leak[n] = max(cert[k][m] for m in range(n - min(gap, n), n + 1))
            h = min(n + gap, n_steps - 1)
            bel = beliefs[int(k_of[h])][n]
            top = np.sort(bel)[-2:]
            ambiguous[n] = top[1] - top[0] < TIE_TOL
            hits[n] = int(np.argmax(bel)) + 1 == ep.states[n]
        return leak, hits, ambiguous


def check_listener(ep: Episode, smoother: Smoother, gap: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Recomputed leakage (to LEAKAGE_TOL) and hits (exact unless tied).

    Returns the failures and the recomputed per-step leakage and hits.
    """
    leak, hits, amb = smoother.run(ep, gap)
    errs = []
    bad = np.flatnonzero(np.abs(leak - ep.leakages) > LEAKAGE_TOL)
    if len(bad):
        n = int(bad[0])
        errs.append(f"leakage differs at {len(bad)} steps, first n={n}: "
                    f"{ep.leakages[n]!r} vs {leak[n]!r}")
    miss = np.flatnonzero((hits != ep.eve_hits) & ~amb)
    if len(miss):
        errs.append(f"eve hit differs at {len(miss)} steps, first n={int(miss[0])}")
    return errs, leak, np.where(amb, ep.eve_hits, hits)


def check_pp_floor(ep: Episode, prior: np.ndarray) -> list[str]:
    """Under a fixed period the timing says nothing: leakage is the floor."""
    floor = 1.0 - entropy_bits(prior) / math.log2(len(prior))
    dev = np.abs(ep.leakages - floor)
    if np.any(dev > LEAKAGE_TOL):
        return [f"PP leakage departs from the floor {floor!r} by {dev.max():.3e}"]
    return []


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def plan_values(trans, reward, taus, actions, gamma, beta) -> np.ndarray:
    """Exact discounted values of a renewal policy by one linear solve.

    ``reward`` is None for estimation, where ``actions`` holds 1-indexed
    guesses and the per-step reward is the guessed state's probability.
    """
    n = trans.shape[1]
    c = np.zeros(n)
    k = np.zeros((n, n))
    for s in range(n):
        tau = int(taus[s])
        acts = [0] * tau if reward is None else actions[s, :tau]
        bel = segment_beliefs(trans, s, acts)
        step = (bel[np.arange(tau), actions[s, :tau] - 1] if reward is None
                else bel[:tau] @ reward)
        c[s] = (gamma ** np.arange(tau) * step).sum() - gamma ** tau * beta
        k[s] = gamma ** tau * bel[tau]
    return np.linalg.solve(np.eye(n) - k, c)


def improvement_bounds(trans, reward, v, gamma, beta, t_max) -> np.ndarray:
    """(S, t_max) best one-step value over every plan with stopping time tau.

    Entry [s, tau-1] is the max over action sequences of length tau of the
    discounted segment reward plus the discounted value at the next
    report.  Estimation guesses the most likely state at every step.
    """
    n = trans.shape[1]
    out = np.empty((n, t_max))
    stop = v - beta
    if reward is None:
        bel = np.eye(n)
        acc = np.zeros(n)
        for t in range(1, t_max + 1):
            acc = acc + gamma ** (t - 1) * bel.max(axis=1)
            bel = bel @ trans[0]
            out[:, t - 1] = acc + gamma ** t * (bel @ stop)
        return out
    stacked = np.concatenate(list(trans), axis=1)            # (S, A*S)
    na = trans.shape[0]
    for s in range(n):
        bel = np.eye(n)[s][None, :]
        acc = np.zeros(1)
        for t in range(1, t_max + 1):
            acc = np.repeat(acc + gamma ** (t - 1) * (bel @ reward), na)
            bel = (bel @ stacked).reshape(-1, n)
            out[s, t - 1] = float(np.max(acc + gamma ** t * (bel @ stop)))
    return out


def check_optimal_policy(trans, reward, taus, actions, gamma, beta, t_max,
                         periodic: tuple[np.ndarray, np.ndarray] | None = None) -> list[str]:
    """One-step improvement certificate over every plan (tau, actions).

    No plan beats the policy's own values by more than VALUE_TOL, so no
    policy (every fixed period included) has a higher value.  With
    ``periodic`` = (taus, actions) the fixed-period policy's value is also
    compared directly.
    """
    v = plan_values(trans, reward, taus, actions, gamma, beta)
    best = improvement_bounds(trans, reward, v, gamma, beta, t_max)
    tol = VALUE_TOL * max(1.0, float(np.abs(v).max()))
    errs = []
    gain = best - v[:, None]
    if np.any(gain > tol):
        s, t = np.unravel_index(int(np.argmax(gain)), gain.shape)
        errs.append(f"state {s + 1}: stopping at {t + 1} improves the value by "
                    f"{gain[s, t]:.3e}")
    if periodic is not None:
        v_pp = plan_values(trans, reward, periodic[0], periodic[1], gamma, beta)
        if v.mean() < v_pp.mean() - tol:
            errs.append(f"periodic value {v_pp.mean()!r} beats {v.mean()!r}")
    return errs


def check_packing(steps: list[tuple[np.ndarray, float]], chosen: dict[float, np.ndarray]) -> list[str]:
    """Each packing step changes one state's interval and strictly lowers
    the schedule entropy; each chosen schedule is the first step at or
    below its target fraction of the starting entropy."""
    errs = []
    h = [schedule_entropy(sig) for sig, _ in steps]
    for i, (sig, reported) in enumerate(steps):
        if abs(reported - h[i]) > 1e-12:
            errs.append(f"step {i}: reported entropy {reported!r} != {h[i]!r}")
        if i == 0:
            continue
        changed = int(np.count_nonzero(sig != steps[i - 1][0]))
        if changed != 1:
            errs.append(f"step {i}: {changed} states changed")
        if not h[i] < h[i - 1]:
            errs.append(f"step {i}: entropy {h[i]!r} not below {h[i - 1]!r}")
    for frac, sig in chosen.items():
        target = frac * h[0]
        first = next((i for i, x in enumerate(h) if x <= target + 1e-12), len(h) - 1)
        if not np.array_equal(sig, steps[first][0]):
            errs.append(f"fraction {frac}: schedule is not the first at or "
                        f"below {target:.6f} bits")
    return errs


def check_pareto_filter(rows: list[dict], kept: list[dict]) -> list[str]:
    """The filtered frontier is exactly the set of undominated rows."""
    ok = [r for r in rows if "error" not in r]
    pts = [(r["mean_leakage"], r["mean_total_reward"]) for r in ok]
    undominated = [r for r, (l, w) in zip(ok, pts)
                   if not any(l2 <= l and w2 >= w and (l2 < l or w2 > w) for l2, w2 in pts)]
    return [] if undominated == kept else ["filtered frontier is not the undominated set"]


def check_manifest(out_dir: Path) -> list[str]:
    """Every SHA-256 in manifest.json matches its file."""
    doc = json.loads((out_dir / "manifest.json").read_text())
    errs = []
    if not doc.get("artifacts"):
        errs.append(f"{out_dir.name}: manifest lists no artifacts")
    for name, digest in doc.get("artifacts", {}).items():
        path = out_dir / name
        if not path.is_file():
            errs.append(f"{out_dir.name}/{name}: missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            errs.append(f"{out_dir.name}/{name}: SHA-256 mismatch")
    return errs


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

ROW_FIELDS = ("mean_leakage", "eve_accuracy", "mean_task_reward",
              "transmission_probability", "mean_total_reward")


def episode_stats(ep: Episode, leak: np.ndarray, hits: np.ndarray,
                  reward: np.ndarray | None, beta: float) -> dict[str, float]:
    """Per-episode means from recomputed leakage and hits and the trajectory."""
    task = (ep.actions == ep.states).astype(float) if reward is None \
        else reward[ep.states - 1]
    return {"mean_leakage": float(leak.mean()), "eve_accuracy": float(hits.mean()),
            "mean_task_reward": float(task.mean()),
            "transmission_probability": float(ep.transmits.mean()),
            "mean_total_reward": float((task - beta * ep.transmits).mean())}


def check_row(label: str, row: dict, stats: list[dict[str, float]]) -> list[str]:
    """An aggregate row equals the mean of its episodes' recomputed stats."""
    if int(row["n_episodes"]) != len(stats):
        return [f"{label}: {row['n_episodes']} episodes reported, {len(stats)} run"]
    errs = []
    for field in ROW_FIELDS:
        own = float(np.mean([s[field] for s in stats]))
        if abs(float(row[field]) - own) > LEAKAGE_TOL:
            errs.append(f"{label}: {field} {row[field]} != recomputed {own!r}")
    return errs
