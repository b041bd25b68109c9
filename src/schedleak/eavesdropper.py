"""Timing-only state inference for an eavesdropper on the update channel.

The listener sees nothing but the instants of the update requests.  Each
inter-request interval is a deterministic function of the state reported
at the request that *opened* it, so the interval sequence is the emission
sequence of a hidden Markov model over renewal states and exact smoothing
applies: a forward pass over observed intervals, a backward pass from a
flat boundary at the last request (no information from afterwards is
used, i.e. the listener does not exploit the absence of further traffic),
and pairwise joins for instants between requests.

Implementation note on the filter direction: the timing-consistency
factor multiplies the *source* state of each interval's transition (the
renewal state that emitted it), and the transition kernel runs from that
source to the next renewal state.  Placing the consistency check on the
landing state instead does not reproduce exact posteriors (it fails
against trajectory enumeration on asymmetric chains) and is not used.

Knowledge granted to the listener: the process dynamics, the applied
control plan(s), the schedule of every regime in force, and which regime
scheduled each interval.  Regime switches are not a function of the public
timing history alone (the adaptive defense forecasts the interval of the
true state), so the regimes are given to the listener, which does not use
the switches themselves as evidence about the state.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .markov import MarkovModel, shannon_entropy, steady_state
from .policy import (JointPolicy, SchedulingFunction, check_schedule,
                     segment_beliefs)


class InconsistentTimingError(ValueError):
    """An observed interval has zero probability under the active schedule."""

    def __init__(self, index: int, tau: int):
        super().__init__(
            f"interval #{index} (length {tau}) is impossible under the "
            f"active schedule: forward vector vanished")
        self.index = index
        self.tau = tau


class SegmentModel:
    """One scheduling regime as the listener models it.

    Holds the policy in force (``policy``: its schedule, and on control
    models the control table the kernels apply, so there it must be a
    ``JointPolicy``) and the step kernels needed for smoothing: prefix
    rows (the belief about the state ``l`` steps into a segment opened at
    a known state, from ``policy.segment_beliefs``) and suffix matrices
    (the transition operator from ``l`` steps in to the end of the
    segment).  Estimation dynamics share a single matrix, so prefix blocks
    are matrix powers and serve as suffixes too, and a bare
    ``SchedulingFunction`` will do; control suffixes are per-state
    products of the plan's action matrices.
    """

    def __init__(self, model: MarkovModel, policy: SchedulingFunction):
        check_schedule(model, policy, policy.t_max)
        self.homogeneous = model.num_actions == 1
        if not (self.homogeneous or isinstance(policy, JointPolicy)):
            raise ValueError("control models need a JointPolicy: the listener "
                             "applies its control table")
        self.policy = policy
        self.t_max = t_max = policy.t_max
        taus = policy.intervals
        control = None if self.homogeneous else policy.control
        self._emission = (np.arange(t_max + 1)[:, None] == taus).astype(float)
        self._pre = segment_beliefs(model, control, t_max)
        if not self.homogeneous:
            n = model.num_states
            suf = np.zeros((n, t_max + 1, n, n))
            for s in range(n):
                tau = int(taus[s])
                acc = np.eye(n)
                suf[s, tau] = acc
                for t in range(tau - 1, -1, -1):
                    acc = model.transitions[int(control[s, t])] @ acc
                    suf[s, t] = acc
            self._suf = suf

    def emission(self, tau: int) -> np.ndarray:
        """Indicator over renewal states that emit an interval of ``tau``."""
        return self._emission[tau]

    def prefix_rows(self, ell: int) -> np.ndarray:
        """(S, S) matrix whose row s is the belief ``ell`` steps after s."""
        return self._pre[:, ell]

    def interior_raw(self, weights: np.ndarray, ell: int, tau: int,
                     b_next: np.ndarray) -> np.ndarray:
        """Unnormalized interior posterior: sources weighted, pushed ``ell``
        steps in, tied to the segment end through the backward vector."""
        if self.homogeneous:
            return (weights @ self._pre[:, ell]) * (self._pre[:, tau - ell] @ b_next)
        ahead = self._suf[:, ell] @ b_next            # (source, mid)
        return (weights[:, None] * self._pre[:, ell, :] * ahead).sum(axis=0)


class EveEstimator:
    """Sequential smoother over the observed interval sequence.

    Forward vectors are renormalized at every update (the running log
    normalizer is kept in ``log_norms``, so ``log_norms[-1]`` is the
    log-likelihood of the trace, and the smallest normalizer so far in
    ``min_forward_norm``); all returned beliefs are proper probability
    vectors.  Queries take an explicit horizon so earlier knowledge
    states can be reconstructed after the fact.

    Cost: backward vectors depend only on later intervals, so they are
    made lazily from the last request downwards and only as far as a
    query reaches (fixed-lag smoothing).  With a flat boundary at the last
    request K, the posterior at an instant depends on the horizon only
    through K, so each (K, instant) belief is made once, with its
    certainty, and kept in a memo that later queries read; a query costs
    work proportional to the requests inside the part of its window not
    made before, never to the length of the episode.  ``observe`` and a
    change of regime in ``set_active`` start the memo over, since the open
    segment's beliefs depend on both.  Memoised beliefs are read-only.

    ``clone`` is an independent copy with empty caches.
    ``backward_vectors`` counts the vectors made, ``beliefs_made`` the
    beliefs made and ``beliefs_reused`` the beliefs a query read from the
    memo; a clone starts from its original's counts.
    """

    def __init__(self, model: MarkovModel, active: SegmentModel, prior: np.ndarray):
        self.model = model
        self.num_states = n = model.num_states
        self.prior = np.asarray(prior, dtype=float)
        if not (self.prior.shape == (n,) and np.all(np.isfinite(self.prior))
                and np.all(self.prior >= 0) and self.prior.sum() > 0):
            raise ValueError(f"prior must be {n} finite nonnegative weights "
                             "with positive mass")
        self.active = active
        self.times = [0]
        self.intervals: list[int] = []
        self.segment_models: list[SegmentModel] = []
        self.forwards = [self.prior / self.prior.sum()]
        self.log_norms = [0.0]
        self.min_forward_norm = math.inf
        self.backward_vectors = 0
        self.beliefs_made = 0
        self.beliefs_reused = 0
        # per last request index K: [b_K, b_{K-1}, ...] as far as computed
        self._backward_cache: dict[int, list[np.ndarray]] = {}
        # per last request index K: {instant: (belief, certainty)}
        self._memo: dict[int, dict[int, tuple[np.ndarray, float]]] = {}

    # -- observation ------------------------------------------------------

    def set_active(self, segment_model: SegmentModel) -> None:
        """Declare the regime that schedules the currently open segment."""
        if segment_model is not self.active:
            self.active = segment_model
            self._memo = {}

    def observe(self, tau: int) -> "EveEstimator":
        """Consume the next interval; it closes the currently open segment."""
        if not 1 <= tau <= self.active.t_max:
            raise ValueError(f"interval {tau} outside 1..{self.active.t_max}")
        em = self.active.emission(tau)
        weighted = self.forwards[-1] * em
        nxt = weighted @ self.active.prefix_rows(tau)
        norm = nxt.sum()
        if norm <= 0.0:
            raise InconsistentTimingError(len(self.intervals) + 1, tau)
        self.intervals.append(int(tau))
        self.segment_models.append(self.active)
        self.times.append(self.times[-1] + int(tau))
        self.forwards.append(nxt / norm)
        self.log_norms.append(self.log_norms[-1] + math.log(norm))
        self.min_forward_norm = min(self.min_forward_norm, float(norm))
        self._memo, self._backward_cache = {}, {}
        return self

    def clone(self) -> "EveEstimator":
        # named fields, not copy.copy: on CPython 3.11 reading the original's
        # __dict__ turns its attributes into a dict and slows every later read
        dup = object.__new__(type(self))
        for name in ("model", "num_states", "prior", "active", "min_forward_norm",
                     "backward_vectors", "beliefs_made", "beliefs_reused"):
            setattr(dup, name, getattr(self, name))
        for name in ("times", "intervals", "segment_models", "forwards", "log_norms"):
            setattr(dup, name, list(getattr(self, name)))
        dup._memo, dup._backward_cache = {}, {}
        return dup

    # -- smoothing --------------------------------------------------------

    def last_index(self, horizon: int) -> int:
        """Index of the last transmission at or before ``horizon``."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        t_last, t_max = self.times[-1], self.active.t_max
        if horizon - t_last > t_max:
            raise ValueError(
                f"horizon {horizon} is more than t_max={t_max} steps after the "
                f"last observed request (at {t_last}); a request must have "
                f"been observed by then")
        return bisect.bisect_right(self.times, horizon) - 1

    def backward(self, horizon: int, down_to: int = 0) -> list[np.ndarray]:
        """Backward vectors b_down_to..b_K for the given horizon, flat at b_K.

        K is the last request at or before ``horizon``, and element i of
        the list is b_{down_to+i}; the default returns b_0..b_K.  Vectors
        are kept per K (``observe`` starts them over), and a call
        computes only those below what earlier calls for the same K
        reached, so asking down to the requests inside a window costs
        those requests alone.
        """
        k_last = self.last_index(horizon)
        if not 0 <= down_to <= k_last:
            raise ValueError(f"down_to {down_to} outside 0..{k_last}")
        tail = self._backward_cache.setdefault(k_last, [])
        if not tail:
            tail.append(np.full(self.num_states, 1.0 / self.num_states))
            self.backward_vectors += 1
        for k in range(k_last - len(tail), down_to - 1, -1):
            seg = self.segment_models[k]          # model of interval k+1
            tau = self.intervals[k]
            raw = seg.emission(tau) * (seg.prefix_rows(tau) @ tail[-1])
            norm = raw.sum()
            if norm <= 0.0:
                raise InconsistentTimingError(k + 1, tau)
            tail.append(raw / norm)
            self.backward_vectors += 1
        return tail[k_last - down_to::-1]

    def _at_request(self, k: int, b_k: np.ndarray) -> np.ndarray:
        """Posterior at request ``k`` from its forward and backward vectors."""
        raw = self.forwards[k] * b_k
        norm = raw.sum()
        if norm <= 0.0:
            raise InconsistentTimingError(k, self.intervals[k - 1] if k else 0)
        return raw / norm

    def _interior(self, k: int, ell: int, b_next: np.ndarray) -> np.ndarray:
        """Posterior ``ell`` steps after request ``k``, given b_{k+1}."""
        seg = self.segment_models[k]
        tau = self.intervals[k]
        w = self.forwards[k] * seg.emission(tau)
        raw = seg.interior_raw(w, ell, tau, b_next)
        norm = raw.sum()
        if norm <= 0.0:
            raise InconsistentTimingError(k + 1, tau)
        return raw / norm

    def _forward_only(self, k: int, ell: int) -> np.ndarray:
        """Belief inside the open segment: blind propagation, no future."""
        seg = self.segment_models[k] if k < len(self.segment_models) else self.active
        raw = self.forwards[k] @ seg.prefix_rows(ell)
        return raw / raw.sum()

    def _beliefs(self, horizon: int, instants: list[int]):
        """Posteriors at ``instants`` (descending, none after ``horizon``)
        in one pass.

        One backward call covers them; the segment of each instant is
        found by walking down ``times`` from the horizon's last request.
        """
        k = k_last = self.last_index(horizon)
        times = self.times
        vecs = None
        for m in instants:
            if m >= times[k_last]:
                yield self._forward_only(k_last, m - times[k_last])
                continue
            if vecs is None:
                bottom = instants[-1]
                low = bisect.bisect_right(times, bottom) - 1
                if times[low] < bottom:
                    low += 1             # interior points need b of the segment end
                vecs = self.backward(horizon, down_to=low)
            while times[k] > m:
                k -= 1
            if times[k] == m:
                yield self._at_request(k, vecs[k - low])
            else:
                yield self._interior(k, m - times[k], vecs[k + 1 - low])

    def _points(self, horizon: int, top: int, bottom: int) -> list[tuple[np.ndarray, float]]:
        """(belief, certainty) at times top, top-1, ..., bottom, read from
        the memo of the horizon's last request; missing ones are made in
        one ``_beliefs`` pass and memoised."""
        memo = self._memo.setdefault(self.last_index(horizon), {})
        instants = range(top, bottom - 1, -1)
        missing = [m for m in instants if m not in memo]
        for m, belief in zip(missing, self._beliefs(horizon, missing)):
            belief.flags.writeable = False
            memo[m] = (belief, certainty(belief))
            self.beliefs_made += 1
        self.beliefs_reused += len(instants) - len(missing)
        return [memo[m] for m in instants]

    def _window(self, horizon: int, gap: int) -> list[tuple[np.ndarray, float]]:
        if gap < 0:
            raise ValueError("gap must be nonnegative")
        return self._points(horizon, horizon, horizon - min(gap, horizon))

    def belief_at_time(self, horizon: int, delay: int) -> np.ndarray:
        """Posterior of the state at time ``horizon - delay`` (read-only)."""
        m = horizon - delay
        if m < 0:
            raise ValueError("horizon - delay must be nonnegative")
        return self._points(horizon, m, m)[0][0]

    def window(self, horizon: int, gap: int) -> list[np.ndarray]:
        """Posteriors at ``horizon, horizon-1, ..., horizon-min(gap, horizon)``.

        Element d is ``belief_at_time(horizon, d)``; the beliefs not in the
        memo are made in one pass whose cost is proportional to the
        requests among them.
        """
        return [belief for belief, _ in self._window(horizon, gap)]

    # -- metrics ----------------------------------------------------------

    def leakage(self, horizon: int, gap: int) -> float:
        """Best certainty over the trailing opacity window, floored at 0."""
        return max(0.0, *(c for _, c in self._window(horizon, gap)))


def certainty(belief: np.ndarray) -> float:
    """Normalized certainty ``1 - H(b) / log2 S`` of a belief over S states."""
    return 1.0 - shannon_entropy(belief) / math.log2(len(belief))


def min_leakage(model: MarkovModel, mu: np.ndarray | None = None) -> float:
    """Leakage floor from knowing the long-run state distribution ``mu``
    (by default the stationary law of a single-action model)."""
    return certainty(steady_state(model) if mu is None else mu)
