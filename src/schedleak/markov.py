"""Parametric ring Markov processes, stationary laws and entropy.

States are labelled 1..num_states in the public API (matching the usual
convention for ring chains); internally everything is a 0-indexed numpy
array.  Beliefs are plain length-``num_states`` float arrays that are
nonnegative and sum to 1.

The chain family is a ring with three landing states per row: from state
``s`` (after applying the action offset) mass goes to ``+1``, ``+3`` and
``-2`` around the ring.  A single decay parameter ``theta`` interpolates
between near-deterministic drift (small theta) and a uniform three-way
split (large theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

ROW_SUM_TOL = 1e-9


class Scenario(Enum):
    ESTIMATION = "estimation"
    CONTROL = "control"


class NumericalError(RuntimeError):
    """An iterative routine failed to converge within its cap."""


@dataclass(frozen=True)
class MarkovModel:
    """A finite Markov process with per-action transition matrices.

    transitions has shape (num_actions, S, S), row-stochastic in the last
    axis.  Estimation models have a single action (dynamics do not depend
    on the decision); control models have one matrix per action offset.
    task_reward is the per-state reward vector for control tasks and None
    for estimation (where the reward is an exact-guess indicator handled
    at the policy level).
    """

    num_states: int
    num_actions: int
    transitions: np.ndarray
    scenario: Scenario
    density_decay: float
    task_reward: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.transitions, dtype=float)
        if t.shape != (self.num_actions, self.num_states, self.num_states):
            raise ValueError(f"transitions shape {t.shape} does not match "
                             f"({self.num_actions}, {self.num_states}, {self.num_states})")
        if np.any(t < -ROW_SUM_TOL) or np.any(t > 1 + ROW_SUM_TOL):
            raise ValueError("transition entries outside [0, 1]")
        rowsums = t.sum(axis=2)
        if np.any(np.abs(rowsums - 1.0) > ROW_SUM_TOL):
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "transitions", t)

    @property
    def matrix(self) -> np.ndarray:
        """The single transition matrix of an estimation model."""
        if self.num_actions != 1:
            raise ValueError("matrix is only defined for single-action models")
        return self.transitions[0]


def _ring(idx: np.ndarray | int, num_states: int) -> np.ndarray | int:
    """Map 1-indexed ring arithmetic results back into {1..num_states}."""
    return (np.asarray(idx) - 1) % num_states + 1


def g_factor(s: int, theta: float, num_states: int) -> float:
    """Transition-sharpness factor for state ``s`` (1-indexed).

    Raw value |2(s-2)/(num_states-2) - 1|**theta, clamped into [0, 1] so
    that the extreme states sit exactly at 1 (the raw expression exceeds
    1 for s=1, which contradicts the intended range).
    """
    if not 1 <= s <= num_states:
        raise ValueError(f"state {s} outside 1..{num_states}")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if num_states < 3:
        raise ValueError("num_states must be at least 3")
    base = abs(2.0 * (s - 2) / (num_states - 2) - 1.0)
    return min(1.0, base ** theta)


def control_reward_vector(num_states: int) -> np.ndarray:
    """Reward 5*exp(-|s - s_target|) with the target just below mid-ring."""
    target = max(1, round(num_states / 2) - 1)
    states = np.arange(1, num_states + 1)
    return 5.0 * np.exp(-np.abs(states - target).astype(float))


def build_model(theta: float, num_states: int, scenario: Scenario) -> MarkovModel:
    """Construct the ring model for a scenario.

    Each row puts mass on chi+1, chi+3 and chi-2 (ring arithmetic), where
    chi = s for estimation and chi = s + a for control with actions
    {0, 1, 2}.  Rows with s % 4 == 2 get the flatter split (2-2g)/6,
    (2+g)/6, (2+g)/6; all other rows get (1+2g)/3, (1-g)/3, (1-g)/3.

    Larger ``theta`` concentrates every row on its drift target, smaller
    values flatten rows toward a uniform three-way split: the sharpness
    factor is evaluated at the reciprocal square root of ``theta``.  (At
    ``theta = 1`` and at the extreme states the exponent convention is
    immaterial.)
    """
    if num_states < 5:
        raise ValueError("num_states must be at least 5")
    if theta <= 0:
        raise ValueError("theta must be positive")
    num_actions = 3 if scenario is Scenario.CONTROL else 1
    trans = np.zeros((num_actions, num_states, num_states))
    for a in range(num_actions):
        for s in range(1, num_states + 1):
            g = g_factor(s, theta ** -0.5, num_states)
            chi = _ring(s + a, num_states)
            if s % 4 == 2:
                probs = ((2 - 2 * g) / 6, (2 + g) / 6, (2 + g) / 6)
            else:
                probs = ((1 + 2 * g) / 3, (1 - g) / 3, (1 - g) / 3)
            for target, p in zip((chi + 1, chi + 3, chi - 2), probs):
                # += so coincident landing states (small rings) accumulate
                trans[a, s - 1, _ring(target, num_states) - 1] += p
    reward = control_reward_vector(num_states) if scenario is Scenario.CONTROL else None
    return MarkovModel(num_states=num_states, num_actions=num_actions,
                       transitions=trans, scenario=scenario,
                       density_decay=float(theta), task_reward=reward)


def uniform_belief(num_states: int) -> np.ndarray:
    return np.full(num_states, 1.0 / num_states)


def delta_belief(state: int, num_states: int) -> np.ndarray:
    """Point mass on a 1-indexed state."""
    b = np.zeros(num_states)
    b[state - 1] = 1.0
    return b


def steady_state(model: MarkovModel, tol: float = 1e-12,
                 max_iter: int = 1_000_000) -> np.ndarray:
    """Stationary distribution of a single-action model by power iteration.

    The uniform starting point doubles as the canonical fixed point for
    reducible inputs (e.g. the identity chain), where every distribution
    is stationary and iteration simply stays put.  Control models have no
    plan-free chain; their closed-loop occupancy under a renewal policy
    is ``policy.occupancy_distribution``.
    """
    if model.num_actions != 1:
        raise ValueError("steady_state needs a single-action model; use "
                         "policy.occupancy_distribution for control models")
    return power_iteration(model.transitions[0], tol, max_iter, "steady state")


def power_iteration(matrix: np.ndarray, tol: float, max_iter: int,
                    what: str) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by power iteration.

    Iterates from the uniform distribution until one step moves less than
    ``tol`` in L1; ``what`` names the chain in the error raised otherwise.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    mu = uniform_belief(matrix.shape[0])
    for _ in range(max_iter):
        nxt = mu @ matrix
        change = np.abs(nxt - mu).sum()
        if change < tol:
            return nxt / nxt.sum()
        mu = nxt
    raise NumericalError(
        f"{what} did not converge within {max_iter} iterations "
        f"(last L1 change {change:.3e})")


def shannon_entropy(belief: np.ndarray) -> float:
    """Entropy in bits, with 0*log(0) = 0."""
    b = np.asarray(belief, dtype=float)
    nz = b[b > 0]
    return float(-(nz * np.log2(nz)).sum())
