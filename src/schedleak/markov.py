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
    """Policy iteration exceeded its fixed sweep cap."""


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


def steady_state(model: MarkovModel) -> np.ndarray:
    """Long-run state law of a single-action model (see ``stationary_law``).

    On an ergodic chain this is the unique stationary distribution; on a
    periodic or reducible one it is the time-averaged law of the chain
    started uniformly, so the identity chain gives the uniform law.
    Control models have no plan-free chain; their closed-loop occupancy
    under a renewal policy is ``policy.occupancy_distribution``.
    """
    if model.num_actions != 1:
        raise ValueError("steady_state needs a single-action model; use "
                         "policy.occupancy_distribution for control models")
    return stationary_law(model.transitions[0])


def stationary_law(matrix: np.ndarray) -> np.ndarray:
    """Long-run average law of a row-stochastic chain started uniformly.

    The Cesaro limit mu = u Pi of the uniform law u, where Pi is the limit
    of (I + P + ... + P^(N-1)) / N: stationary (mu P = mu) on every chain,
    periodic and reducible ones included, and the stationary distribution
    itself on an ergodic chain.  It is the unique mu with mu (I - P) = 0
    and u - mu = y (I - P) for some y (Stewart 1994, *Introduction to the
    Numerical Solution of Markov Chains*), found by one least-squares solve
    for (mu, y); y need not be unique, mu is, and it sums to 1 because
    every row of I - P sums to 0.  Rounding negatives are clipped to 0.
    """
    n = matrix.shape[0]
    a = np.eye(n) - np.asarray(matrix, dtype=float).T
    system = np.block([[a, np.zeros((n, n))], [np.eye(n), a]])
    rhs = np.concatenate([np.zeros(n), uniform_belief(n)])
    mu = np.maximum(np.linalg.lstsq(system, rhs, rcond=None)[0][:n], 0.0)
    return mu / mu.sum()


def shannon_entropy(belief: np.ndarray) -> float:
    """Entropy in bits, with 0*log(0) = 0."""
    b = np.asarray(belief, dtype=float)
    nz = b[b > 0]
    return float(-(nz * np.log2(nz)).sum())
