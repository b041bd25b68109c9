"""Timing side-channel analysis of pull-based goal-oriented scheduling.

A library for studying how much a passive listener learns about a remote
Markov process purely from the timing of state-update requests, and what
schedule design can do about it: an exact joint transmit/control policy
solver, an exact forward-backward timing smoother for the listener, two
defenses (hysteresis mode switching and offline entropy packing), and a
seeded, reproducible episode simulator with sweep harnesses.
"""

__version__ = "0.1.0"

from .defenses import (AdeState, DefenseMode, ade_schedule, forecast_leakage,
                       pde_packing_steps, weighted_performance)
from .eavesdropper import (EveEstimator, InconsistentTimingError, SegmentModel,
                           min_leakage)
from .markov import (MarkovModel, NumericalError, Scenario, build_model,
                     control_reward_vector, delta_belief, g_factor,
                     shannon_entropy, stationary_law, steady_state,
                     uniform_belief)
from .policy import (JointPolicy, PlannerConfig, SchedulingFunction,
                     best_control_for_sigma, evaluate_policy,
                     evaluate_policy_values, extract_sigma,
                     occupancy_distribution, policy_entropy, policy_from_json,
                     policy_to_json, segment_beliefs, segment_stats,
                     single_state_deviation, solve_goc, solve_periodic)
from .simulate import (BatchMetrics, CellSolution, EpisodeConfig,
                       EpisodeMetrics, EpisodeRecord, PolicyKind, aggregate,
                       pareto_filter, pareto_sweep, run_batch, run_episode,
                       rows_to_csv, sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
