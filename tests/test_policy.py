import json
import logging
import math
import re

import numpy as np
import pytest

import schedleak as sl
from schedleak import policy
from oracles import (ControlPlan, brute_force_best, brute_force_for_schedule,
                     evaluate_joint, monte_carlo_return, propagate_belief,
                     random_stochastic, renewal_occupancy)
from test_markov import estimation_model, ring_matrix


def control_model(trans, reward):
    return sl.MarkovModel(num_states=trans.shape[1], num_actions=trans.shape[0],
                          transitions=trans, scenario=sl.Scenario.CONTROL,
                          density_decay=1.0, task_reward=reward)


def tie_rich_model(kind, seed, n=6, t_max=5):
    """Seeded control model whose plans tie: a duplicated action, three
    identical matrices, or sparse matrices; odd seeds draw integer rewards."""
    rng = np.random.default_rng(seed)
    reward = rng.integers(0, 3, n).astype(float) if seed % 2 else rng.random(n) * 5
    if kind == "duplicate":
        trans = random_stochastic(rng, 2, n)[[0, 1, 1]]
    elif kind == "identical":
        trans = np.repeat(random_stochastic(rng, 1, n), 3, axis=0)
    else:
        trans = random_stochastic(rng, 2, n, sparse=True)
    cfg = sl.PlannerConfig(gamma=float(rng.uniform(0.6, 0.97)),
                           beta=float(rng.uniform(0.05, 1.5)), t_max=t_max)
    return control_model(trans, reward), cfg, rng


def small_config(**kw):
    base = dict(gamma=0.95, beta=0.5, t_max=3)
    base.update(kw)
    return sl.PlannerConfig(**base)


class TestPlannerConfig:
    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
    def test_beta_must_be_finite_and_nonnegative(self, beta):
        with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
            sl.PlannerConfig(beta=beta)


class TestSchedulingFunction:
    @pytest.mark.parametrize("intervals", [[2.5, 3.0], [[2, 3], [3, 2]], []],
                             ids=["fractional", "2d", "empty"])
    def test_malformed_intervals_rejected(self, intervals):
        with pytest.raises(ValueError, match="nonempty 1-D array of whole numbers"):
            sl.SchedulingFunction(np.array(intervals), t_max=5)

    def test_control_rows_must_match_intervals(self):
        with pytest.raises(ValueError, match="one row per interval"):
            sl.JointPolicy(np.array([1, 2, 3, 4, 2]), 4, np.ones((6, 4), dtype=np.int64))


class TestExtractSigma:
    def check(self, interval, psi_row):
        jp = sl.JointPolicy(np.array([interval]), 4, np.ones((1, 4), dtype=np.int64))
        assert jp.transmit.tolist() == [psi_row]
        assert sl.extract_sigma(jp).intervals.tolist() == [interval]

    def test_threshold_row(self):
        self.check(3, [0, 0, 0, 1, 1])

    def test_forced_update_only(self):
        self.check(4, [0, 0, 0, 0, 1])

    def test_immediate(self):
        self.check(1, [0, 1, 1, 1, 1])


class TestPolicyEntropy:
    def test_constant_is_zero(self):
        sigma = sl.SchedulingFunction(np.full(30, 4), t_max=10)
        assert sl.policy_entropy(sigma, 30) == 0.0
        assert math.copysign(1.0, sl.policy_entropy(sigma, 30)) == 1.0   # not -0.0

    def test_two_equal_groups(self):
        sigma = sl.SchedulingFunction(np.array([2] * 15 + [3] * 15), t_max=10)
        assert sl.policy_entropy(sigma, 30) == pytest.approx(1.0, abs=1e-12)

    def test_all_distinct(self):
        sigma = sl.SchedulingFunction(np.arange(1, 9), t_max=8)
        assert sl.policy_entropy(sigma, 8) == pytest.approx(3.0, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(1, 11, size=30)
        h = sl.policy_entropy(sl.SchedulingFunction(vals, t_max=10), 30)
        for _ in range(10):
            h2 = sl.policy_entropy(
                sl.SchedulingFunction(rng.permutation(vals), t_max=10), 30)
            assert h2 == pytest.approx(h, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            t_max = int(rng.integers(1, 11))
            vals = rng.integers(1, t_max + 1, size=n)
            h = sl.policy_entropy(sl.SchedulingFunction(vals, t_max=t_max), n)
            assert h <= min(np.log2(n), np.log2(t_max)) + 1e-12 if t_max > 1 else h == 0


class TestSingleStateDeviation:
    def test_identity_deviation(self):
        sigma = sl.SchedulingFunction(np.array([2, 3, 4, 2]), t_max=5)
        out = sl.single_state_deviation(sigma, 3, 4)
        assert np.array_equal(out.intervals, sigma.intervals)

    def test_single_entry_changes(self):
        sigma = sl.SchedulingFunction(np.full(10, 4), t_max=5)
        out = sl.single_state_deviation(sigma, 7, 2)
        assert out.intervals[6] == 2
        assert (np.delete(out.intervals, 6) == 4).all()

    def test_entropy_rises_off_constant(self):
        sigma = sl.SchedulingFunction(np.full(10, 4), t_max=5)
        out = sl.single_state_deviation(sigma, 7, 2)
        assert sl.policy_entropy(out, 10) > 0

    def test_domain_error(self):
        sigma = sl.SchedulingFunction(np.full(10, 4), t_max=5)
        with pytest.raises(ValueError):
            sl.single_state_deviation(sigma, 2, 6)
        with pytest.raises(ValueError):
            sl.single_state_deviation(sigma, 2, 0)


class TestSolveGoc:
    def test_identity_never_transmits_early(self):
        model = estimation_model(np.eye(4))
        jp = sl.solve_goc(model, small_config(beta=0.5))
        assert (sl.extract_sigma(jp).intervals == 3).all()

    def test_cycle_never_transmits_early(self):
        model = estimation_model(ring_matrix([1], 4))
        jp = sl.solve_goc(model, small_config(beta=1.0))
        assert (sl.extract_sigma(jp).intervals == 3).all()

    def test_tie_breaks_toward_earliest(self):
        """With zero cost on a frozen chain every stopping time ties."""
        model = estimation_model(np.eye(4))
        jp = sl.solve_goc(model, small_config(beta=0.0))
        assert (sl.extract_sigma(jp).intervals == 1).all()

    def test_intervals_within_range(self):
        for theta in (1.0, 32.0):
            model = sl.build_model(theta, 30, sl.Scenario.ESTIMATION)
            jp = sl.solve_goc(model, sl.PlannerConfig(beta=0.7, t_max=10))
            iv = sl.extract_sigma(jp).intervals
            assert np.all((iv >= 1) & (iv <= 10))

    def test_transmission_rate_rises_as_cost_falls(self):
        model = sl.build_model(32.0, 30, sl.Scenario.ESTIMATION)
        cheap = sl.solve_goc(model, sl.PlannerConfig(beta=0.2, t_max=10))
        dear = sl.solve_goc(model, sl.PlannerConfig(beta=2.0, t_max=10))
        assert sl.extract_sigma(cheap).intervals.mean() \
            < sl.extract_sigma(dear).intervals.mean()

    def test_deterministic_output(self):
        model = sl.build_model(8.0, 30, sl.Scenario.CONTROL)
        cfg = sl.PlannerConfig(beta=1.0, t_max=10)
        a, b = sl.solve_goc(model, cfg), sl.solve_goc(model, cfg)
        assert np.array_equal(a.transmit, b.transmit)
        assert np.array_equal(a.control, b.control)

    def test_estimation_tables_built_once(self, monkeypatch):
        """Estimation c and K do not depend on the plans, so one solve makes
        one belief table however many sweeps it runs."""
        built = []

        def counting(*args):
            built.append(args)
            return segment_beliefs(*args)

        segment_beliefs = policy.segment_beliefs
        monkeypatch.setattr(policy, "segment_beliefs", counting)
        model = sl.build_model(32.0, 30, sl.Scenario.ESTIMATION)
        cfg = sl.PlannerConfig(beta=1.0, t_max=10)
        jp = sl.solve_goc(model, cfg)
        assert len(built) == 1
        monkeypatch.undo()
        assert np.array_equal(jp.intervals, sl.solve_goc(model, cfg).intervals)

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(100 + trial)
        est_case = trial % 2 == 0
        n = int(rng.integers(3, 5))
        na = 1 if est_case else 2
        trans = random_stochastic(rng, na, n)
        reward = None if est_case else rng.random(n) * 5
        model = sl.MarkovModel(
            num_states=n, num_actions=na, transitions=trans,
            scenario=sl.Scenario.ESTIMATION if est_case else sl.Scenario.CONTROL,
            density_decay=1.0, task_reward=reward)
        cfg = small_config(gamma=float(rng.uniform(0.5, 0.97)),
                           beta=float(rng.uniform(0.0, 1.5)))
        jp = sl.solve_goc(model, cfg)
        got = sl.evaluate_policy_values(model, jp, cfg)
        want = brute_force_best(trans, reward, cfg.gamma, cfg.beta, cfg.t_max)
        assert np.abs(got - want).max() < 1e-8


class TestSolvePeriodic:
    def test_identity_prefers_longest(self):
        model = estimation_model(np.eye(4))
        jp = sl.solve_periodic(model, small_config(beta=1.0))
        assert (jp.intervals == 3).all()

    def test_free_information_prefers_shortest(self):
        model = estimation_model(ring_matrix([1, 2], 5, [0.6, 0.4]))
        jp = sl.solve_periodic(model, small_config(beta=0.0))
        assert (jp.intervals == 1).all()

    def test_goc_dominates(self, est_cell):
        m, cfg = est_cell.model, est_cell.planner
        vg = sl.evaluate_policy(m, est_cell.goc, cfg)
        vp = sl.evaluate_policy(m, est_cell.pp_policy, cfg)
        assert vg >= vp - 2e-9

    def test_brute_force_restricted(self):
        rng = np.random.default_rng(9)
        trans = random_stochastic(rng, 1, 4)
        model = estimation_model(trans[0])
        cfg = small_config(beta=0.7)
        period = int(sl.solve_periodic(model, cfg).intervals[0])
        vals = {}
        for t in (1, 2, 3):
            sigma = sl.SchedulingFunction(np.full(4, t), t_max=3)
            policy = sl.best_control_for_sigma(model, sigma, cfg)
            vals[t] = sl.evaluate_policy(model, policy, cfg)
        assert vals[period] == pytest.approx(max(vals.values()), abs=1e-9)


class TestBestControlForSigma:
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(200 + trial)
        trans = random_stochastic(rng, 2, 3)
        reward = rng.random(3) * 5
        model = control_model(trans, reward)
        cfg = small_config(gamma=float(rng.uniform(0.5, 0.97)),
                           beta=float(rng.uniform(0.0, 1.5)))
        taus = np.ones(3, dtype=np.int64)
        while len(set(taus.tolist())) == 1:
            taus = rng.integers(1, 4, size=3)
        sigma = sl.SchedulingFunction(taus, t_max=3)
        jp = sl.best_control_for_sigma(model, sigma, cfg)
        assert np.array_equal(sl.extract_sigma(jp).intervals, taus)
        got = sl.evaluate_policy_values(model, jp, cfg)
        want = brute_force_for_schedule(trans, reward, cfg.gamma, cfg.beta, taus)
        assert np.abs(got - want).max() < 1e-8

    def test_identical_actions_keep_first_plan(self):
        """With three copies of one matrix every action sequence ties; the
        search must return the all-zero sequences.  (Actions cannot change
        the reward here, so no prefix is ever pruned.)"""
        rng = np.random.default_rng(11)
        n, t_max = 6, 10
        model = control_model(np.repeat(random_stochastic(rng, 1, n), 3, axis=0),
                              rng.random(n) * 5)
        cfg = sl.PlannerConfig(beta=1.0, t_max=t_max)
        assert (sl.solve_goc(model, cfg).control == 0).all()
        sigma = sl.SchedulingFunction(rng.integers(1, t_max + 1, size=n), t_max=t_max)
        assert (sl.best_control_for_sigma(model, sigma, cfg).control == 0).all()

    def test_duplicate_action_never_chosen_under_pruning(self, caplog):
        """Action 2 copies action 1, so it ties with it everywhere and the
        tie rule keeps action 1, also when most prefixes are pruned."""
        rng = np.random.default_rng(1)
        n, t_max = 6, 10
        pair = random_stochastic(rng, 2, n)
        model = control_model(pair[[0, 1, 1]], rng.random(n) * 5)
        cfg = sl.PlannerConfig(beta=0.1, t_max=t_max)
        caplog.set_level(logging.DEBUG, logger="schedleak")
        jp = sl.solve_goc(model, cfg)
        assert (jp.control == 1).any() and not (jp.control == 2).any()
        lines = [r.getMessage() for r in caplog.records if r.name == "schedleak"]
        assert len(lines) == 1
        sweeps, nodes = map(int, re.fullmatch(
            r"policy iteration: (\d+) sweeps, (\d+) plan nodes expanded",
            lines[0]).groups())
        assert nodes < 0.1 * sweeps * n * sum(3 ** t for t in range(t_max))
        sigma = sl.SchedulingFunction(np.arange(n) % t_max + 1, t_max=t_max)
        assert not (sl.best_control_for_sigma(model, sigma, cfg).control == 2).any()

    def test_duplicate_action_never_chosen_on_rounding_ties(self):
        """A plan's value rounds differently with its row in the batched
        product, so a tie between the two copies can differ by an ulp; the
        rule must still keep action 1 (seeds 9, 38, 66 and 73 used to
        return action 2 from the schedule-fixed search)."""
        for seed in range(80):
            model, cfg, rng = tie_rich_model("duplicate", seed)
            goc = sl.solve_goc(model, cfg)
            sigma = sl.SchedulingFunction(rng.integers(1, cfg.t_max + 1, model.num_states),
                                          t_max=cfg.t_max)
            for jp in (goc, sl.best_control_for_sigma(model, sl.extract_sigma(goc), cfg),
                       sl.best_control_for_sigma(model, sigma, cfg)):
                assert not (jp.control == 2).any(), seed

    def test_t_max_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        model = control_model(random_stochastic(rng, 2, 3), rng.random(3))
        for intervals in ([8, 8, 8], [3, 3, 3]):
            sigma = sl.SchedulingFunction(np.array(intervals), t_max=10)
            with pytest.raises(ValueError, match=r"t_max 10 .* t_max 5"):
                sl.best_control_for_sigma(model, sigma, small_config(t_max=5))

    def test_init_control_shape_rejected(self):
        rng = np.random.default_rng(5)
        model = control_model(random_stochastic(rng, 2, 3), rng.random(3))
        sigma = sl.SchedulingFunction(np.array([1, 2, 3]), t_max=3)
        with pytest.raises(ValueError, match="init_control has shape"):
            sl.best_control_for_sigma(model, sigma, small_config(),
                                      init_control=np.zeros((3, 4), dtype=np.int64))

    def test_warm_start_zeroes_entries_from_tau(self):
        """Start-table entries at or after a state's interval are dropped, so
        the result keeps the zero-from-tau layout and equals the cold solve."""
        rng = np.random.default_rng(8)
        model = control_model(random_stochastic(rng, 2, 4), rng.random(4) * 5)
        cfg = small_config(t_max=4)
        sigma = sl.SchedulingFunction(np.array([1, 2, 3, 4]), t_max=4)
        beyond = np.arange(4)[None, :] >= sigma.intervals[:, None]
        cold = sl.best_control_for_sigma(model, sigma, cfg)
        warm = sl.best_control_for_sigma(model, sigma, cfg,
                                         init_control=np.where(beyond, 1, cold.control))
        assert np.array_equal(warm.control, cold.control)
        assert (warm.control[beyond] == 0).all()


class TestEvaluatePolicy:
    def test_identity_free_perfect(self):
        model = estimation_model(np.eye(4))
        cfg = small_config(beta=0.0)
        jp = sl.solve_goc(model, cfg)
        value = sl.evaluate_policy(model, jp, cfg)
        assert value == pytest.approx(1 / (1 - cfg.gamma), rel=1e-9)

    def test_rare_transmission_beats_frequent_on_identity(self):
        model = estimation_model(np.eye(4))
        cfg = small_config(beta=0.5)
        jp = sl.solve_goc(model, cfg)
        late = sl.JointPolicy(np.full(4, 3), 3, jp.control)
        early = sl.JointPolicy(np.full(4, 1), 3, jp.control)
        assert sl.evaluate_policy(model, late, cfg) > sl.evaluate_policy(model, early, cfg)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(21)
        trans = random_stochastic(rng, 1, 5)
        model = estimation_model(trans[0])
        sigma = sl.SchedulingFunction(rng.integers(1, 4, size=5), t_max=3)
        jp = sl.best_control_for_sigma(model, sigma, small_config())
        values = [sl.evaluate_policy(model, jp, small_config(beta=b))
                  for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(33)
        trans = random_stochastic(rng, 1, 4)
        model = estimation_model(trans[0])
        cfg = small_config(beta=0.4, gamma=0.9)
        jp = sl.solve_goc(model, cfg)
        value = sl.evaluate_policy(model, jp, cfg)
        mc, se = monte_carlo_return(trans, None, jp.intervals, jp.control,
                                    cfg.gamma, cfg.beta, n_episodes=4000,
                                    horizon=200, seed=7)
        assert abs(value - mc) < 3 * se

    def test_control_against_monte_carlo(self):
        rng = np.random.default_rng(34)
        trans = random_stochastic(rng, 2, 4)
        reward = rng.random(4) * 5
        model = sl.MarkovModel(num_states=4, num_actions=2, transitions=trans,
                               scenario=sl.Scenario.CONTROL, density_decay=1.0,
                               task_reward=reward)
        cfg = small_config(beta=0.4, gamma=0.9)
        jp = sl.solve_goc(model, cfg)
        value = sl.evaluate_policy(model, jp, cfg)
        mc, se = monte_carlo_return(trans, reward, jp.intervals, jp.control,
                                    cfg.gamma, cfg.beta, n_episodes=4000,
                                    horizon=200, seed=8)
        assert abs(value - mc) < 3 * se


class TestSegmentBeliefs:
    @pytest.mark.parametrize("scenario", list(sl.Scenario))
    def test_rows_match_propagate_belief(self, scenario):
        rng = np.random.default_rng(40)
        model = sl.build_model(4.0, 12, scenario)
        control = rng.integers(0, model.num_actions, size=(12, 6))
        pre = sl.segment_beliefs(model, control, 6)
        assert pre.shape == (12, 7, 12)
        plan = ControlPlan(control)
        for s in range(1, 13):
            for t in range(7):
                want = propagate_belief(model, sl.delta_belief(s, 12), plan, t,
                                        renewal_state=s)
                assert np.abs(pre[s - 1, t] - want).max() < 1e-14

    def test_stats_match_evaluation(self):
        """c and K on the chosen rows reproduce the oracle's plan values."""
        rng = np.random.default_rng(41)
        trans = random_stochastic(rng, 2, 4)
        reward = rng.random(4) * 5
        model = sl.MarkovModel(num_states=4, num_actions=2, transitions=trans,
                               scenario=sl.Scenario.CONTROL, density_decay=1.0,
                               task_reward=reward)
        cfg = small_config()
        taus = rng.integers(1, 4, size=4)
        control = rng.integers(0, 2, size=(4, 3))
        c, k = sl.segment_stats(model, cfg, sl.segment_beliefs(model, control, 3), control)
        idx = np.arange(4)
        got = np.linalg.solve(np.eye(4) - k[idx, taus], c[idx, taus])
        plans = [(int(t), tuple(control[s, :t])) for s, t in enumerate(taus)]
        want = evaluate_joint(trans, reward, plans, cfg.gamma, cfg.beta)
        assert np.abs(got - want).max() < 1e-12


class TestOccupancyDistribution:
    def test_one_action_equals_steady_state(self):
        rng = np.random.default_rng(42)
        model = sl.build_model(32.0, 30, sl.Scenario.ESTIMATION)
        mu = sl.steady_state(model)
        guesses = np.ones((30, 10), dtype=np.int64)
        for _ in range(5):
            taus = rng.integers(1, 11, size=30)
            jp = sl.JointPolicy(taus, 10, guesses)
            occ = sl.occupancy_distribution(model, jp)
            assert np.abs(occ - mu).max() < 1e-12

    @pytest.mark.parametrize("trial", range(4))
    def test_control_matches_explicit_chain(self, trial):
        rng = np.random.default_rng(60 + trial)
        n, na, t_max = 4, int(rng.integers(2, 4)), 3
        trans = random_stochastic(rng, na, n)
        model = sl.MarkovModel(num_states=n, num_actions=na, transitions=trans,
                               scenario=sl.Scenario.CONTROL, density_decay=1.0,
                               task_reward=rng.random(n))
        taus = rng.integers(1, t_max + 1, size=n)
        control = rng.integers(0, na, size=(n, t_max))
        jp = sl.JointPolicy(taus, t_max, control)
        occ = sl.occupancy_distribution(model, jp)
        assert np.abs(occ - renewal_occupancy(trans, taus, control)).max() < 1e-10

    @pytest.mark.parametrize("trial", range(3))
    def test_periodic_renewal_chain_matches_explicit_chain(self, trial):
        # every transition and every (odd) interval crosses between the
        # sides {1, 2} and {3, 4, 5}, so the renewal chain has period 2 and
        # the uniform start, unequal on the two sides, never settles
        rng = np.random.default_rng(70 + trial)
        n, na, t_max = 5, 2, 3
        trans = random_stochastic(rng, na, n)
        trans[:, :2, :2] = trans[:, 2:, 2:] = 0
        trans /= trans.sum(axis=2, keepdims=True)
        model = control_model(trans, rng.random(n))
        taus = rng.choice([1, 3], size=n)
        control = rng.integers(0, na, size=(n, t_max))
        renewal = sl.segment_beliefs(model, control, t_max)[np.arange(n), taus]
        assert not renewal[:2, :2].any() and not renewal[2:, 2:].any()
        jp = sl.JointPolicy(taus, t_max, control)
        occ = sl.occupancy_distribution(model, jp)
        assert np.abs(occ - renewal_occupancy(trans, taus, control)).max() < 1e-10


class TestScheduleCheck:
    @pytest.mark.parametrize("scenario", list(sl.Scenario))
    # a policy carries its own t_max, so occupancy has no planner's to mismatch
    @pytest.mark.parametrize("case, call", [
        (case, call) for case in ("length", "t_max")
        for call in ("best_control_for_sigma", "evaluate_policy_values",
                     "pde_packing_steps", "occupancy_distribution")
        if (case, call) != ("t_max", "occupancy_distribution")])
    def test_mismatched_schedule_rejected(self, scenario, case, call):
        intervals, t_max, pattern = {
            "length": ([1, 2, 3, 4, 2], 4, r"schedule has 5 intervals.*num_states=6"),
            "t_max": ([1, 2, 3, 4, 2, 1], 5, r"sigma t_max 5 .* t_max 4")}[case]
        model = sl.build_model(8.0, 6, scenario)
        cfg = small_config(t_max=4)
        jp = sl.JointPolicy(np.array(intervals), t_max,
                            np.ones((len(intervals), t_max), dtype=np.int64))
        args = {"best_control_for_sigma": (model, jp, cfg),
                "evaluate_policy_values": (model, jp, cfg),
                "pde_packing_steps": (jp, model, cfg),
                "occupancy_distribution": (model, jp)}[call]
        with pytest.raises(ValueError, match=pattern):
            getattr(sl, call)(*args)


class TestSerialization:
    def test_round_trip(self, est_cell):
        text = sl.policy_to_json(est_cell.goc)
        back = sl.policy_from_json(text)
        assert np.array_equal(back.transmit, est_cell.goc.transmit)
        assert np.array_equal(back.control, est_cell.goc.control)
        assert sl.policy_to_json(back) == text

    def test_sigma_round_trips(self, est_cell):
        back = sl.policy_from_json(sl.policy_to_json(est_cell.goc))
        assert np.array_equal(sl.extract_sigma(back).intervals,
                              est_cell.sigma_goc.intervals)

    def test_psi_of_other_sigma_rejected(self):
        doc = json.loads(sl.policy_to_json(
            sl.JointPolicy(np.array([2, 3]), 4, np.zeros((2, 4), dtype=np.int64))))
        doc["sigma"] = [4, 4]
        with pytest.raises(ValueError, match="psi is not the transmit map of sigma"):
            sl.policy_from_json(json.dumps(doc))

    def test_fractional_t_max_rejected(self):
        doc = json.loads(sl.policy_to_json(
            sl.JointPolicy(np.array([2, 3]), 4, np.zeros((2, 4), dtype=np.int64))))
        doc["t_max"] = 4.0
        assert sl.policy_from_json(json.dumps(doc)).t_max == 4
        doc["t_max"] = 4.7
        with pytest.raises(ValueError, match="t_max must be a whole number, got 4.7"):
            sl.policy_from_json(json.dumps(doc))
