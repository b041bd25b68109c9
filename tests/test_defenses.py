import dataclasses
import logging
import re

import numpy as np
import pytest

import schedleak as sl
from schedleak import policy
from schedleak.defenses import DefenseMode, ade_decide
from conftest import standard_config
from oracles import random_stochastic, reference_packing_steps
from test_markov import estimation_model, ring_matrix
from test_policy import tie_rich_model


class TestAdeRule:
    def test_goc_crosses_upper(self):
        assert ade_decide(DefenseMode.GOC, 0.65, 0.4, 0.6) is DefenseMode.PERIODIC

    def test_periodic_crosses_lower(self):
        assert ade_decide(DefenseMode.PERIODIC, 0.35, 0.4, 0.6) is DefenseMode.GOC

    def test_periodic_sticky_in_band(self):
        assert ade_decide(DefenseMode.PERIODIC, 0.50, 0.4, 0.6) is DefenseMode.PERIODIC

    def test_goc_sticky_in_band(self):
        assert ade_decide(DefenseMode.GOC, 0.50, 0.4, 0.6) is DefenseMode.GOC

    def test_hysteresis_replay(self):
        """Mode flips only at band crossings over a synthetic forecast path."""
        forecasts = [0.1, 0.5, 0.59, 0.61, 0.5, 0.41, 0.39, 0.5, 0.7, 0.65]
        expected = [DefenseMode.GOC, DefenseMode.GOC, DefenseMode.GOC,
                    DefenseMode.PERIODIC, DefenseMode.PERIODIC,
                    DefenseMode.PERIODIC, DefenseMode.GOC, DefenseMode.GOC,
                    DefenseMode.PERIODIC, DefenseMode.PERIODIC]
        mode = DefenseMode.GOC
        for fc, want in zip(forecasts, expected):
            mode = ade_decide(mode, fc, 0.4, 0.6)
            assert mode is want

    def test_threshold_order_enforced(self, est_cell):
        with pytest.raises(ValueError):
            sl.AdeState(mode=DefenseMode.GOC, l_low=0.6, l_high=0.4,
                        goc_segment=est_cell.regime(sl.PolicyKind.MPI),
                        pp_segment=est_cell.regime(sl.PolicyKind.PP))


class TestForecast:
    def test_periodic_forecast_hits_floor(self, est_cell):
        m = est_cell.model
        mu = sl.steady_state(m)
        seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, 4), 10))
        est = sl.EveEstimator(m, active=seg, prior=mu)
        for _ in range(15):
            est.observe(4)
        fc = sl.forecast_leakage(est, 4, 5)
        assert fc - sl.min_leakage(m, mu=mu) < 0.02

    def test_distinguishing_schedule_forecasts_certainty(self):
        model = estimation_model(np.eye(3))
        taus = np.array([1, 2, 3])
        seg = sl.SegmentModel(model, sl.SchedulingFunction(taus, 3))
        est = sl.EveEstimator(model, active=seg, prior=np.full(3, 1 / 3))
        assert sl.forecast_leakage(est, 2, 0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_gap(self, est_cell):
        seg = est_cell.regime(sl.PolicyKind.MPI)
        est = sl.EveEstimator(est_cell.model, active=seg,
                              prior=sl.steady_state(est_cell.model))
        est.observe(int(est_cell.sigma_goc.intervals[10]))
        tau = int(est_cell.sigma_goc.intervals[4])
        assert sl.forecast_leakage(est, tau, 0) <= \
            sl.forecast_leakage(est, tau, 5) + 1e-12

    def test_probe_does_not_mutate(self, est_cell):
        est = sl.EveEstimator(est_cell.model, active=est_cell.regime(sl.PolicyKind.MPI),
                              prior=sl.steady_state(est_cell.model))
        est.observe(int(est_cell.sigma_goc.intervals[0]))
        before = len(est.intervals)
        sl.forecast_leakage(est, 3, 5)
        assert len(est.intervals) == before


class TestAdeSchedule:
    def test_interval_always_valid(self, est_cell):
        mu = sl.steady_state(est_cell.model)
        ade = sl.AdeState(mode=DefenseMode.GOC, l_low=0.4, l_high=0.6,
                          goc_segment=est_cell.regime(sl.PolicyKind.MPI),
                          pp_segment=est_cell.regime(sl.PolicyKind.PP))
        est = sl.EveEstimator(est_cell.model, active=est_cell.regime(sl.PolicyKind.MPI),
                              prior=mu)
        rng = np.random.default_rng(3)
        for _ in range(12):
            s = int(rng.integers(1, 31))
            mode = sl.ade_schedule(s, ade, est, 5)
            seg = est_cell.regime(sl.PolicyKind.MPI if mode is DefenseMode.GOC
                                  else sl.PolicyKind.PP)
            assert ade.segment is seg
            interval = int(seg.policy.intervals[s - 1])
            assert 1 <= interval <= 10
            est.set_active(seg)
            est.observe(interval)

    def test_low_thresholds_force_periodic(self, est_cell):
        """With the band at the floor, a leaky schedule switches immediately."""
        mu = sl.steady_state(est_cell.model)
        ade = sl.AdeState(mode=DefenseMode.GOC, l_low=0.05, l_high=0.1,
                          goc_segment=est_cell.regime(sl.PolicyKind.MPI),
                          pp_segment=est_cell.regime(sl.PolicyKind.PP))
        est = sl.EveEstimator(est_cell.model, active=est_cell.regime(sl.PolicyKind.MPI),
                              prior=mu)
        mode = sl.ade_schedule(5, ade, est, 5)
        assert mode is DefenseMode.PERIODIC

    def test_listener_of_another_regime_rejected(self, est_cell):
        """The forecast reads the listener's own regime, so it must be the
        current mode's."""
        ade = sl.AdeState(mode=DefenseMode.PERIODIC, l_low=0.4, l_high=0.6,
                          goc_segment=est_cell.regime(sl.PolicyKind.MPI),
                          pp_segment=est_cell.regime(sl.PolicyKind.PP))
        est = sl.EveEstimator(est_cell.model, active=est_cell.regime(sl.PolicyKind.MPI),
                              prior=sl.steady_state(est_cell.model))
        with pytest.raises(ValueError, match="current mode"):
            sl.ade_schedule(5, ade, est, 5)
        assert ade.mode is DefenseMode.PERIODIC


class TestPackPde:
    def test_constant_schedule_unchanged(self):
        rng = np.random.default_rng(2)
        model = estimation_model(random_stochastic(rng, 1, 6)[0])
        sigma0 = sl.SchedulingFunction(np.full(6, 3), t_max=5)
        out = sl.pde_packing_steps(sigma0, model, sl.PlannerConfig(beta=0.5, t_max=5),
                                   target_entropy=0.0)[-1][0]
        assert np.array_equal(out.intervals, sigma0.intervals)

    def test_two_group_collapse_matches_exhaustive(self):
        rng = np.random.default_rng(4)
        model = estimation_model(random_stochastic(rng, 1, 4)[0])
        planner = sl.PlannerConfig(beta=0.5, t_max=5)
        sigma0 = sl.SchedulingFunction(np.array([2, 2, 5, 5]), t_max=5)
        out = sl.pde_packing_steps(sigma0, model, planner, target_entropy=0.0)[-1][0]
        assert sl.policy_entropy(out, 4) == 0.0
        scores = {}
        for const in (2, 5):
            sig = sl.SchedulingFunction(np.full(4, const), t_max=5)
            jp = sl.best_control_for_sigma(model, sig, planner)
            scores[const] = sl.evaluate_policy(model, jp, planner)
        assert out.intervals[0] == max(scores, key=scores.get)

    def test_entropy_strictly_decreasing(self, est_cell):
        steps = est_cell.pde_steps()
        ents = [h for _, h in steps]
        assert all(a - b > 1e-9 for a, b in zip(ents, ents[1:]))
        assert len(steps) <= 30 * 10 + 1

    def test_halving_at_standard_cell(self, est_cell):
        h0 = sl.policy_entropy(est_cell.sigma_goc, 30)
        out = sl.pde_packing_steps(est_cell.sigma_goc, est_cell.model, est_cell.planner,
                                   target_entropy=0.5 * h0)[-1][0]
        assert sl.policy_entropy(out, 30) <= 0.5 * h0 + 1e-9

    @pytest.mark.parametrize("kind, seed", [
        ("estimation", 6), ("estimation", 7), ("estimation", 8), ("estimation", 9),
        ("estimation", 10), ("uniform", 0), ("uniform", 1), ("duplicate", 5)])
    def test_accepted_steps_are_reward_maximal(self, kind, seed):
        """Every accepted step is the first reward maximum of a scan that
        scores one candidate at a time.  Under a uniform transition matrix
        the states are exchangeable, so scores tie exactly and the scan
        order decides."""
        rng = np.random.default_rng(seed)
        if kind in ("estimation", "uniform"):
            trans = random_stochastic(rng, 1, 5)[0] if kind == "estimation" else np.full((5, 5), 0.2)
            model = estimation_model(trans)
            planner = sl.PlannerConfig(beta=0.6, t_max=4)
        else:
            model, planner, rng = tie_rich_model(kind, seed)
        sigma0 = sl.SchedulingFunction(rng.integers(1, planner.t_max + 1, model.num_states),
                                       t_max=planner.t_max)
        steps = sl.pde_packing_steps(sigma0, model, planner, target_entropy=0.0)
        ref_steps, _ = reference_packing_steps(sigma0, model, planner)
        assert len(steps) == len(ref_steps) > 1
        assert np.array_equal([s.intervals for s, _ in steps],
                              [s.intervals for s, _ in ref_steps])
        assert np.array_equal([h for _, h in steps], [h for _, h in ref_steps])

    def test_scan_order_decides_cross_ties(self):
        """Under the identity chain at these dyadic values every entropy-
        lowering deviation scores exactly 2.0, so the first maximum in
        (state, interval) order decides: state 1 moves to interval 2, where
        an interval-major scan would move state 5 to interval 1."""
        model = estimation_model(np.eye(5))
        planner = sl.PlannerConfig(gamma=0.5, beta=0.0, t_max=3)
        sigma0 = sl.SchedulingFunction(np.array([1, 3, 3, 3, 2]), t_max=3)
        steps = sl.pde_packing_steps(sigma0, model, planner)
        assert steps[1][0].intervals.tolist() == [2, 3, 3, 3, 2]
        ref_steps, _ = reference_packing_steps(sigma0, model, planner)
        assert [s.intervals.tolist() for s, _ in steps] == \
            [s.intervals.tolist() for s, _ in ref_steps]
        assert np.array_equal([h for _, h in steps], [h for _, h in ref_steps])

    def test_target_already_met_returns_input(self, est_cell):
        h0 = sl.policy_entropy(est_cell.sigma_goc, 30)
        out = sl.pde_packing_steps(est_cell.sigma_goc, est_cell.model, est_cell.planner,
                                   target_entropy=h0)[-1][0]
        assert np.array_equal(out.intervals, est_cell.sigma_goc.intervals)

    def test_negative_target_rejected(self, est_cell):
        with pytest.raises(ValueError, match="nonnegative"):
            sl.pde_packing_steps(est_cell.sigma_goc, est_cell.model, est_cell.planner,
                                 target_entropy=-0.1)

    def test_t_max_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        model = estimation_model(random_stochastic(rng, 1, 6)[0])
        sigma0 = sl.SchedulingFunction(np.array([1, 2, 3, 6, 8, 10]), t_max=10)
        with pytest.raises(ValueError, match=r"t_max 10 .* t_max 5"):
            sl.pde_packing_steps(sigma0, model, sl.PlannerConfig(t_max=5))


class TestWarmPacking:
    """Warm refreshes, the seeded first refresh and the stacked scan change
    the work, never the result: steps, entropies and every refresh's
    control table equal those of the one-candidate-at-a-time reference with
    cold refreshes, also where plans tie."""

    @pytest.mark.parametrize("kind", ["duplicate", "identical", "sparse"])
    def test_matches_cold_reference_on_tie_rich_models(self, kind, monkeypatch):
        cold_solve = policy.best_control_for_sigma
        tables = []

        def recording(*args, **kwargs):
            jp = cold_solve(*args, **kwargs)
            tables.append(jp.control)
            return jp

        monkeypatch.setattr(policy, "best_control_for_sigma", recording)
        packed_steps = 0
        for seed in range(40):
            model, cfg, rng = tie_rich_model(kind, seed)
            goc = sl.solve_goc(model, cfg)
            sigma_goc = sl.extract_sigma(goc)
            assert np.array_equal(
                cold_solve(model, sigma_goc, cfg, init_control=goc.control).control,
                cold_solve(model, sigma_goc, cfg).control), seed
            sigma_rand = sl.SchedulingFunction(rng.integers(1, cfg.t_max + 1, model.num_states),
                                               t_max=cfg.t_max)
            for sigma0, control in ((sigma_goc, goc.control),
                                    (sigma_rand, cold_solve(model, sigma_rand, cfg).control)):
                tables.clear()
                steps = sl.pde_packing_steps(sigma0, model, cfg, control=control)
                warm_tables = list(tables)
                ref_steps, ref_tables = reference_packing_steps(sigma0, model, cfg)
                # the reference refreshes before each scan, so never the last schedule
                ref_tables.append(cold_solve(model, ref_steps[-1][0], cfg).control)
                assert len(steps) == len(ref_steps), seed
                for (sig, _), (ref_sig, _) in zip(steps, ref_steps):
                    assert np.array_equal(sig.intervals, ref_sig.intervals), seed
                assert np.array_equal([h for _, h in steps], [h for _, h in ref_steps]), seed
                # one refresh per accepted schedule, and each step keeps its table
                assert len(warm_tables) == len(steps) == len(ref_tables), seed
                for table, (jp, _), ref_table in zip(warm_tables, steps, ref_tables):
                    assert np.array_equal(table, ref_table), seed
                    assert np.array_equal(jp.control, ref_table), seed
                packed_steps += len(steps) - 1
        assert packed_steps > 40

    def test_standard_cell_packing_matches_cold_reference(self, ctl_cell):
        """The standard control model at a short horizon, where its goal-
        oriented schedule mixes two intervals."""
        planner = dataclasses.replace(ctl_cell.planner, t_max=6)
        goc = sl.solve_goc(ctl_cell.model, planner)
        sigma_goc = sl.extract_sigma(goc)
        steps = sl.pde_packing_steps(sigma_goc, ctl_cell.model, planner,
                                     control=goc.control)
        ref_steps, _ = reference_packing_steps(sigma_goc, ctl_cell.model, planner)
        assert len(steps) > 2
        assert [s.intervals.tolist() for s, _ in steps] == \
            [s.intervals.tolist() for s, _ in ref_steps]
        assert np.array_equal([h for _, h in steps], [h for _, h in ref_steps])

    def test_pde_reads_the_packing_tables(self, monkeypatch):
        """``CellSolution.pde`` takes each policy from its packing step
        without another solve; the table equals a refresh of the chosen
        schedule warm from the goal-oriented table."""
        sol = sl.CellSolution(standard_config(scenario=sl.Scenario.CONTROL))
        sol.pde_steps()
        solve = policy.best_control_for_sigma
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(policy, "best_control_for_sigma", counting)
        chosen = {f: sol.pde(f) for f in (0.25, 0.5, 0.75)}
        assert calls == []
        for f, (sigma, jp, seg) in chosen.items():
            assert sigma is jp and np.array_equal(seg.policy.control, jp.control)
            want = solve(sol.model, jp, sol.planner, init_control=sol.goc.control)
            assert np.array_equal(jp.control, want.control), f
        assert sl.policy_entropy(chosen[0.25][1], 30) < sl.policy_entropy(chosen[0.75][1], 30)

    def test_diagnostics_logged(self, caplog):
        model, cfg, _ = tie_rich_model("sparse", 3)
        sigma0 = sl.SchedulingFunction(np.array([1, 1, 2, 3, 4, 5]), t_max=cfg.t_max)
        control = sl.best_control_for_sigma(model, sigma0, cfg).control
        caplog.set_level(logging.DEBUG, logger="schedleak")
        steps = sl.pde_packing_steps(sigma0, model, cfg, control=control)
        lines = [r.getMessage() for r in caplog.records if r.name == "schedleak"]
        # the seeded first refresh only certifies the table it is given
        assert re.fullmatch(r"policy iteration: 1 sweeps, \d+ plan nodes expanded", lines[0])
        packing = [line for line in lines if line.startswith("pde packing")]
        assert len(packing) == 1
        accepted, scored, final = re.fullmatch(
            r"pde packing: (\d+) steps accepted, (\d+) candidates scored, "
            r"final entropy (\S+)", packing[0]).groups()
        assert int(accepted) == len(steps) - 1 > 0
        assert int(scored) >= int(accepted)
        assert float(final) == pytest.approx(steps[-1][1], abs=1e-5)


class TestWeightedPerformance:
    def test_zero_epsilon_is_total_reward(self):
        assert sl.weighted_performance([1.0, 0.5, -0.2], [0.3, 0.9, 0.1], 0.0) == \
            pytest.approx(1.3)

    def test_zero_leakage_ignores_epsilon(self):
        for eps in (0.0, 1.0, 10.0):
            assert sl.weighted_performance([1.0, 2.0], [0.0, 0.0], eps) == pytest.approx(3.0)

    def test_hand_trace(self):
        assert sl.weighted_performance([1.0, 0.0, 1.0], [0.5, 0.5, 0.0], 2.0) == \
            pytest.approx(0.0)
