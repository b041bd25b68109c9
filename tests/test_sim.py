import csv
import dataclasses
import io
import logging
import math
import re

import numpy as np
import pytest

import schedleak as sl
from conftest import standard_config
from test_eavesdropper import rebuilt
from schedleak import markov, policy, simulate


class TestEpisode:
    def test_same_seed_identical(self, est_cell):
        cfg = standard_config(n_steps=80, seed=9)
        rec1, met1 = sl.run_episode(cfg, est_cell)
        rec2, met2 = sl.run_episode(cfg, est_cell)
        for name in ("states", "actions", "transmits", "task_rewards",
                     "comm_rewards", "leakages", "eve_hits"):
            assert np.array_equal(getattr(rec1, name), getattr(rec2, name))
        assert met1 == met2

    def test_different_seed_differs(self, est_cell):
        rec1, _ = sl.run_episode(standard_config(n_steps=80, seed=1), est_cell)
        rec2, _ = sl.run_episode(standard_config(n_steps=80, seed=2), est_cell)
        assert not np.array_equal(rec1.states, rec2.states)

    def test_reward_accounting_identity(self, est_cell):
        cfg = standard_config(n_steps=100, seed=3, beta=1.0)
        rec, met = sl.run_episode(cfg, est_cell)
        assert np.array_equal(rec.comm_rewards, -cfg.beta * rec.transmits)
        assert np.allclose(rec.total_rewards, rec.task_rewards + rec.comm_rewards)
        assert met.transmission_probability == pytest.approx(rec.transmits.mean())

    def test_leakage_in_unit_interval(self, est_cell):
        rec, _ = sl.run_episode(standard_config(n_steps=100, seed=4), est_cell)
        assert np.all((rec.leakages >= 0) & (rec.leakages <= 1))

    def test_first_step_transmits(self, est_cell):
        rec, _ = sl.run_episode(standard_config(n_steps=30, seed=5), est_cell)
        assert rec.transmits[0] == 1

    def test_truncation_flags_tail(self, est_cell):
        cfg = standard_config(n_steps=50, seed=6, d_gap=5)
        rec, _ = sl.run_episode(cfg, est_cell)
        assert not rec.eve_hit_truncated[:45].any()
        assert rec.eve_hit_truncated[45:].all()

    def test_pp_leakage_at_floor(self, est_cell):
        cfg = standard_config(policy_kind=sl.PolicyKind.PP, seed=7)
        _, met = sl.run_episode(cfg, est_cell)
        floor = sl.min_leakage(est_cell.model)
        assert abs(met.mean_leakage - floor) < 0.05

    def test_ade_mode_column(self, est_cell):
        cfg = standard_config(policy_kind=sl.PolicyKind.ADE, seed=8)
        rec, _ = sl.run_episode(cfg, est_cell)
        assert set(rec.modes) <= {"goc", "periodic"}
        assert "periodic" in rec.modes  # leaky cell: defense must engage

    def test_estimation_action_is_exact_at_renewal(self, est_cell):
        rec, _ = sl.run_episode(standard_config(n_steps=60, seed=10), est_cell)
        at_tx = rec.transmits == 1
        assert np.array_equal(rec.actions[at_tx], rec.states[at_tx])
        assert np.all(rec.task_rewards[at_tx] == 1.0)

    @pytest.mark.parametrize("scenario", list(sl.Scenario))
    def test_cell_prior_computed_once(self, scenario, monkeypatch):
        """Episodes share the cell's memoised long-run distributions."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(markov, "steady_state", counted(markov.steady_state))
        monkeypatch.setattr(policy, "occupancy_distribution",
                            counted(policy.occupancy_distribution))
        cfg = standard_config(scenario=scenario, num_states=8, t_max=4, n_steps=12)
        sol = sl.CellSolution(cfg)
        for kind in sl.PolicyKind:
            for i in range(2):
                sl.run_episode(dataclasses.replace(cfg, policy_kind=kind), sol,
                               episode_index=i)
        # estimation: one stationary law; control: MPI (shared by ADE), PP, PDE
        want = 1 if scenario is sl.Scenario.ESTIMATION else 3
        assert len(calls) == want

    @staticmethod
    def listener_lines(caplog):
        return [r.getMessage() for r in caplog.records
                if r.name == "schedleak" and r.getMessage().startswith("listener:")]

    def test_listener_debug_line(self, est_cell, caplog):
        caplog.set_level(logging.DEBUG, logger="schedleak")
        cfg = standard_config(n_steps=120, seed=12, policy_kind=sl.PolicyKind.ADE)
        rec, _ = sl.run_episode(cfg, est_cell)
        lines = self.listener_lines(caplog)
        assert len(lines) == 1
        m = re.fullmatch(
            r"listener: ADE episode, 120 steps, (\d+) requests observed, "
            r"(\d+) backward vectors, (\d+) beliefs made, (\d+) reused, "
            r"trace log-likelihood (\S+), smallest forward normaliser (\S+)", lines[0])
        assert m, lines[0]
        assert int(m[1]) == rec.transmits.sum()
        assert int(m[2]) > 0
        assert int(m[3]) > 0 and int(m[4]) > 0
        assert float(m[5]) < 0.0
        assert 0.0 < float(m[6]) <= 1.0

    def test_backward_work_linear_in_episode_length(self, est_cell, caplog):
        """Fixed-lag smoothing: 4x the steps costs about 4x the vectors."""
        caplog.set_level(logging.DEBUG, logger="schedleak")
        for n_steps in (400, 1600):
            sl.run_episode(standard_config(n_steps=n_steps, seed=13), est_cell)
        counts = [int(re.search(r"(\d+) backward vectors", line)[1])
                  for line in self.listener_lines(caplog)]
        assert len(counts) == 2
        assert counts[1] <= 5 * counts[0], counts

    @pytest.mark.parametrize("scenario", list(sl.Scenario))
    @pytest.mark.parametrize("kind", list(sl.PolicyKind))
    def test_one_window_per_step_matches_reference(self, scenario, kind, request,
                                                   monkeypatch):
        """Leakages and delayed guesses read from each step's window equal
        the pointwise maximum and a second pass over the finished trace."""
        listeners = []

        class Recorded(sl.EveEstimator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                listeners.append(self)

        monkeypatch.setattr(simulate, "EveEstimator", Recorded)
        sol = request.getfixturevalue(
            "est_cell" if scenario is sl.Scenario.ESTIMATION else "ctl_cell")
        h0 = math.log2(sol.model.num_states)
        for gap in (0, 2, 5):
            for n_steps in (1, 3, 40):
                cfg = standard_config(scenario=scenario, policy_kind=kind, d_gap=gap,
                                      n_steps=n_steps, seed=24)
                rec, _ = sl.run_episode(cfg, sol)
                est = listeners[-1]
                leaks, hits, truncated = [], [], []
                for n in range(n_steps):
                    leaks.append(max([0.0] + [
                        1.0 - sl.shannon_entropy(est.belief_at_time(n, d)) / h0
                        for d in range(min(gap, n) + 1)]))
                    horizon = min(n + gap, n_steps - 1)
                    bel = est.belief_at_time(horizon, horizon - n)
                    hits.append(int(int(np.argmax(bel)) + 1 == rec.states[n]))
                    truncated.append(n + gap > n_steps - 1)
                case = (gap, n_steps)
                assert np.array_equal(rec.leakages, leaks), case
                assert np.array_equal(rec.eve_hits, hits), case
                assert np.array_equal(rec.eve_hit_truncated, truncated), case

    @pytest.mark.parametrize("scenario, kind", [
        (sl.Scenario.CONTROL, sl.PolicyKind.ADE), (sl.Scenario.ESTIMATION, sl.PolicyKind.PDE)])
    def test_memoised_windows_equal_a_fresh_listener(self, scenario, kind, request,
                                                     monkeypatch):
        """Every step's window and leakage, read from a memo that ADE's
        probes share, equal those of a listener rebuilt from the same
        intervals with no memo, exactly."""
        checked = []

        class Checked(sl.EveEstimator):
            def leakage(self, horizon, gap):
                got = super().leakage(horizon, gap)
                fresh = rebuilt(self)
                assert got == fresh.leakage(horizon, gap), horizon
                assert all(np.array_equal(a, b) for a, b in
                           zip(self.window(horizon, gap), fresh.window(horizon, gap)))
                checked.append(horizon)
                return got

        monkeypatch.setattr(simulate, "EveEstimator", Checked)
        sol = request.getfixturevalue(
            "est_cell" if scenario is sl.Scenario.ESTIMATION else "ctl_cell")
        cfg = standard_config(scenario=scenario, policy_kind=kind, d_gap=5, n_steps=150,
                              seed=31)
        rec, _ = sl.run_episode(cfg, sol)
        monkeypatch.undo()
        assert checked == list(range(150))
        assert np.array_equal(sl.run_episode(cfg, sol)[0].leakages, rec.leakages)

    @pytest.mark.parametrize("gap", [0, 3, 5])
    def test_no_point_made_twice(self, est_cell, gap, monkeypatch):
        """An MPI episode makes each (last request, instant) belief once."""
        listeners = []

        class Recorded(sl.EveEstimator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                listeners.append(self)

        monkeypatch.setattr(simulate, "EveEstimator", Recorded)
        rec, _ = sl.run_episode(standard_config(d_gap=gap, n_steps=300, seed=17), est_cell)
        requests = np.flatnonzero(rec.transmits)
        points = {(int(np.searchsorted(requests, n, side="right")), m)
                  for n in range(300) for m in range(n - min(gap, n), n + 1)}
        est = listeners[-1]
        assert est.beliefs_made == len(points)
        assert est.beliefs_reused > 0

    def test_solution_of_another_cell_rejected(self, est_cell, ctl_cell):
        for cfg, sol, name in [(standard_config(scenario=sl.Scenario.CONTROL), est_cell,
                                "scenario"),
                               (standard_config(), ctl_cell, "scenario"),
                               (standard_config(theta=8.0), est_cell, "theta"),
                               (standard_config(beta=0.5), est_cell, "beta"),
                               (standard_config(t_max=8), est_cell, "t_max")]:
            with pytest.raises(ValueError, match=f"solved for {name}="):
                sl.run_episode(cfg, sol)

    def test_csv_fixed_columns(self, est_cell):
        rec, _ = sl.run_episode(standard_config(n_steps=20, seed=11), est_cell)
        buf = io.StringIO()
        rec.write_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["n", "s", "a", "c", "r_task", "r_comm",
                           "leakage", "eve_hit", "mode"]
        assert len(rows) == 21
        assert rows[1][0] == "0" and rows[1][3] == "1"


class TestEpisodeConfig:
    @pytest.mark.parametrize("field, pattern", [
        (dict(l_low=0.6, l_high=0.4), "need l_low < l_high"),
        (dict(l_low=0.5, l_high=0.5), "need l_low < l_high"),
        (dict(epsilon=-0.1), "epsilon must be nonnegative"),
        (dict(target_entropy_fraction=1.7), r"target_entropy_fraction must be in \[0, 1\]"),
        (dict(target_entropy_fraction=-0.2), r"target_entropy_fraction must be in \[0, 1\]"),
        (dict(num_states=4), "num_states must be at least 5"),
        (dict(theta=0.0), "theta must be positive"),
        (dict(theta=float("nan")), "theta must be positive"),
        (dict(theta=float("inf")), "theta must be positive and finite"),
        (dict(epsilon=float("inf")), "epsilon must be nonnegative and finite"),
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(beta=float("inf")), "beta must be nonnegative and finite"),
    ], ids=["l_low>l_high", "l_low=l_high", "epsilon", "fraction>1", "fraction<0",
            "num_states<5", "theta=0", "theta=nan", "theta=inf", "epsilon=inf",
            "seed<0", "beta=inf"])
    def test_defense_fields_rejected(self, field, pattern):
        with pytest.raises(ValueError, match=pattern):
            standard_config(**field)

    def test_pareto_grid_checked_before_solving(self, monkeypatch):
        def forbidden(cfg):
            raise AssertionError("cell solved before the grid was checked")
        monkeypatch.setattr(simulate, "CellSolution", forbidden)
        with pytest.raises(ValueError, match="target_entropy_fraction"):
            sl.pareto_sweep(standard_config(), ade_lows=[0.3], pde_fractions=[0.5, 1.7],
                            n_episodes=1)


class TestRegime:
    def test_one_regime_object_per_kind(self, ctl_cell):
        """``regime`` returns the listener's model holding the kind's policy,
        one object per (kind, packing fraction); ADE is given MPI's."""
        mpi = ctl_cell.regime(sl.PolicyKind.MPI)
        assert isinstance(mpi, sl.SegmentModel) and mpi.policy is ctl_cell.goc
        assert ctl_cell.regime(sl.PolicyKind.ADE) is mpi
        assert ctl_cell.regime(sl.PolicyKind.MPI, 0.25) is mpi
        pp = ctl_cell.regime(sl.PolicyKind.PP)
        assert pp.policy is ctl_cell.pp_policy and ctl_cell.regime(sl.PolicyKind.PP) is pp
        for f in (0.25, 0.5):
            pde = ctl_cell.regime(sl.PolicyKind.PDE, f)
            assert pde is ctl_cell.regime(sl.PolicyKind.PDE, f)
            assert pde.policy is ctl_cell.pde(f)[1] and ctl_cell.pde(f)[2] is pde

    def test_regimes_built_on_first_use(self, monkeypatch):
        """A cell builds no listener model until a regime is asked for, and
        each regime once."""
        built = []

        class Counted(sl.SegmentModel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(simulate, "SegmentModel", Counted)
        sol = sl.CellSolution(standard_config())
        assert built == []
        for kind in sl.PolicyKind:
            sl.run_episode(standard_config(policy_kind=kind, n_steps=20), sol)
        want = [sol.goc, sol.pp_policy, sol.pde(0.5)[1]]
        assert len(built) == 3 and all(r.policy is p for r, p in zip(built, want))


class TestBatch:
    def test_single_episode_batch_matches(self, est_cell):
        cfg = standard_config(n_steps=60, seed=12)
        _, met = sl.run_episode(cfg, est_cell)
        batch = sl.run_batch(cfg, 1, est_cell)
        assert batch.means == met
        assert batch.n_episodes == 1

    def test_mean_within_envelope(self, est_cell):
        cfg = standard_config(n_steps=60, seed=13)
        episodes = [sl.run_episode(cfg, est_cell, episode_index=i)[1]
                    for i in range(4)]
        batch = sl.run_batch(cfg, 4, est_cell)
        leaks = [e.mean_leakage for e in episodes]
        assert min(leaks) <= batch.means.mean_leakage <= max(leaks)

    def test_stderr_zero_for_single(self, est_cell):
        batch = sl.run_batch(standard_config(n_steps=40, seed=14), 1, est_cell)
        assert all(v == 0.0 for v in batch.stderrs.values())


class TestSweep:
    def test_single_cell_equals_batch(self, est_cell):
        cfg = standard_config(n_steps=60, seed=15)
        rows = sl.sweep(cfg, [32.0], [1.0], [5], [sl.PolicyKind.MPI], 2,
                        solutions={("estimation", 32.0, 1.0): est_cell})
        batch = sl.run_batch(cfg, 2, est_cell)
        assert rows[0]["mean_leakage"] == pytest.approx(batch.means.mean_leakage)
        assert rows[0]["policy"] == "MPI"

    def test_transmissions_fall_with_cost(self):
        cfg = standard_config(n_steps=100, seed=16, num_states=30)
        rows = sl.sweep(cfg, [32.0], [0.2, 2.0], [5], [sl.PolicyKind.MPI], 2)
        by_beta = {r["beta"]: r for r in rows}
        assert by_beta[0.2]["transmission_probability"] \
            > by_beta[2.0]["transmission_probability"]

    def test_pde_entropy_column_halved(self, est_cell):
        cfg = standard_config(n_steps=40, seed=17)
        rows = sl.sweep(cfg, [32.0], [1.0], [5],
                        [sl.PolicyKind.MPI, sl.PolicyKind.PDE], 1,
                        solutions={("estimation", 32.0, 1.0): est_cell})
        ent = {r["policy"]: r["policy_entropy"] for r in rows}
        assert ent["PDE"] <= 0.5 * ent["MPI"] + 1e-9

    def test_cell_failure_recorded_not_raised(self):
        cfg = standard_config(n_steps=20, seed=18)
        rows = sl.sweep(cfg, [-3.0], [1.0], [5], [sl.PolicyKind.MPI], 1)
        assert len(rows) == 1 and "error" in rows[0]


class TestPareto:
    def test_grid_rows_and_anchors(self, est_cell):
        cfg = standard_config(n_steps=60, seed=19)
        rows = sl.pareto_sweep(cfg, ade_lows=[0.3], pde_fractions=[0.5],
                               n_episodes=2, solution=est_cell)
        kinds = [r["defense"] for r in rows]
        assert kinds == ["MPI", "PP", "ADE", "PDE"]

    def test_empty_grids_only_anchors(self, est_cell):
        rows = sl.pareto_sweep(standard_config(n_steps=40, seed=20),
                               ade_lows=[], pde_fractions=[],
                               n_episodes=1, solution=est_cell)
        assert [r["defense"] for r in rows] == ["MPI", "PP"]

    def test_pde_full_entropy_equals_mpi_anchor(self, est_cell):
        cfg = standard_config(n_steps=60, seed=21)
        rows = sl.pareto_sweep(cfg, ade_lows=[], pde_fractions=[1.0],
                               n_episodes=2, solution=est_cell)
        mpi = next(r for r in rows if r["defense"] == "MPI")
        pde = next(r for r in rows if r["defense"] == "PDE")
        assert pde["mean_leakage"] == pytest.approx(mpi["mean_leakage"])
        assert pde["mean_total_reward"] == pytest.approx(mpi["mean_total_reward"])

    def test_high_thresholds_rarely_trigger(self):
        """With the band near the leakage ceiling the defense is ~idle.

        Leakage still peaks at the deterministic extreme states, so the
        switch fires occasionally; the reward must stay near MPI's.
        """
        cfg = standard_config(theta=1.0, n_steps=120, seed=23)
        sol = sl.CellSolution(cfg)
        rows = sl.pareto_sweep(cfg, ade_lows=[0.7], pde_fractions=[],
                               n_episodes=3, solution=sol)
        mpi = next(r for r in rows if r["defense"] == "MPI")
        ade = next(r for r in rows if r["defense"] == "ADE")
        assert ade["mean_total_reward"] == pytest.approx(
            mpi["mean_total_reward"], rel=0.05)
        rec, _ = sl.run_episode(
            standard_config(theta=1.0, n_steps=120, seed=23,
                            policy_kind=sl.PolicyKind.ADE, l_low=0.7,
                            l_high=0.9), sol)
        frac_periodic = np.mean([m == "periodic" for m in rec.modes])
        assert frac_periodic < 0.25

    def test_pp_anchor_leaks_less_than_mpi(self, est_cell):
        cfg = standard_config(n_steps=100, seed=22)
        rows = sl.pareto_sweep(cfg, ade_lows=[], pde_fractions=[],
                               n_episodes=2, solution=est_cell)
        mpi, pp = rows[0], rows[1]
        assert pp["mean_leakage"] < mpi["mean_leakage"]

    def test_dominated_filter(self):
        rows = [
            {"defense": "A", "mean_leakage": 0.2, "mean_total_reward": 0.5},
            {"defense": "B", "mean_leakage": 0.3, "mean_total_reward": 0.4},
            {"defense": "C", "mean_leakage": 0.1, "mean_total_reward": 0.6},
            {"defense": "D", "mean_leakage": 0.4, "mean_total_reward": 0.7},
        ]
        kept = {r["defense"] for r in sl.pareto_filter(rows)}
        assert kept == {"C", "D"}

    def test_rows_to_csv_round_trip(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5, "c": "x"}]
        text = sl.rows_to_csv(rows)
        back = list(csv.DictReader(io.StringIO(text)))
        assert back[0]["a"] == "1" and back[1]["c"] == "x"


class TestDomainSweep:
    """A seeded slice of the model domain that ``build_model`` accepts: every
    cell solves and runs every policy kind, including the period-3 chain at
    five states and the nearly periodic chains at theta=1e8."""

    @pytest.mark.parametrize("scenario", list(sl.Scenario), ids=lambda s: s.value)
    @pytest.mark.parametrize("theta", [1e-3, 1e8])
    @pytest.mark.parametrize("num_states", [5, 7, 12])
    def test_cell_solves_and_simulates_every_kind(self, num_states, theta, scenario):
        base = sl.EpisodeConfig(scenario=scenario, theta=theta, num_states=num_states,
                                t_max=4, n_steps=40, d_gap=2, seed=31)
        rows = sl.sweep(base, [theta], [1.0], [2], list(sl.PolicyKind), 1)
        assert [r["policy"] for r in rows] == ["MPI", "PP", "ADE", "PDE"]
        for row in rows:
            assert "error" not in row, row["error"]
            assert 0 <= row["min_leakage"] <= 1
            assert 0 <= row["mean_leakage"] <= 1
