import numpy as np
import pytest

import schedleak as sl
from oracles import ControlPlan, propagate_belief


def ring_matrix(offsets, num_states, probs=None):
    """Row-stochastic matrix with fixed landing offsets on the ring."""
    probs = probs if probs is not None else [1.0 / len(offsets)] * len(offsets)
    m = np.zeros((num_states, num_states))
    for s in range(num_states):
        for off, p in zip(offsets, probs):
            m[s, (s + off) % num_states] += p
    return m


def estimation_model(matrix):
    return sl.MarkovModel(num_states=matrix.shape[0], num_actions=1,
                          transitions=matrix[None, :, :],
                          scenario=sl.Scenario.ESTIMATION, density_decay=1.0)


class TestGFactor:
    def test_symmetry_zero(self):
        assert sl.g_factor(16, 7.3, 30) == 0.0

    def test_pivot_state_is_one(self):
        for theta in (0.5, 1, 3, 128):
            assert sl.g_factor(2, theta, 30) == 1.0

    def test_hand_value(self):
        assert sl.g_factor(9, 1.0, 30) == pytest.approx(0.5, abs=1e-12)

    def test_clamped_at_first_state(self):
        # raw |2(1-2)/28 - 1| = 15/14 > 1, must clamp
        assert sl.g_factor(1, 4.0, 30) == 1.0

    @pytest.mark.parametrize("s", [0, 31, -2])
    def test_out_of_range_state(self, s):
        with pytest.raises(ValueError):
            sl.g_factor(s, 1.0, 30)

    def test_monotone_nonincreasing_in_theta(self):
        thetas = [1, 2, 4, 8, 16, 32, 64, 128]
        for s in range(1, 31):
            vals = [sl.g_factor(s, t, 30) for t in thetas]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:])), s


class TestBuildModel:
    def test_uniform_row_at_middle(self):
        m = sl.build_model(1.0, 30, sl.Scenario.ESTIMATION)
        row = m.matrix[15]
        expect = {16: 1 / 3, 18: 1 / 3, 13: 1 / 3}  # 0-indexed landings of s=16
        for idx, p in expect.items():
            assert row[idx] == pytest.approx(p, abs=1e-12)
        assert np.count_nonzero(row) == 3

    def test_flat_branch_row(self):
        m = sl.build_model(3.0, 30, sl.Scenario.ESTIMATION)
        row = m.matrix[1]  # s=2: g=1, s % 4 == 2
        assert row[2] == 0.0
        assert row[4] == pytest.approx(0.5, abs=1e-12)
        assert row[29] == pytest.approx(0.5, abs=1e-12)

    def test_theta_one_row(self):
        m = sl.build_model(1.0, 30, sl.Scenario.ESTIMATION)
        row = m.matrix[4]  # s=5, g = 11/14
        assert row[5] == pytest.approx((1 + 2 * 11 / 14) / 3, abs=1e-4)
        assert row[7] == pytest.approx((1 - 11 / 14) / 3, abs=1e-4)
        assert row[2] == pytest.approx((1 - 11 / 14) / 3, abs=1e-4)

    @pytest.mark.parametrize("theta", [1, 4, 32, 128])
    @pytest.mark.parametrize("scenario", [sl.Scenario.ESTIMATION, sl.Scenario.CONTROL])
    def test_rows_stochastic_and_sparse(self, theta, scenario):
        m = sl.build_model(theta, 30, scenario)
        sums = m.transitions.sum(axis=2)
        assert np.abs(sums - 1).max() < 1e-9
        assert np.all((m.transitions >= 0) & (m.transitions <= 1))
        assert (np.count_nonzero(m.transitions, axis=2) <= 3).all()

    def test_sharpness_increases_with_theta(self):
        flat = sl.build_model(1.0, 30, sl.Scenario.ESTIMATION).matrix
        sharp = sl.build_model(128.0, 30, sl.Scenario.ESTIMATION).matrix
        assert sharp.max(axis=1).mean() > flat.max(axis=1).mean()

    def test_control_action_shifts_landings(self):
        m = sl.build_model(8.0, 30, sl.Scenario.CONTROL)
        assert m.num_actions == 3
        # action a shifts the whole landing pattern by a positions
        for a in (1, 2):
            assert np.allclose(np.roll(m.transitions[0], a, axis=1),
                               m.transitions[a])

    def test_control_reward_targets_midring(self):
        m = sl.build_model(8.0, 30, sl.Scenario.CONTROL)
        assert int(np.argmax(m.task_reward)) + 1 == 14
        assert m.task_reward.max() == pytest.approx(5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sl.build_model(0.0, 30, sl.Scenario.ESTIMATION)
        with pytest.raises(ValueError):
            sl.build_model(1.0, 4, sl.Scenario.ESTIMATION)

    def test_estimation_has_single_matrix(self):
        m = sl.build_model(2.0, 30, sl.Scenario.ESTIMATION)
        assert m.num_actions == 1


class TestPropagate:
    def test_zero_steps_identity(self):
        m = estimation_model(ring_matrix([1, 3, -2], 8))
        start = sl.delta_belief(3, 8)
        out = propagate_belief(m, start, None, 0)
        assert np.array_equal(out, start)

    def test_deterministic_cycle(self):
        m = estimation_model(ring_matrix([1], 7))
        out = propagate_belief(m, sl.delta_belief(1, 7), None, 3)
        assert np.array_equal(out, sl.delta_belief(4, 7))

    def test_matches_matrix_power(self):
        m = sl.build_model(32.0, 30, sl.Scenario.ESTIMATION)
        start = sl.delta_belief(7, 30)
        out = propagate_belief(m, start, None, 5)
        want = start @ np.linalg.matrix_power(m.matrix, 5)
        assert np.abs(out - want).max() < 1e-12

    def test_flow_property(self):
        rng = np.random.default_rng(5)
        m = sl.build_model(4.0, 30, sl.Scenario.ESTIMATION)
        for _ in range(20):
            a, b = rng.integers(0, 6, size=2)
            start = rng.dirichlet(np.ones(30))
            two_leg = propagate_belief(
                m, propagate_belief(m, start, None, int(a)), None, int(b))
            one_leg = propagate_belief(m, start, None, int(a + b))
            assert np.abs(two_leg - one_leg).sum() < 1e-10

    def test_belief_stays_normalized(self):
        m = sl.build_model(16.0, 30, sl.Scenario.ESTIMATION)
        out = propagate_belief(m, sl.uniform_belief(30), None, 50)
        assert abs(out.sum() - 1) < 1e-9

    def test_control_plan_actions_applied(self):
        m = sl.build_model(8.0, 10, sl.Scenario.CONTROL)
        plan = ControlPlan(np.full((10, 5), 2, dtype=np.int64))
        out = propagate_belief(m, sl.delta_belief(1, 10), plan, 2,
                               renewal_state=1)
        want = sl.delta_belief(1, 10) @ m.transitions[2] @ m.transitions[2]
        assert np.abs(out - want).max() < 1e-12


class TestSteadyState:
    def test_identity_returns_uniform(self):
        m = estimation_model(np.eye(4))
        assert np.allclose(sl.steady_state(m), np.full(4, 0.25))

    def test_symmetric_ring_uniform(self):
        m = estimation_model(ring_matrix([1, 11, 21], 30))
        mu = sl.steady_state(m)
        assert np.abs(mu - 1 / 30).max() < 1e-9

    # 1e8: nearly periodic (two eigenvalues of modulus 1 - 1.5e-5); 5 states:
    # a period-3 class.  Eigenvalue 1 is simple on all of them.
    @pytest.mark.parametrize("theta, num_states", [(32.0, 30), (1e8, 7), (1e8, 12),
                                                   (1e-3, 5)])
    def test_matches_eigenvector_oracle(self, theta, num_states):
        m = sl.build_model(theta, num_states, sl.Scenario.ESTIMATION)
        mu = sl.steady_state(m)
        w, v = np.linalg.eig(m.matrix.T)
        lead = v[:, np.argmin(np.abs(w - 1))].real
        lead = lead / lead.sum()
        assert np.abs(mu - lead).sum() < 1e-8

    def test_invariant_under_one_step(self):
        m = sl.build_model(16.0, 30, sl.Scenario.ESTIMATION)
        mu = sl.steady_state(m)
        assert np.abs(mu @ m.matrix - mu).sum() < 1e-8

    def test_control_model_rejected(self):
        m = sl.build_model(8.0, 10, sl.Scenario.CONTROL)
        with pytest.raises(ValueError, match="occupancy_distribution"):
            sl.steady_state(m)

    @pytest.mark.parametrize("matrix, law", [
        # the five-state ring has a period-3 recurrent class {1, 2, 5}
        (sl.build_model(1.0, 5, sl.Scenario.ESTIMATION).matrix, [1 / 3, 1 / 3, 0, 0, 1 / 3]),
        # two closed classes: the transient state splits its mass 2:1
        (np.array([[1, 0, 0], [0, 1, 0], [0.5, 0.25, 0.25]]), [5 / 9, 4 / 9, 0]),
    ], ids=["period-3", "two-closed-classes"])
    def test_long_run_average_from_uniform(self, matrix, law):
        mu = sl.steady_state(estimation_model(matrix))
        assert np.abs(mu - law).max() < 1e-12
        assert np.abs(mu @ matrix - mu).sum() < 1e-12


class TestEntropy:
    def test_uniform_thirty(self):
        assert sl.shannon_entropy(np.full(30, 1 / 30)) == pytest.approx(
            np.log2(30), abs=1e-12)

    def test_delta(self):
        assert sl.shannon_entropy(sl.delta_belief(4, 12)) == 0.0

    def test_fair_bit(self):
        b = np.zeros(30)
        b[0] = b[1] = 0.5
        assert sl.shannon_entropy(b) == pytest.approx(1.0, abs=1e-12)
