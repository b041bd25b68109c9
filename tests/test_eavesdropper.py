import bisect
import math

import numpy as np
import pytest

import schedleak as sl
from oracles import enum_posterior, random_stochastic
from test_markov import estimation_model, ring_matrix


def make_estimator(matrix, taus, t_max, prior=None):
    model = estimation_model(np.asarray(matrix))
    seg = sl.SegmentModel(model, sl.SchedulingFunction(np.asarray(taus), t_max))
    prior = prior if prior is not None else sl.steady_state(model)
    return model, sl.EveEstimator(model, active=seg, prior=prior)


def random_instance(rng, control=False):
    """Random small chain, schedule and a consistent interval sequence."""
    n = int(rng.integers(2, 5))
    na = int(rng.integers(2, 4)) if control else 1
    t_max = int(rng.integers(2, 5))
    trans = random_stochastic(rng, na, n, sparse=bool(rng.integers(2)))
    taus = rng.integers(1, t_max + 1, size=n)
    plan = rng.integers(0, na, size=(n, t_max)) if control else None
    if control:
        reward = rng.random(n) * 5
        model = sl.MarkovModel(num_states=n, num_actions=na, transitions=trans,
                               scenario=sl.Scenario.CONTROL, density_decay=1.0,
                               task_reward=reward)
        prior = np.full(n, 1.0 / n)
    else:
        model = estimation_model(trans[0])
        prior = sl.steady_state(model)
    seg = sl.SegmentModel(model, sl.JointPolicy(taus, t_max, plan) if control
                          else sl.SchedulingFunction(taus, t_max))
    est = sl.EveEstimator(model, active=seg, prior=prior)
    s = int(rng.choice(n, p=prior))
    intervals = []
    while len(intervals) < 3 and sum(intervals) < 7:
        renewal = s
        tau = int(taus[renewal])
        for d in range(tau):
            a = int(plan[renewal, d]) if control else 0
            s = int(rng.choice(n, p=trans[a, s]))
        intervals.append(tau)
    return model, est, trans, taus, plan, prior, intervals


def alternating_instance(rng, control, n_requests=10):
    """Random chain under two regimes that take turns through
    ``set_active``, as ADE switches them, fed a consistent interval
    sequence of ``n_requests`` intervals."""
    model, est, trans, taus, plan, prior, _ = random_instance(rng, control=control)
    n, t_max = model.num_states, est.active.t_max
    taus2 = rng.integers(1, t_max + 1, size=n)
    plan2 = rng.integers(0, model.num_actions, size=(n, t_max)) if control else None
    regimes = [(taus, plan, est.active),
               (taus2, plan2, sl.SegmentModel(model, sl.JointPolicy(taus2, t_max, plan2) if control
                                                   else sl.SchedulingFunction(taus2, t_max)))]
    s = int(rng.choice(n, p=prior))
    for i in range(n_requests):
        r_taus, r_plan, seg = regimes[int(rng.integers(2))]
        est.set_active(seg)
        tau = int(r_taus[s])
        renewal = s
        for d in range(tau):
            a = int(r_plan[renewal, d]) if control else 0
            s = int(rng.choice(n, p=trans[a, s]))
        est.observe(tau)
        yield est


def rebuilt(est):
    """A new listener fed ``est``'s intervals under the same regimes: the
    same history, with no memoised belief and no backward vector."""
    fresh = sl.EveEstimator(est.model, active=est.active, prior=est.prior)
    for seg, tau in zip(est.segment_models, est.intervals):
        fresh.set_active(seg)
        fresh.observe(tau)
    fresh.set_active(est.active)
    return fresh


def eager_backward(est, horizon):
    """Every backward vector from the flat boundary down to request 0."""
    k_last = bisect.bisect_right(est.times, horizon) - 1
    vecs = [None] * (k_last + 1)
    vecs[k_last] = np.full(est.num_states, 1.0 / est.num_states)
    for k in range(k_last - 1, -1, -1):
        seg, tau = est.segment_models[k], est.intervals[k]
        raw = seg.emission(tau) * (seg.prefix_rows(tau) @ vecs[k + 1])
        vecs[k] = raw / raw.sum()
    return vecs


class TestSegmentModel:
    def test_holds_the_policy_it_models(self, ctl_cell):
        seg = sl.SegmentModel(ctl_cell.model, ctl_cell.goc)
        assert seg.policy is ctl_cell.goc and seg.t_max == ctl_cell.goc.t_max

    def test_control_model_needs_a_control_table(self, ctl_cell):
        sigma = sl.extract_sigma(ctl_cell.goc)
        with pytest.raises(ValueError, match="control models need a JointPolicy"):
            sl.SegmentModel(ctl_cell.model, sigma)

    @pytest.mark.parametrize("length", [29, 31])
    def test_schedule_needs_one_interval_per_state(self, est_cell, length):
        sigma = sl.SchedulingFunction(np.full(length, 3), 10)
        with pytest.raises(ValueError, match=rf"schedule has {length} intervals, one per "
                                             r"state is needed \(num_states=30\)"):
            sl.SegmentModel(est_cell.model, sigma)


class TestPrior:
    @pytest.mark.parametrize("prior", [np.zeros(30), np.full(29, 1 / 29),
                                       np.full(30, np.nan), -np.eye(30)[0],
                                       np.full(30, np.inf)],
                             ids=["zero", "length", "nan", "negative", "inf"])
    def test_bad_prior_rejected(self, est_cell, prior):
        with pytest.raises(ValueError, match="prior must be 30 finite nonnegative weights "
                                             "with positive mass"):
            sl.EveEstimator(est_cell.model, est_cell.regime(sl.PolicyKind.MPI), prior)

    def test_unnormalised_prior_is_scaled(self, est_cell):
        seg = est_cell.regime(sl.PolicyKind.MPI)
        mu = sl.steady_state(est_cell.model)
        est = sl.EveEstimator(est_cell.model, seg, 5 * mu)
        assert np.allclose(est.forwards[0], mu, atol=1e-15)


class TestForward:
    def test_two_state_identity_distinguishing(self):
        model, est = make_estimator(np.eye(2), [1, 2], 2)
        est.observe(1)
        post = est.belief_at_time(est.times[-1], 0)
        assert np.allclose(post, [1.0, 0.0], atol=1e-12)

    def test_periodic_keeps_stationary_prior(self):
        m = sl.build_model(8.0, 30, sl.Scenario.ESTIMATION)
        seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, 3), 10))
        mu = sl.steady_state(m)
        est = sl.EveEstimator(m, active=seg, prior=mu)
        for _ in range(4):
            est.observe(3)
        for f in est.forwards:
            assert np.abs(f - mu).sum() < 1e-9

    def test_matches_enumeration(self):
        rng = np.random.default_rng(50)
        model, est, trans, taus, plan, prior, intervals = random_instance(rng)
        for tau in intervals:
            est.observe(tau)
        segs = [(t, taus, plan) for t in intervals]
        want = enum_posterior(trans, prior, segs, (taus, plan), est.times[-1])
        got = est.belief_at_time(est.times[-1], 0)
        assert np.abs(want - got).sum() < 1e-9

    def test_impossible_interval_raises(self):
        model, est = make_estimator(np.eye(2), [1, 2], 3)
        with pytest.raises(sl.InconsistentTimingError) as err:
            est.observe(3)
        assert "interval #1" in str(err.value)
        assert "3" in str(err.value)


class TestBackward:
    def test_boundary_uniform(self):
        model, est = make_estimator(np.eye(3), [1, 2, 3], 3)
        est.observe(2)
        vecs = est.backward(est.times[-1])
        assert np.allclose(vecs[-1], 1 / 3)

    def test_periodic_all_uniform(self):
        m = sl.build_model(8.0, 30, sl.Scenario.ESTIMATION)
        seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, 2), 10))
        est = sl.EveEstimator(m, active=seg, prior=sl.steady_state(m))
        for _ in range(5):
            est.observe(2)
        for b in est.backward(est.times[-1]):
            assert np.abs(b - 1 / 30).sum() < 1e-9


    def test_default_is_full_list(self):
        rng = np.random.default_rng(56)
        for est in alternating_instance(rng, control=False, n_requests=4):
            pass
        assert len(est.backward(est.times[-1])) == len(est.times)
        assert len(est.backward(est.times[-2], down_to=1)) == len(est.times) - 2
        with pytest.raises(ValueError, match="down_to"):
            est.backward(est.times[-2], down_to=len(est.times) - 1)

    @pytest.mark.parametrize("trial", range(8))
    def test_lazy_tail_equals_full_pass(self, trial):
        """Tails extended piecewise, in any order, equal one full pass."""
        rng = np.random.default_rng(2000 + trial)
        for est in alternating_instance(rng, control=trial % 2 == 1):
            for h in range(est.times[-1] + est.active.t_max + 1):
                k_last = est.last_index(h)
                want = eager_backward(est, h)
                fresh = rebuilt(est).backward(h)
                assert all(np.array_equal(a, b) for a, b in zip(fresh, want))
                for down_to in rng.permutation(k_last + 1)[:3]:
                    got = est.backward(h, down_to=int(down_to))
                    assert len(got) == k_last + 1 - down_to
                    for i, b in enumerate(got):
                        assert np.array_equal(b, want[down_to + i]), (h, down_to, i)

    def test_work_stays_inside_the_window(self):
        m = sl.build_model(8.0, 30, sl.Scenario.ESTIMATION)
        seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, 2), 10))
        est = sl.EveEstimator(m, active=seg, prior=sl.steady_state(m))
        for _ in range(200):
            est.observe(2)
            before = est.backward_vectors
            est.leakage(est.times[-1], 5)
            # window [h-5, h] holds requests K, K-1, K-2 and needs b of K-2 up
            assert est.backward_vectors - before == min(3, len(est.times))


class TestSmoothing:
    def test_uniform_backward_reduces_to_forward(self):
        rng = np.random.default_rng(51)
        model, est, *_ , intervals = random_instance(rng)
        est.observe(intervals[0])
        k = 1
        post = est.belief_at_time(est.times[-1], est.times[-1] - est.times[k])
        assert np.abs(post - est.forwards[k]).sum() < 1e-12

    @pytest.mark.parametrize("trial", range(25))
    def test_all_instants_match_enumeration(self, trial):
        rng = np.random.default_rng(1000 + trial)
        control = trial % 3 == 2
        model, est, trans, taus, plan, prior, intervals = random_instance(
            rng, control=control)
        for tau in intervals:
            est.observe(tau)
        horizon = est.times[-1] + int(rng.integers(0, 2))
        segs = [(t, taus, plan) for t in intervals]
        for m in range(horizon + 1):
            want = enum_posterior(trans, prior, segs, (taus, plan), m)
            got = est.belief_at_time(horizon, horizon - m)
            assert np.abs(want - got).sum() < 1e-9, f"time {m}"

    def test_offset_zero_equals_transmission_posterior(self):
        """The belief at a request instant is the posterior of the state
        that request reported."""
        rng = np.random.default_rng(52)
        model, est, trans, taus, plan, prior, intervals = random_instance(rng)
        for tau in intervals:
            est.observe(tau)
        horizon = est.times[-1]
        segs = [(t, taus, plan) for t in intervals]
        for k in range(len(intervals)):
            got = est.belief_at_time(horizon, horizon - est.times[k])
            want = enum_posterior(trans, prior, segs, (taus, plan), est.times[k])
            assert np.abs(got - want).sum() < 1e-9

    def test_deterministic_cycle_shifts(self):
        model, est = make_estimator(ring_matrix([1], 5), [2, 2, 2, 2, 3], 3,
                                    prior=sl.delta_belief(1, 5))
        est.observe(2)
        bel = est.belief_at_time(2, 1)
        assert np.allclose(bel, sl.delta_belief(2, 5), atol=1e-12)

    def test_horizon_at_transmission_instant(self):
        rng = np.random.default_rng(53)
        model, est, *_ , intervals = random_instance(rng)
        for tau in intervals:
            est.observe(tau)
        n = est.times[-1]
        got = est.belief_at_time(n, 0)
        # the backward vector is flat at the last request
        assert np.abs(got - est.forwards[-1]).sum() < 1e-12

    def test_periodic_belief_mixes_to_stationary(self, est_cell):
        m = est_cell.model
        mu = sl.steady_state(m)
        seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, est_cell.pp_period), 10))
        est = sl.EveEstimator(m, active=seg, prior=mu)
        for _ in range(30):
            est.observe(est_cell.pp_period)
        n = est.times[-1]
        assert np.abs(est.belief_at_time(n, 0) - mu).sum() < 0.01

    def test_beliefs_are_probability_vectors(self):
        rng = np.random.default_rng(54)
        for trial in range(10):
            model, est, *_ , intervals = random_instance(
                rng, control=trial % 2 == 0)
            for tau in intervals:
                est.observe(tau)
            n = est.times[-1]
            for m in range(n + 1):
                bel = est.belief_at_time(n, n - m)
                assert np.all(bel >= -1e-12)
                assert abs(bel.sum() - 1) < 1e-9


class TestLeakage:
    def test_uniform_beliefs_zero(self):
        model, est = make_estimator(ring_matrix([1, 2, 3], 4,
                                                [1 / 3, 1 / 3, 1 / 3]),
                                    [2, 2, 2, 2], 3)
        est.observe(2)
        assert est.leakage(est.times[-1], 3) < 1e-9

    def test_certain_belief_is_one(self):
        model, est = make_estimator(np.eye(2), [1, 2], 2)
        est.observe(1)
        assert est.leakage(1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_half_half_value(self):
        # identity chain, two states share tau=1: posterior (1/2, 1/2, 0, ...)
        taus = np.full(30, 2)
        taus[:2] = 1
        model, est = make_estimator(np.eye(30), taus, 2,
                                    prior=np.full(30, 1 / 30))
        est.observe(1)
        got = est.leakage(1, 0)
        assert got == pytest.approx(1 - 1 / np.log2(30), abs=1e-9)

    def test_monotone_in_gap(self):
        rng = np.random.default_rng(55)
        for trial in range(8):
            model, est, *_ , intervals = random_instance(rng)
            for tau in intervals:
                est.observe(tau)
            n = est.times[-1]
            vals = [est.leakage(n, d) for d in range(0, 6)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_theorem_two_floor(self, est_cell):
        """Constant schedules leak nothing beyond the stationary floor."""
        m = est_cell.model
        mu = sl.steady_state(m)
        floor = sl.min_leakage(m, mu=mu)
        for period in (2, 4, 7):
            seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, period), 10))
            est = sl.EveEstimator(m, active=seg, prior=mu)
            for _ in range(60 // period):
                est.observe(period)
            n = est.times[-1]
            assert est.leakage(n, 5) - floor < 0.02


    @pytest.mark.parametrize("trial", range(8))
    def test_one_pass_equals_pointwise_max(self, trial):
        rng = np.random.default_rng(3000 + trial)
        for est in alternating_instance(rng, control=trial % 2 == 1):
            pass
        h0 = math.log2(est.num_states)
        for h in range(est.times[-1] + 1):
            for gap in (0, 3, 7):
                ref = rebuilt(est)
                beliefs = [ref.belief_at_time(h, d) for d in range(min(gap, h) + 1)]
                window = est.window(h, gap)
                assert len(window) == len(beliefs)
                assert all(np.array_equal(a, b) for a, b in zip(window, beliefs)), (h, gap)
                want = max([0.0] + [1.0 - sl.shannon_entropy(b) / h0 for b in beliefs])
                assert est.leakage(h, gap) == want, (h, gap)

    def test_horizon_past_t_max_fails_fast(self):
        m = sl.build_model(8.0, 30, sl.Scenario.ESTIMATION)
        seg = sl.SegmentModel(m, sl.SchedulingFunction(np.full(30, 2), 10))
        est = sl.EveEstimator(m, active=seg, prior=sl.steady_state(m))
        est.observe(2)
        est.leakage(12, 0)  # t_max steps after the last request is fine
        pattern = r"horizon 20 .*t_max=10.*\(at 2\)"
        with pytest.raises(ValueError, match=pattern):
            est.leakage(20, 0)
        with pytest.raises(ValueError, match=pattern):
            est.belief_at_time(20, 0)


class TestMemo:
    def test_memoised_beliefs_are_read_only(self):
        rng = np.random.default_rng(71)
        for est in alternating_instance(rng, control=True, n_requests=3):
            pass
        h = est.times[-1]
        with pytest.raises(ValueError, match="read-only"):
            est.window(h, 2)[0][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            est.belief_at_time(h, 1)[:] = 0.0
        assert np.array_equal(est.window(h, 2)[0], rebuilt(est).window(h, 2)[0])

    @pytest.mark.parametrize("trial", range(6))
    def test_each_point_made_once_per_last_request(self, trial):
        """Overlapping windows of one K make each instant once; a new
        request or a new regime makes the open segment's points again."""
        rng = np.random.default_rng(4000 + trial)
        est = next(alternating_instance(rng, control=trial % 2 == 1, n_requests=1))
        h, t_max = est.times[-1], est.active.t_max
        for top in range(h, h + t_max + 1):
            before = est.beliefs_made
            est.window(top, 3)
            assert est.beliefs_made - before == (min(3, top) + 1 if top == h else 1)
        reads = est.beliefs_reused
        est.leakage(h + t_max, 3)
        assert est.beliefs_reused - reads == 4 and est.beliefs_made - before == 1
        est.set_active(est.active)             # the same regime keeps the memo
        est.leakage(h + t_max, 3)
        assert est.beliefs_made - before == 1
        other = sl.SegmentModel(est.model, est.active.policy)
        est.set_active(other)                  # another regime starts over
        est.leakage(h + t_max, 3)
        assert est.beliefs_made - before == 5

    @pytest.mark.parametrize("probe", ["other interval", "other regime"])
    def test_probe_leaves_parent_bit_identical(self, ctl_cell, probe):
        """A clone shares nothing with its original: what it observes
        afterwards never changes the original's later windows, nor the work
        they take."""
        gap, n_steps = 4, 90
        cfg = sl.EpisodeConfig(scenario=sl.Scenario.CONTROL, policy_kind=sl.PolicyKind.ADE,
                               d_gap=gap, n_steps=n_steps, seed=3)
        rec, _ = sl.run_episode(cfg, ctl_cell)
        regimes = {"goc": ctl_cell.regime(sl.PolicyKind.MPI),
                   "periodic": ctl_cell.regime(sl.PolicyKind.PP)}
        prior = ctl_cell.occupancy(sl.PolicyKind.ADE)
        probed, plain = (sl.EveEstimator(ctl_cell.model, active=regimes["goc"], prior=prior)
                         for _ in range(2))
        requests = np.flatnonzero(rec.transmits).tolist()
        probes = 0

        def probe_once(n):
            nonlocal probes
            seg, s = probed.active, int(rec.states[n]) - 1
            if probe == "other regime":
                other = regimes["periodic" if seg is regimes["goc"] else "goc"]
                taus = [int(other.policy.intervals[s])]
            else:
                other = seg
                live = probed.forwards[-1] > 0
                taus = sorted({int(t) for t in seg.policy.intervals[live]}
                              - {int(seg.policy.intervals[s])})
            for tau in taus[:1]:
                dup = probed.clone()
                dup.set_active(other)
                dup.observe(tau)
                for h in range(dup.times[-2] + 1, dup.times[-1] + 1):
                    dup.leakage(h, gap)
                probes += 1

        for n in range(n_steps):
            if n in requests:
                for est in (probed, plain):
                    if n > 0:
                        est.observe(n - est.times[-1])
                    est.set_active(regimes[rec.modes[n]])
                probe_once(n)
            a, b = probed.window(n, gap), plain.window(n, gap)
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), n
            assert probed.leakage(n, gap) == plain.leakage(n, gap) == rec.leakages[n], n
            if n in requests:
                probe_once(n)
        assert probes > len(requests) // 2
        assert probed.beliefs_made == plain.beliefs_made

    @pytest.mark.parametrize("trial", range(4))
    def test_clone_makes_nothing_for_its_original(self, trial):
        """After a clone observes an interval and takes its leakages over
        that segment, the original's next windows make as many beliefs and
        backward vectors as those of a listener that was never cloned."""
        rng = np.random.default_rng(4200 + trial)
        est = next(alternating_instance(rng, control=trial % 2 == 1, n_requests=2))
        plain = rebuilt(est)
        dup = est.clone()
        tau = int(est.active.policy.intervals[est.forwards[-1] > 0].max())
        dup.observe(tau)
        for h in range(dup.times[-2] + 1, dup.times[-1] + 1):
            dup.leakage(h, 3)
        assert tau > 1 and dup.intervals != est.intervals
        counts = [(e.beliefs_made, e.backward_vectors) for e in (est, plain)]
        for h in range(est.times[-1], est.times[-1] + est.active.t_max + 1):
            assert all(np.array_equal(a, b)
                       for a, b in zip(est.window(h, 3), plain.window(h, 3))), h
        made = [(e.beliefs_made - b, e.backward_vectors - v)
                for e, (b, v) in zip((est, plain), counts)]
        assert made[0] == made[1] and made[0][0] > 0


class TestMinLeakage:
    def test_uniform_stationary_zero(self):
        model = estimation_model(ring_matrix([1, 11, 21], 30))
        assert sl.min_leakage(model) < 1e-9

    def test_two_state_hand_value(self):
        m = np.array([[0.9, 0.1], [0.3, 0.7]])  # stationary (0.75, 0.25)
        model = estimation_model(m)
        assert sl.min_leakage(model) == pytest.approx(0.18872, abs=1e-4)

    def test_absorbing_chain_is_one(self):
        m = np.array([[1.0, 0.0], [0.5, 0.5]])
        model = estimation_model(m)
        assert sl.min_leakage(model) == pytest.approx(1.0, abs=1e-9)

