"""Forward transitions, reverse-time integration, and identity exchanges."""

import hashlib
import math

import numpy as np
import pytest

from permdiff.bench import cloud_features, energy_permutation_test
from permdiff.cloud import Permutation, apply, canonicalize, permutation_array
from permdiff.errors import DomainError, ScoreCallbackError
from permdiff.ou_sde import (
    NoiseSchedule,
    forward_sample,
    forward_trajectory,
    identity_exchange_trace,
    ou_transition,
    quotient_marginal_log_density,
    quotient_transition_log_density,
    reverse_integrate,
)
from permdiff.quotient_score import ou_conditional_score_exact


class TestOuTransition:
    def test_short_time_limit(self):
        tr = ou_transition(1.0, 1.0 + 1e-12)
        assert tr.decay == pytest.approx(1.0, abs=1e-11)
        assert tr.variance == pytest.approx(0.0, abs=1e-11)

    def test_long_time_limit(self):
        tr = ou_transition(0.0, 200.0)
        assert tr.decay == pytest.approx(0.0, abs=1e-40)
        assert tr.variance == pytest.approx(1.0, rel=1e-12)

    def test_variance_is_one_minus_decay_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = float(rng.uniform(0, 2))
            t = s + float(rng.uniform(1e-3, 3))
            tr = ou_transition(s, t)
            assert tr.variance == pytest.approx(1.0 - tr.decay**2, rel=1e-14)

    def test_decay_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s, u, t = np.sort(rng.uniform(0, 4, size=3))
            if s == u or u == t:
                continue
            lhs = ou_transition(s, u).decay * ou_transition(u, t).decay
            assert lhs == pytest.approx(ou_transition(s, t).decay, rel=1e-12)

    def test_variance_composition_law(self):
        # total variance over (0, 1) through an intermediate stop at 0.3
        a = ou_transition(0.0, 0.3)
        b = ou_transition(0.3, 1.0)
        total = ou_transition(0.0, 1.0)
        assert a.variance * b.decay**2 + b.variance == pytest.approx(
            total.variance, rel=1e-12
        )

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            ou_transition(1.0, 1.0)
        with pytest.raises(DomainError):
            ou_transition(-0.1, 1.0)


class TestForwardSample:
    def test_moments(self):
        x0 = np.full((1, 1), 2.0)
        draws = np.array(
            [forward_sample(x0, 5.0, seed).points[0, 0] for seed in range(20_000)]
        )
        target_var = 1.0 - math.exp(-5.0)
        se_var = target_var * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(draws.var() - target_var) < 3.0 * se_var

        draws1 = np.array(
            [forward_sample(x0, 1.0, 10_000 + seed).points[0, 0] for seed in range(20_000)]
        )
        mean_target = math.exp(-0.5) * 2.0
        se_mean = draws1.std() / math.sqrt(len(draws1))
        assert abs(draws1.mean() - mean_target) < 3.0 * se_mean

    def test_seed_determinism(self):
        x0 = np.random.default_rng(2).standard_normal((4, 3))
        a = forward_sample(x0, 0.8, 123).points
        b = forward_sample(x0, 0.8, 123).points
        np.testing.assert_array_equal(a, b)

    def test_quotient_law_invariant_to_representative(self):
        # noising x0 or a relabeled x0 gives the same distribution on the
        # quotient: two-sample energy test on invariant features
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((3, 2))
        sigma = Permutation((2, 0, 1))
        x0_perm = apply(sigma, x0).points
        n = 1500
        feats_a = np.stack(
            [cloud_features(forward_sample(x0, 0.6, 50_000 + i).points) for i in range(n)]
        )
        feats_b = np.stack(
            [cloud_features(forward_sample(x0_perm, 0.6, 90_000 + i).points) for i in range(n)]
        )
        _, p = energy_permutation_test(feats_a, feats_b, n_shuffles=500, seed=4)
        assert p > 0.01

    def test_forward_draws_are_pinned(self):
        # Digest of forward_sample at times from 1e-300 to 1e300 and of
        # forward_trajectory on both grids, pinned when each still wrote out
        # its own transition draw.
        h = hashlib.sha256()
        for n, d in [(1, 1), (3, 2), (8, 3)]:
            x0 = np.random.default_rng(n).standard_normal((n, d))
            for t in (1e-300, 1e-8, 0.5, 5.0, 1e300):
                h.update(forward_sample(x0, t, seed=3).points.tobytes())
            for schedule in (NoiseSchedule.uniform(2.0, 7), NoiseSchedule.geometric(5.0, 9, 1e-3)):
                for state in forward_trajectory(x0, schedule, seed=4).states:
                    h.update(state.points.tobytes())
        assert h.hexdigest() == "bcab58fa314994c458d2093b14ade6c48800b5c5be23ed5ad4be4e81676adcef"


class TestTransitionDensity:
    def test_single_point_gaussian(self):
        x, y = np.array([[0.5]]), np.array([[-0.2]])
        s, t = 0.2, 1.1
        tr = ou_transition(s, t)
        expected = -0.5 * math.log(2.0 * math.pi * tr.variance) - (
            (y[0, 0] - tr.decay * x[0, 0]) ** 2
        ) / (2.0 * tr.variance)
        assert quotient_transition_log_density(x, y, s, t) == pytest.approx(
            expected, rel=1e-12
        )

    def test_invariance_under_relabeling(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        base = quotient_transition_log_density(x, y, 0.0, 0.9)
        for _ in range(5):
            sigma = Permutation(tuple(rng.permutation(4)))
            assert quotient_transition_log_density(
                x, apply(sigma, y).points, 0.0, 0.9
            ) == pytest.approx(base, rel=1e-12)

    def test_two_point_hand_formula(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[0.2], [0.7]])
        s, t = 0.0, 0.8
        tr = ou_transition(s, t)
        terms = []
        for perm in ((0, 1), (1, 0)):
            sq = sum((tr.decay * x[perm[j], 0] - y[j, 0]) ** 2 for j in range(2))
            terms.append(math.exp(-sq / (2.0 * tr.variance)))
        expected = math.log(sum(terms)) - math.log(2.0 * math.pi * tr.variance)
        assert quotient_transition_log_density(x, y, s, t) == pytest.approx(
            expected, rel=1e-12
        )

    def test_marginal_averages_over_dataset(self):
        rng = np.random.default_rng(6)
        clouds = [rng.standard_normal((3, 1)) for _ in range(4)]
        y = rng.standard_normal((3, 1))
        per = [quotient_transition_log_density(c, y, 0.0, 1.0) for c in clouds]
        expected = math.log(np.mean(np.exp(per)))
        assert quotient_marginal_log_density(clouds, y, 1.0) == pytest.approx(
            expected, rel=1e-10
        )


class TestSchedule:
    def test_uniform(self):
        sched = NoiseSchedule.uniform(2.0, 4)
        np.testing.assert_allclose(sched.grid, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert sched.horizon == 2.0 and sched.steps == 4

    def test_geometric(self):
        sched = NoiseSchedule.geometric(5.0, 8, 1e-3)
        assert sched.grid[0] == 0.0
        assert sched.grid[1] == pytest.approx(1e-3)
        assert sched.grid[-1] == pytest.approx(5.0)
        assert np.all(np.diff(sched.grid) > 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            NoiseSchedule(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DomainError):
            NoiseSchedule(np.array([0.1, 0.5]))

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # An infinite horizon would fill the grid with inf and NaN.
        with pytest.raises(DomainError, match="horizon < inf"):
            NoiseSchedule.uniform(horizon, 4)
        with pytest.raises(DomainError, match="horizon < inf"):
            NoiseSchedule.geometric(horizon, 4)


class TestReverseIntegrate:
    def test_stationary_score_preserves_standard_normal(self):
        # the time reversal of the stationary process has score -y; with it,
        # marginals stay standard normal
        sched = NoiseSchedule.uniform(2.0, 100)
        rng = np.random.default_rng(7)
        finals = []
        for _ in range(3000):
            y0 = rng.standard_normal((1, 1))
            traj = reverse_integrate(y0, sched, lambda y, t: -y, rng)
            finals.append(traj.states[-1].points[0, 0])
        finals = np.asarray(finals)
        assert abs(finals.mean()) < 3.0 * finals.std() / math.sqrt(len(finals))
        var_se = finals.var() * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(finals.var() - 1.0) < 4.0 * var_se + 0.03  # O(dt) bias allowance

    def test_recovers_one_dim_gaussian_data(self):
        # analytic marginal score of noised N(mu0, s0^2) data
        mu0, s0 = 1.5, 0.5
        sched = NoiseSchedule.uniform(5.0, 200)

        def marginal_score(y, t):
            a = math.exp(-0.5 * t)
            v = a * a * s0 * s0 + 1.0 - a * a
            return -(y - a * mu0) / v

        rng = np.random.default_rng(8)
        finals = np.array(
            [
                reverse_integrate(rng.standard_normal((1, 1)), sched, marginal_score, rng)
                .states[-1]
                .points[0, 0]
                for _ in range(4000)
            ]
        )
        se_mean = finals.std() / math.sqrt(len(finals))
        assert abs(finals.mean() - mu0) < 3.0 * se_mean + 0.02
        var_se = finals.var() * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(finals.var() - s0 * s0) < 3.0 * var_se + 0.02

    def test_weak_error_shrinks_with_step_count(self):
        # batch many independent 1-d paths as one cloud; the analytic score
        # acts coordinatewise, so the joint integration is exact batching
        mu0, s0 = 2.0, 0.3

        def marginal_score(y, t):
            a = math.exp(-0.5 * t)
            v = a * a * s0 * s0 + 1.0 - a * a
            return -(y - a * mu0) / v

        errs = []
        for steps in (12, 24, 48):
            sched = NoiseSchedule.uniform(5.0, steps)
            rng = np.random.default_rng(9)
            y0 = rng.standard_normal((120_000, 1))
            traj = reverse_integrate(y0, sched, marginal_score, rng)
            errs.append(abs(float(traj.states[-1].points.mean()) - mu0))
        assert errs[2] < errs[0]
        assert errs[1] < errs[0]

    def test_end_to_end_exact_score_recovers_two_point_data(self):
        # quotient consistency: reverse driven by the enumerated conditional
        # score lands on the orbit of the reference cloud
        x0 = np.array([[-1.0], [1.0]])
        sched = NoiseSchedule.geometric(5.0, 128, 1e-4)
        rng = np.random.default_rng(10)
        finals = []
        for _ in range(200):
            yT = rng.standard_normal((2, 1))
            traj = reverse_integrate(
                yT, sched, lambda y, t: ou_conditional_score_exact(x0, y, t), rng
            )
            finals.append(np.sort(traj.states[-1].points[:, 0]))
        finals = np.array(finals)
        se = finals.std(axis=0) / math.sqrt(len(finals))
        assert abs(finals[:, 0].mean() + 1.0) < 3.0 * se[0] + 0.01
        assert abs(finals[:, 1].mean() - 1.0) < 3.0 * se[1] + 0.01

    def test_final_state_is_canonical(self):
        sched = NoiseSchedule.uniform(1.0, 20)
        traj = reverse_integrate(
            np.random.default_rng(11).standard_normal((4, 2)),
            sched,
            lambda y, t: np.zeros_like(y),
            0,
        )
        final = traj.states[-1].points
        np.testing.assert_array_equal(final, canonicalize(final).points)
        assert traj.times[0] == 1.0 and traj.times[-1] == 0.0

    def test_determinism(self):
        sched = NoiseSchedule.uniform(1.0, 50)
        y0 = np.random.default_rng(12).standard_normal((3, 2))
        t1 = reverse_integrate(y0, sched, lambda y, t: -y, 777)
        t2 = reverse_integrate(y0, sched, lambda y, t: -y, 777)
        for a, b in zip(t1.states, t2.states):
            np.testing.assert_array_equal(a.points, b.points)

    def test_score_failure_reports_step(self):
        sched = NoiseSchedule.uniform(1.0, 10)

        def broken(y, t):
            raise ValueError("boom")

        with pytest.raises(ScoreCallbackError, match="step 0"):
            reverse_integrate(np.zeros((2, 1)), sched, broken, 0)

    def test_bad_score_shape_rejected(self):
        sched = NoiseSchedule.uniform(1.0, 10)
        with pytest.raises(ScoreCallbackError):
            reverse_integrate(np.zeros((2, 1)), sched, lambda y, t: np.zeros(3), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_reports_step_and_time(self, bad):
        sched = NoiseSchedule.uniform(1.0, 10)

        def score(y, t):
            return np.full_like(y, bad) if t < 0.75 else -y

        with pytest.raises(ScoreCallbackError, match=r"non-finite .* step 3, t=0\.7"):
            reverse_integrate(np.zeros((2, 1)), sched, score, 0)


class TestForwardTrajectoryAndTrace:
    def test_grid_recorded(self):
        x0 = np.random.default_rng(13).standard_normal((3, 2))
        sched = NoiseSchedule.uniform(2.0, 16)
        traj = forward_trajectory(x0, sched, 0)
        assert len(traj.states) == 17
        np.testing.assert_array_equal(traj.times, sched.grid)
        np.testing.assert_array_equal(traj.states[0].points, x0)

    def test_marginal_matches_direct_transition(self):
        # chaining per-step transitions reproduces the one-shot law
        x0 = np.full((1, 1), 1.0)
        sched = NoiseSchedule.uniform(2.0, 8)
        finals = np.array(
            [forward_trajectory(x0, sched, s).states[-1].points[0, 0] for s in range(20_000)]
        )
        tr = ou_transition(0.0, 2.0)
        se = finals.std() / math.sqrt(len(finals))
        assert abs(finals.mean() - tr.decay * 1.0) < 3.0 * se
        var_se = finals.var() * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(finals.var() - tr.variance) < 3.0 * var_se

    def test_identity_trace_constant_near_zero_time(self):
        x0 = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        sched = NoiseSchedule.uniform(0.01, 20)
        traj = forward_trajectory(x0, sched, 1)
        trace = identity_exchange_trace(traj, x0)
        assert all(p == Permutation.identity(3) for p in trace)

    def test_identity_trace_single_point(self):
        sched = NoiseSchedule.uniform(3.0, 30)
        traj = forward_trajectory(np.array([[1.0]]), sched, 2)
        trace = identity_exchange_trace(traj, [[1.0]])
        assert all(p == Permutation.identity(1) for p in trace)

    def test_identity_exchange_happens_at_stationarity(self):
        # symmetric two-point cloud: at large times both assignments are
        # equally likely, so the preferred matching flips along the path
        x0 = np.array([[-1.0], [1.0]])
        sched = NoiseSchedule(np.concatenate([[0.0], np.linspace(10.0, 60.0, 100)]))
        traj = forward_trajectory(x0, sched, 3)
        trace = identity_exchange_trace(traj, x0)
        changes = sum(a != b for a, b in zip(trace[1:], trace[2:]))
        assert changes >= 1

    def test_trace_is_the_enumerated_posterior_mode(self):
        # The mode of exp(-||x0 - sigma(y)||^2 / (4t)) over all of S_5, at any t.
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((5, 2))
        sched = NoiseSchedule.uniform(1.0, 5)
        traj = forward_trajectory(x0, sched, 4)
        perms = permutation_array(5)
        for state, sigma in zip(traj.states, identity_exchange_trace(traj, x0)):
            sq = ((x0[perms] - state.points) ** 2).sum(axis=(1, 2))
            assert sigma == Permutation(tuple(int(v) for v in perms[np.argmin(sq)]))
