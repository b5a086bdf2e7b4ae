"""Symmetrized scores against finite-difference oracles; variational identities."""

import itertools
import math

import numpy as np
import pytest

from permdiff.cloud import Permutation, apply, min_cost_assignment, permutation_array
from permdiff.errors import CapacityError, DomainError
from permdiff.heat_kernel import DP_CEILING, quotient_log_heat_kernel_exact
from permdiff.ou_sde import ou_coefficients, quotient_transition_log_density
from permdiff.perm_mcmc import (
    McmcConfig,
    PermDistribution,
    exact_from_log_weights,
    log_weight,
    posterior_exact,
)
from permdiff.quotient_score import (
    elbo,
    ou_conditional_score_exact,
    ou_conditional_score_mcmc,
    ou_conditional_scores_batch,
    ou_conditional_scores_mcmc,
    per_perm_score,
    symmetrized_score_exact,
    symmetrized_score_mcmc,
)


def fd_gradient(fn, y, h=1e-5):
    """Central finite differences of a scalar function of an (n, d) array."""
    y = np.asarray(y, dtype=float)
    grad = np.zeros_like(y)
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            yp, ym = y.copy(), y.copy()
            yp[i, j] += h
            ym[i, j] -= h
            grad[i, j] = (fn(yp) - fn(ym)) / (2.0 * h)
    return grad


class TestPerPermScore:
    def test_identity_zero(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        s = per_perm_score(Permutation.identity(4), x, x, 0.7)
        np.testing.assert_array_equal(s, np.zeros_like(x))

    def test_scalar_case(self):
        s = per_perm_score(Permutation.identity(1), [[3.0]], [[1.0]], 0.5)
        assert s[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_matches_finite_differences_of_log_weight(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        t = 0.6
        sigma = Permutation(tuple(rng.permutation(4)))
        grad = fd_gradient(lambda yy: log_weight(sigma, x, yy, t), y)
        np.testing.assert_allclose(per_perm_score(sigma, x, y, t), grad, atol=1e-5)


class TestSymmetrizedScoreExact:
    def test_single_point_euclidean(self):
        x, y = np.array([[2.0, 1.0]]), np.array([[0.5, -1.0]])
        np.testing.assert_allclose(
            symmetrized_score_exact(x, y, 0.25), (x - y) / 0.5, rtol=1e-14
        )

    def test_large_time_mean_field(self):
        # uniform posterior limit: the enumerated average of per-perm scores
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        t = 1e12
        perms = permutation_array(4)
        uniform_avg = np.mean(
            [per_perm_score(Permutation(tuple(p)), x, y, t) for p in perms], axis=0
        )
        np.testing.assert_allclose(
            symmetrized_score_exact(x, y, t), uniform_avg, rtol=1e-9, atol=1e-20
        )

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (5, 2), (6, 3)])
    def test_matches_gradient_of_exact_log_kernel(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        for _ in range(3):
            x = rng.standard_normal((n, d))
            t = float(np.exp(rng.uniform(math.log(1e-2), math.log(5.0))))
            y = x[rng.permutation(n)] + math.sqrt(2.0 * t) * rng.standard_normal((n, d))
            grad = fd_gradient(lambda yy: quotient_log_heat_kernel_exact(x, yy, t), y)
            dev = np.abs(symmetrized_score_exact(x, y, t) - grad).max()
            assert dev < 1e-5

    def test_equivariance_in_y_exhaustive_n3(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        base = symmetrized_score_exact(x, y, 0.4)
        for perm in itertools.permutations(range(3)):
            sigma = Permutation(perm)
            lhs = symmetrized_score_exact(x, apply(sigma, y).points, 0.4)
            rhs = apply(sigma, base).points
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_invariance_in_x_exhaustive_n3(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        base = symmetrized_score_exact(x, y, 0.4)
        for perm in itertools.permutations(range(3)):
            tau = Permutation(perm)
            np.testing.assert_allclose(
                symmetrized_score_exact(apply(tau, x).points, y, 0.4), base, atol=1e-12
            )

    def test_capacity(self):
        # y at one point c: every permutation has the same weight, so the
        # posterior over S_12 (above the enumeration cap) is uniform and
        # every slot's score is (mean(x) - c) / (2t).
        rng = np.random.default_rng(31)
        x, c, t = rng.standard_normal((12, 2)), rng.standard_normal(2), 0.3
        y = np.tile(c, (12, 1))
        expected = np.tile((x.mean(axis=0) - c) / (2.0 * t), (12, 1))
        np.testing.assert_allclose(symmetrized_score_exact(x, y, t), expected, rtol=1e-12)
        big = np.zeros((DP_CEILING + 1, 1))
        with pytest.raises(CapacityError, match="MCMC"):
            symmetrized_score_exact(big, big, 1.0)

    def test_far_points_at_tiny_time_raise(self):
        # The far point's cost is -inf in every slot: no permutation has a
        # finite weight, so the score is undefined.
        x, y = np.array([[0.0], [1.0], [1e5]]), np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(DomainError, match="finite weight"):
            symmetrized_score_exact(x, y, 1e-300)
        with pytest.raises(DomainError, match="finite weight"):
            ou_conditional_score_exact(x, y, 1e-300)


class TestSymmetrizedScoreMcmc:
    def test_single_point_exact_regardless_of_config(self):
        x, y = np.array([[1.0]]), np.array([[0.0]])
        est = symmetrized_score_mcmc(x, y, 0.5, McmcConfig(k=3, seed=0))
        np.testing.assert_allclose(est, (x - y) / 1.0, rtol=1e-14)

    def test_concentrated_posterior_matches_assignment_score(self):
        rng = np.random.default_rng(5)
        x = 3.0 * rng.standard_normal((5, 2))
        y = x[rng.permutation(5)] + 0.01 * rng.standard_normal((5, 2))
        t = 1e-3
        sigma = min_cost_assignment(x, y)
        est = symmetrized_score_mcmc(x, y, t, McmcConfig(k=64, seed=1))
        np.testing.assert_allclose(est, per_perm_score(sigma, x, y, t), atol=1e-8)

    def test_error_decays_with_k(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 2))
        t = 0.7
        y = x[rng.permutation(5)] + math.sqrt(2 * t) * rng.standard_normal((5, 2))
        exact = symmetrized_score_exact(x, y, t)
        errs = {}
        for k in (8, 512):
            reps = [
                np.linalg.norm(
                    symmetrized_score_mcmc(x, y, t, McmcConfig(k=k, seed=s)) - exact
                )
                for s in range(30)
            ]
            errs[k] = np.mean(reps)
        assert errs[512] < errs[8] / 3.0

    def test_diagnostics_passthrough(self):
        x = np.random.default_rng(7).standard_normal((3, 1))
        score, diag = symmetrized_score_mcmc(
            x, x, 0.5, McmcConfig(k=16, seed=2), with_diagnostics=True
        )
        assert score.shape == (3, 1)
        assert diag.proposal_count > 0


class TestOuConditionalScore:
    def test_single_point_analytic(self):
        x0, y = np.array([[1.2]]), np.array([[0.4]])
        t = 0.7
        a = math.exp(-0.5 * t)
        v = 1.0 - math.exp(-t)
        np.testing.assert_allclose(
            ou_conditional_score_exact(x0, y, t), (a * x0 - y) / v, rtol=1e-12
        )

    def test_matches_gradient_of_transition_log_density(self):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        for t in (0.05, 0.9, 4.0):
            grad = fd_gradient(
                lambda yy: quotient_transition_log_density(x0, yy, 0.0, t), y
            )
            np.testing.assert_allclose(
                ou_conditional_score_exact(x0, y, t), grad, atol=1e-6
            )

    def test_mcmc_variant_agrees_when_concentrated(self):
        rng = np.random.default_rng(9)
        x0 = 3.0 * rng.standard_normal((4, 2))
        y = x0 + 0.05 * rng.standard_normal((4, 2))
        t = 0.01
        exact = ou_conditional_score_exact(x0, y, t)
        est = ou_conditional_score_mcmc(x0, y, t, McmcConfig(k=64, seed=3))
        np.testing.assert_allclose(est, exact, atol=1e-6)


def ou_score_by_itertools(x0, y, t):
    """Posterior mean over itertools.permutations of (decay x0[s] - y) / variance."""
    decay, var = math.exp(-0.5 * t), 1.0 - math.exp(-t)
    matched = [decay * x0[list(s)] for s in itertools.permutations(range(len(x0)))]
    logw = np.array([-((m - y) ** 2).sum() / (2.0 * var) for m in matched])
    w = np.exp(logw - logw.max())
    mean = sum(wk * m for wk, m in zip(w / w.sum(), matched))
    return (mean - y) / var


class TestOuConditionalScoresBatch:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_rows_match_single_score_and_itertools_sum(self, n):
        rng = np.random.default_rng(20 + n)
        ts = np.repeat([1e-3, 0.5, 5.0], 2)
        x0 = rng.standard_normal((ts.size, n, 2))
        decay, std = np.exp(-0.5 * ts), np.sqrt(1.0 - np.exp(-ts))
        y = decay[:, None, None] * x0 + std[:, None, None] * rng.standard_normal(x0.shape)
        batch = ou_conditional_scores_batch(x0, y, ts)
        assert batch.shape == x0.shape
        for b, t in enumerate(ts):
            single = ou_conditional_score_exact(x0[b], y[b], t)
            scale = np.abs(single).max()
            np.testing.assert_allclose(batch[b], single, rtol=1e-12, atol=1e-12 * scale)
            brute = ou_score_by_itertools(x0[b], y[b], t)
            np.testing.assert_allclose(batch[b], brute, rtol=1e-9, atol=1e-9 * scale)

    def test_tiny_time_at_the_mean_gives_zero_score(self):
        # 1 - e^{-t} rounds to 0 below t of about 1e-16; -expm1(-t) does not.
        x0 = np.random.default_rng(26).standard_normal((4, 2))
        t = 1e-300
        zero = np.zeros_like(x0)
        np.testing.assert_array_equal(ou_conditional_scores_batch(x0[None], x0[None], [t])[0], zero)
        np.testing.assert_array_equal(ou_conditional_score_exact(x0, x0, t), zero)
        np.testing.assert_array_equal(ou_conditional_score_mcmc(x0, x0, t, McmcConfig()), zero)

    def test_far_points_at_tiny_time_give_finite_mcmc_targets(self):
        # At t = 1e-300 the costs of points scaled by 1e6 overflow to -inf, so
        # that some blocks weigh -inf in every order; such a block keeps its
        # current order.
        rng = np.random.default_rng(27)
        x0 = 1e6 * rng.standard_normal((8, 5, 2))
        y = rng.standard_normal((8, 5, 2))
        targets = ou_conditional_scores_mcmc(x0, y, np.full(8, 1e-300), range(8), 32)
        assert np.all(np.isfinite(targets))

    def test_mcmc_targets_need_one_seed_per_cloud(self):
        x0 = np.zeros((2, 3, 2))
        with pytest.raises(DomainError, match="one seed per cloud"):
            ou_conditional_scores_mcmc(x0, x0, [0.5, 0.5], [0], 8)

    def test_mcmc_targets_reject_k_below_one(self):
        x0 = np.zeros((1, 3, 2))
        with pytest.raises(DomainError, match="k must be >= 1"):
            ou_conditional_scores_mcmc(x0, x0, [0.5], [0], 0)

    def test_mcmc_targets_beat_the_swap_chain_at_n10(self):
        # Variance-weighted squared error against the exact DP targets over a
        # fixed batch at the training time mix, k = 32 for both estimators.
        rng = np.random.default_rng(29)
        template = rng.standard_normal((10, 2))
        x0 = template + 0.05 * rng.standard_normal((64, 10, 2))
        ts = np.exp(rng.uniform(math.log(1e-3), math.log(5.0), 64))
        decay, var = ou_coefficients(ts)
        y = decay[:, None, None] * x0 + np.sqrt(var)[:, None, None] * rng.standard_normal(x0.shape)
        exact = ou_conditional_scores_batch(x0, y, ts)
        blocks = ou_conditional_scores_mcmc(x0, y, ts, range(64), 32)
        swaps = np.stack([
            symmetrized_score_mcmc(d * x, yr, v / 2.0, McmcConfig(k=32, seed=r))
            for r, (x, yr, d, v) in enumerate(zip(x0, y, decay, var))
        ])

        def weighted_error(est):
            return float((var * ((est - exact) ** 2).sum(axis=(1, 2))).mean())

        assert weighted_error(blocks) <= weighted_error(swaps)

    def test_rejects_bad_shapes_and_times(self):
        x0 = np.zeros((2, 3, 2))
        ts = np.array([0.5, 1.0])
        for xb, yb, tb in [
            (x0, np.zeros((2, 3, 1)), ts),
            (x0, np.zeros((2, 4, 2)), ts),
            (x0[0], x0[0], ts[:1]),
            (x0, x0, np.array([0.5, 1.0, 2.0])),
            (x0, x0, np.array([0.5, 0.0])),
            (x0, x0, np.array([-1.0, 1.0])),
            (x0, x0, np.array([0.5, np.nan])),
        ]:
            with pytest.raises(DomainError):
                ou_conditional_scores_batch(xb, yb, tb)


class TestElbo:
    def _instance(self, n=3, seed=10, t=0.5):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        return x, y, t

    def test_posterior_attains_evidence(self):
        x, y, t = self._instance()
        q = posterior_exact(x, y, t)
        rep = elbo(q, x, y, t)
        assert rep.kl == pytest.approx(0.0, abs=1e-12)
        assert rep.elbo == pytest.approx(rep.log_evidence, abs=1e-10)

    def test_uniform_variational_distribution(self):
        x, y, t = self._instance()
        nfact = math.factorial(3)
        r = exact_from_log_weights(3, np.zeros(nfact))
        rep = elbo(r, x, y, t)
        perms = permutation_array(3)
        ivals = np.array(
            [log_weight(Permutation(tuple(p)), x, y, t) for p in perms]
        )
        expected_elbo = ivals.mean() + math.log(nfact)
        assert rep.elbo == pytest.approx(expected_elbo, rel=1e-12)
        assert rep.kl == pytest.approx(rep.log_evidence - expected_elbo, abs=1e-10)

    def test_point_mass_on_argmax(self):
        x, y, t = self._instance(seed=11)
        perms = permutation_array(3)
        ivals = np.array([log_weight(Permutation(tuple(p)), x, y, t) for p in perms])
        lw = np.full(len(perms), -np.inf)
        lw[int(np.argmax(ivals))] = 0.0
        r = PermDistribution(perms.copy(), lw)
        rep = elbo(r, x, y, t)
        assert rep.elbo == pytest.approx(ivals.max(), rel=1e-12)
        assert rep.kl >= 0.0

    def test_decomposition_identity_random_r(self):
        x, y, t = self._instance(n=4, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = rng.dirichlet(np.ones(math.factorial(4)))
            r = exact_from_log_weights(4, np.log(w))
            rep = elbo(r, x, y, t)
            assert abs(rep.decomposition_gap()) < 1e-10
            assert rep.kl >= -1e-12
            assert rep.elbo <= rep.log_evidence + 1e-10

    def test_rejects_empirical_mode(self):
        x, y, t = self._instance()
        fake = PermDistribution(permutation_array(3)[:4].copy(), np.full(4, -math.log(4.0)))
        with pytest.raises(DomainError, match="canonical enumeration"):
            elbo(fake, x, y, t)
