"""Posterior over permutations: exact enumeration and the swap-proposal chain."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp

from permdiff.cloud import Permutation, min_cost_assignment, permutation_array
from permdiff.errors import CapacityError, DomainError
from permdiff.perm_mcmc import (
    McmcConfig,
    _UNIFORM_BLOCK,
    _accept_log_domain,
    _block_gibbs,
    _swap_chain,
    cost_matrix,
    log_weight,
    mcmc_sample,
    posterior_exact,
)


def empirical_tv(dist, exact) -> float:
    """Total-variation distance between an empirical sample set and q."""
    counts = Counter(tuple(int(v) for v in row) for row in dist.support)
    k = len(dist)
    probs = dict(zip(map(tuple, exact.support.tolist()), exact.probabilities()))
    return 0.5 * sum(abs(counts.get(s, 0) / k - p) for s, p in probs.items())


class TestCostMatrix:
    def test_diagonal_zero_when_equal(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        cm = cost_matrix(x, x, 0.8)
        np.testing.assert_allclose(np.diag(cm), 0.0, atol=1e-15)
        assert np.all(cm <= 0.0)
        assert not cm.flags.writeable

    def test_closed_form_entry(self):
        cm = cost_matrix([[0.0], [1.0]], [[0.0], [2.0]], 0.25)
        assert cm[0, 1] == pytest.approx(-4.0, rel=1e-14)

    def test_doubling_t_halves_entries(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        a = cost_matrix(x, y, 0.4)
        b = cost_matrix(x, y, 0.8)
        np.testing.assert_allclose(b, a / 2.0, rtol=1e-14)

    def test_rejects_bad_time(self):
        with pytest.raises(DomainError):
            cost_matrix([[0.0]], [[0.0]], 0.0)


class TestLogWeight:
    def test_identity_on_equal_clouds(self):
        x = np.random.default_rng(2).standard_normal((3, 2))
        assert log_weight(Permutation.identity(3), x, x, 0.7) == 0.0

    def test_two_point_swap(self):
        sigma = Permutation((1, 0))
        x = np.array([[0.0], [1.0]])
        assert log_weight(sigma, x, x, 0.5) == pytest.approx(-1.0, rel=1e-14)

    def test_matches_cost_matrix_trace(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        t = 0.42
        entries = cost_matrix(x, y, t)
        for _ in range(25):
            sigma = Permutation(tuple(rng.permutation(6)))
            via_trace = sum(entries[sigma.mapping[j], j] for j in range(6))
            assert log_weight(sigma, x, y, t) == pytest.approx(via_trace, abs=1e-12)


class TestPosteriorExact:
    def test_weights_normalized(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        post = posterior_exact(x, y, 0.3)
        assert post.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
        assert len(post) == math.factorial(5)

    def test_uniform_in_large_time_limit(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        post = posterior_exact(x, y, 1e12)
        np.testing.assert_allclose(post.probabilities(), 1.0 / 24.0, rtol=1e-10)

    def test_two_point_closed_form(self):
        x = np.array([[0.0], [1.0]])
        post = posterior_exact(x, x, 0.5)
        probs = dict(zip(map(tuple, post.support.tolist()), post.probabilities()))
        z = 1.0 + math.exp(-1.0)
        assert probs[(0, 1)] == pytest.approx(1.0 / z, rel=1e-12)
        assert probs[(1, 0)] == pytest.approx(math.exp(-1.0) / z, rel=1e-12)

    def test_small_time_concentrates_on_best_assignment(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2)) * 3.0
        y = x[rng.permutation(4)] + 0.01 * rng.standard_normal((4, 2))
        post = posterior_exact(x, y, 1e-3)
        best = tuple(min_cost_assignment(x, y).mapping)
        probs = dict(zip(map(tuple, post.support.tolist()), post.probabilities()))
        assert probs[best] > 1.0 - 1e-8

    def test_capacity(self):
        x = np.zeros((10, 1))
        with pytest.raises(CapacityError):
            posterior_exact(x, x, 1.0)

    def test_far_points_at_tiny_time_raise(self):
        # The far point's cost is -inf in every slot: every log weight is
        # -inf, and normalizing them would give NaN.
        x, y = np.array([[0.0], [1.0], [1e5]]), np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(DomainError, match="finite weight"):
            posterior_exact(x, y, 1e-300)

    def test_assignment_marginal_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
        marg = posterior_exact(x, y, 0.5).assignment_marginal()
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(marg.sum(axis=0), 1.0, atol=1e-12)

    def test_support_is_the_cached_read_only_table(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        support = posterior_exact(x, y, 0.5).support
        assert np.shares_memory(support, permutation_array(5))
        assert not support.flags.writeable


def chain_transition_prob(entries, sigma, sigma_prime):
    """Exact one-step transition probability of the implemented chain.

    The move to sigma' = sigma composed with a slot transposition (a b)
    exchanges the points i = sigma(a) and j = sigma(b). It is proposed by
    drawing i and then slot b from row i, or j and then slot a from row j,
    so its probability is (p_i[b] + p_j[a]) / N; the inverse move has
    (p_i[a] + p_j[b]) / N, and the acceptance carries that Hastings factor.
    """
    n = len(sigma)
    row_probs = np.exp(entries - logsumexp(entries, axis=1)[:, None])
    diff = [j for j in range(n) if sigma[j] != sigma_prime[j]]
    if len(diff) != 2:
        return None  # not reachable in one accepted non-identity move
    a, b = diff
    i, j = sigma[a], sigma[b]
    if sigma_prime[a] != j or sigma_prime[b] != i:
        return None
    fwd = row_probs[i, b] + row_probs[j, a]
    rev = row_probs[i, a] + row_probs[j, b]
    d_i = entries[j, a] + entries[i, b] - entries[i, a] - entries[j, b]
    return fwd / n * min(1.0, math.exp(d_i) * rev / fwd)


class TestDetailedBalance:
    def test_exact_on_s3(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        t = 0.35
        entries = cost_matrix(x, y, t)
        post = posterior_exact(x, y, t)
        q = dict(zip(map(tuple, post.support.tolist()), post.probabilities()))
        pairs_checked = 0
        for sigma in itertools.permutations(range(3)):
            for sigma_prime in itertools.permutations(range(3)):
                if sigma == sigma_prime:
                    continue
                fwd = chain_transition_prob(entries, sigma, sigma_prime)
                rev = chain_transition_prob(entries, sigma_prime, sigma)
                if fwd is None:
                    assert rev is None
                    continue
                lhs = q[sigma] * fwd
                rhs = q[sigma_prime] * rev
                assert lhs == pytest.approx(rhs, rel=1e-13)
                pairs_checked += 1
        assert pairs_checked == 6 * 3  # each state reaches 3 transpositions

    def test_oracle_matches_one_step_law_of_code(self):
        # the balance checks above hold for the kernel mcmc_sample runs only
        # if chain_transition_prob is that kernel: compare one step of its
        # chain kernel from the start state (the mode), one chain per seed,
        # with the oracle's row
        rng = np.random.default_rng(15)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        t = 0.35
        entries = cost_matrix(x, y, t)
        start = min_cost_assignment(x, y).mapping
        law = {}
        for sigma_prime in itertools.permutations(range(3)):
            if sigma_prime != start:
                law[sigma_prime] = chain_transition_prob(entries, start, sigma_prime) or 0.0
        law[start] = 1.0 - sum(law.values())
        m = 4000
        counts = Counter()
        for seed in range(m):
            states, _ = _swap_chain(entries, np.asarray(start), seed, burn_in=0, thinning=1, k=1)
            counts[tuple(states[0].tolist())] += 1
        assert set(counts) <= set(law)
        for state, p in law.items():
            se = math.sqrt(p * (1.0 - p) / m)
            assert abs(counts[state] / m - p) <= 4.0 * se + 1.0 / m, (state, counts[state], p)

    def test_log_domain_fallback_evaluates_same_ratio(self):
        # mcmc_sample tests u2 < R from inverse row probabilities, and from
        # their logs when those overflow; both forms must give one R
        rng = np.random.default_rng(17)
        for _ in range(500):
            neg_log_i, neg_log_j = rng.uniform(0.0, 40.0, (2, 4))
            a, b = rng.choice(4, size=2, replace=False)
            inv_i, inv_j = np.exp(neg_log_i), np.exp(neg_log_j)
            r = (inv_i[a] + inv_j[b]) / (inv_i[b] + inv_j[a])
            u2 = float(rng.random())
            assert _accept_log_domain(neg_log_i, neg_log_j, a, b, u2) == (u2 < r)


def block_gibbs_transition_matrix(entries, y):
    """One-step kernel of ``_block_gibbs`` over S_N, built from its block law.

    Returns the states (slot -> point tuples, in ``permutation_array``
    order) and the N! x N! matrix P. A block is kb = min(4, N - 1) slots
    (N when N <= 2): with probability 1/4 a uniformly drawn kb-subset, else
    a uniformly drawn slot and its kb - 1 nearest slots in y, ties broken by
    index. Given the block, the step redraws the order of the points in its
    slots with probability proportional to exp(sum of their costs), and a
    block whose orders all weigh -inf keeps its order.
    """
    n = len(entries)
    kb = n if n <= 2 else min(4, n - 1)
    law = Counter()
    for block in itertools.combinations(range(n), kb):
        law[block] += 0.25 / math.comb(n, kb)
    sq = ((y[:, None] - y[None]) ** 2).sum(axis=2)
    for j in range(n):
        near = sorted(range(n), key=lambda i: (i != j, sq[j, i], i))[:kb]
        law[tuple(sorted(near))] += 0.75 / n
    states = [tuple(p) for p in permutation_array(n).tolist()]
    index = {s: i for i, s in enumerate(states)}
    kernel = np.zeros((len(states), len(states)))
    for sigma in states:
        for block, p_block in law.items():
            moves = []
            for order in itertools.permutations([sigma[s] for s in block]):
                new = list(sigma)
                for s, point in zip(block, order):
                    new[s] = point
                moves.append(tuple(new))
            logw = np.array([sum(entries[m[s], s] for s in block) for m in moves])
            if np.all(logw == -np.inf):
                kernel[index[sigma], index[sigma]] += p_block
                continue
            w = np.exp(logw - logw.max())
            for m, p_move in zip(moves, w / w.sum()):
                kernel[index[sigma], index[m]] += p_block * p_move
    return states, kernel


def one_hot_marginal(states, law):
    """Assignment marginal [point, slot] of a law over states."""
    n = len(states[0])
    marg = np.zeros((n, n))
    for sigma, p in zip(states, law):
        marg[list(sigma), range(n)] += p
    return marg


class TestBlockGibbs:
    """The block-Gibbs kernel of the MCMC training targets, as in B1 for the swap chain."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_posterior_is_invariant_and_kernel_irreducible(self, n):
        rng = np.random.default_rng(30 + n)
        x, y = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        if n == 4:
            y[3] = y[1]  # tied distances: the nearest slots break ties by index
        entries = cost_matrix(x, y, 0.35)
        states, kernel = block_gibbs_transition_matrix(entries, y)
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        q = posterior_exact(x, y, 0.35)
        assert [tuple(p) for p in q.support.tolist()] == states
        np.testing.assert_allclose(q.probabilities() @ kernel, q.probabilities(), rtol=0, atol=1e-12)
        reach = np.eye(len(states), dtype=bool) | (kernel > 0)
        for _ in range(len(states).bit_length()):
            reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        assert reach.all()

    @pytest.mark.parametrize("n, tied", [(3, False), (4, False), (4, True), (5, False)])
    def test_oracle_matches_the_kernel_in_the_code(self, n, tied):
        # At k = 1, _block_gibbs runs one chain of four steps from the start:
        # two burn-in steps, then two recorded ones. A recorded step adds the
        # expected one-hot of the next state, so the mean output over seeds
        # is the average marginal of the chain's laws after 3 and 4 steps.
        # With all slots at one position, every slot ties with every other
        # and a nearest block is still its slot plus the lowest others.
        rng = np.random.default_rng(40 + n)
        x, y = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        if tied:
            y[:] = y[0]
        entries = cost_matrix(x, y, 0.35)
        start = np.asarray(min_cost_assignment(x, y).mapping)
        states, kernel = block_gibbs_transition_matrix(entries, y)
        law = np.zeros(len(states))
        law[states.index(tuple(start.tolist()))] = 1.0
        laws = [law := law @ kernel for _ in range(4)]
        expected = 0.5 * (one_hot_marginal(states, laws[2]) + one_hot_marginal(states, laws[3]))
        m = 4000
        marg = _block_gibbs(
            np.broadcast_to(entries, (m, n, n)), np.broadcast_to(y, (m, n, 2)),
            np.broadcast_to(start, (m, n)), range(m), 1,
        )
        se = marg.std(axis=0, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(marg.mean(axis=0) - expected) <= 4.0 * se + 1e-12)


class TestMcmcSample:
    def test_single_point_only_identity(self):
        dist, diag = mcmc_sample([[0.5]], [[1.5]], 0.3, McmcConfig(k=50, seed=0))
        assert all(tuple(row) == (0,) for row in dist.support)
        assert diag.acceptance_rate == 1.0

    @pytest.mark.parametrize(
        "x, y",
        [([0.0, 1.0, 1e5], [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], [0.0, 1.0, 1e5]),
         ([0.0, 0.5, 1e5], [0.0, 1e5, 1e5 + 1.0])],
        ids=["far-x-point", "far-y-point", "no-finite-matching"],
    )
    def test_far_points_at_tiny_time_raise(self, x, y):
        # At t = 1e-300 a cost is -inf beyond a distance of about 2.7e4. In
        # the first two cases a cost row or column is all -inf; in the third
        # every row and column has a finite cost, but two points of x are
        # near only y_0. No permutation has a finite weight in any of them.
        x, y = np.array(x)[:, None], np.array(y)[:, None]
        with pytest.raises(DomainError, match="finite weight"):
            posterior_exact(x, y, 1e-300)
        with pytest.raises(DomainError, match="finite weight"):
            mcmc_sample(x, y, 1e-300, McmcConfig(k=8, seed=0))

    def test_two_point_frequency_matches_posterior(self):
        x = np.array([[0.0], [1.0]])
        cfg = McmcConfig(k=100_000, seed=1)
        dist, _ = mcmc_sample(x, x, 0.5, cfg)
        freq_id = np.mean([tuple(r) == (0, 1) for r in dist.support])
        assert abs(freq_id - 1.0 / (1.0 + math.exp(-1.0))) < 0.01

    @pytest.mark.parametrize("t", [0.05, 0.5, 5.0])
    def test_tv_to_exact_n5(self, t):
        rng = np.random.default_rng(int(t * 100))
        x = rng.standard_normal((5, 2))
        y = x[rng.permutation(5)] + math.sqrt(2.0 * t) * rng.standard_normal((5, 2))
        exact = posterior_exact(x, y, t)
        dist, _ = mcmc_sample(x, y, t, McmcConfig(k=100_000, seed=2))
        assert empirical_tv(dist, exact) < 0.05

    def test_tv_to_exact_when_inverse_probabilities_overflow(self):
        # far-apart points at small t: most inverse row probabilities
        # overflow to inf, and the two states of a close pair must still be
        # sampled in proportion
        rng = np.random.default_rng(16)
        x = np.array([[0.0, 0.0], [0.15, 0.0], [4.0, 4.0], [-4.0, 4.0], [4.0, -4.0]])
        t = 0.01
        y = x[[3, 0, 4, 1, 2]] + math.sqrt(2.0 * t) * rng.standard_normal((5, 2))
        exact = posterior_exact(x, y, t)
        dist, diag = mcmc_sample(x, y, t, McmcConfig(k=20_000, seed=3))
        assert empirical_tv(dist, exact) < 0.05
        assert diag.unique_states == 2

    def test_marginal_tv_n6(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 2))
        y = x[rng.permutation(6)] + math.sqrt(1.0) * rng.standard_normal((6, 2))
        exact_marg = posterior_exact(x, y, 0.5).assignment_marginal()
        dist, _ = mcmc_sample(x, y, 0.5, McmcConfig(k=100_000, seed=3))
        emp_marg = dist.assignment_marginal()
        row_tv = 0.5 * np.abs(emp_marg - exact_marg).sum(axis=1)
        assert row_tv.max() < 0.05

    def test_irreducible_hits_all_of_s4(self):
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
        # 200 + 4 * 5000 steps: the 20,200 steps of thinning 1 and k = 20,000,
        # with every fourth state kept
        dist, _ = mcmc_sample(x, y, 50.0, McmcConfig(k=5_000, seed=4))
        seen = {tuple(int(v) for v in r) for r in dist.support}
        assert len(seen) == 24

    def test_determinism(self):
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        cfg = McmcConfig(k=200, seed=5)
        d1, g1 = mcmc_sample(x, y, 0.4, cfg)
        d2, g2 = mcmc_sample(x, y, 0.4, cfg)
        np.testing.assert_array_equal(d1.support, d2.support)
        assert g1 == g2

    def test_diagnostics_fields(self):
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
        dist, diag = mcmc_sample(x, y, 0.5, McmcConfig(k=500, seed=6))
        assert len(dist) == 500
        assert 0.0 <= diag.acceptance_rate <= 1.0
        assert diag.proposal_count == 50 * 3 + 3 * 500  # burn-in 50N, thinning N
        assert 1 <= diag.unique_states <= 500

    def test_rejects_bad_config(self):
        with pytest.raises(DomainError):
            mcmc_sample([[0.0]], [[0.0]], 1.0, McmcConfig(k=0))
        with pytest.raises(DomainError):
            mcmc_sample([[0.0]], [[0.0]], -1.0, McmcConfig(k=5))


def chain_digest(cases) -> str:
    """SHA-256 over the supports, weights and diagnostics of mcmc_sample runs."""
    h = hashlib.sha256()
    for x, y, t, cfg in cases:
        dist, diag = mcmc_sample(x, y, t, cfg)
        h.update(np.ascontiguousarray(dist.support, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(dist.log_weights, dtype="<f8").tobytes())
        rate, count, unique = diag.acceptance_rate, diag.proposal_count, diag.unique_states
        h.update(f"{rate.hex()} {count} {unique};".encode())
    return h.hexdigest()


class TestGoldenStream:
    """The chain's output for fixed seeds, pinned by a digest of the original loop.

    The grid covers t = 1e-300 and 1e-3, where inverse probabilities overflow
    and the log-domain test runs, and a chain longer than one uniform block.
    """

    def test_grid(self):
        cases = []
        for n in range(1, 9):
            rng = np.random.default_rng(100 + n)
            x, y = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
            for t in (1e-300, 1e-3, 0.05, 0.5, 5.0):
                cases.append((x, y, t, McmcConfig(k=16, seed=1000 * n + len(cases))))
        assert chain_digest(cases) == GOLDEN_GRID

    def test_two_uniform_blocks(self):
        rng = np.random.default_rng(99)
        x, y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        cfg = McmcConfig(k=6_000, seed=17)
        assert 50 * 6 + 6 * cfg.k > _UNIFORM_BLOCK  # burn-in 50N, thinning N
        assert chain_digest([(x, y, 0.3, cfg)]) == GOLDEN_TWO_BLOCKS


GOLDEN_GRID = "5d62763a8ed1d45779d433b5f9c99db6cfd4e18a5f738ab7ce850aba06f55e07"
GOLDEN_TWO_BLOCKS = "a3d48178fa64633c30af9684213cf778989a84d87d891157dfa539c07fef9f47"
