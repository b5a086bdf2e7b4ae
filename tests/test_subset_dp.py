"""Property tests of the subset DP against enumeration over S_N.

``_subset_dp`` must give the log partition function and the assignment
marginals that ``_perm_sums`` and ``_assignment_marginals`` give by
enumerating all N! permutations, for N = 1..8, d = 1..3 and times from
1e-300 to 1e3.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from permdiff import heat_kernel
from permdiff.cloud import pairwise_sq_dists, permutation_array
from permdiff.errors import CapacityError
from permdiff.heat_kernel import DP_CEILING, _assignment_marginals, _perm_sums, _subset_dp


@st.composite
def instances(draw, min_log10_t=-300.0, duplicate_slots=False):
    """(x, y, t): Gaussian points, t log-uniform, some points repeated.

    Repeated points of x give exactly tied permutations. Repeated points of y
    (``duplicate_slots``) tie permutations whose terms enumeration adds in
    different orders; once the costs are far above 1/eps that rounding
    decides which one wins, so those instances stay at moderate t.
    """
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, d))
    copies = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    if draw(st.booleans()):
        x = x[draw(copies)]
    if duplicate_slots:
        y = y[draw(copies)]
    t = 10.0 ** draw(st.floats(min_log10_t, 3.0))
    return x, y, t


def log_affinities(x, y, t):
    return (-pairwise_sq_dists(x, y) / (4.0 * t))[None]


def enumerated(cost):
    terms = _perm_sums(cost)
    # Normalised by the sum, not by exp(log Z): log Z rounds at its own scale.
    w = np.exp(terms - terms.max(axis=1, keepdims=True))
    probs = w / w.sum(axis=1, keepdims=True)
    return logsumexp(terms, axis=1), _assignment_marginals(permutation_array(cost.shape[-1]), probs)


def assert_matches_enumeration(cost, atol):
    log_z, marg = _subset_dp(cost)
    ref_log_z, ref_marg = enumerated(cost)
    assert abs(log_z[0] - ref_log_z[0]) <= 1e-13 * max(1.0, abs(ref_log_z[0]))
    np.testing.assert_allclose(marg, ref_marg, rtol=0, atol=atol)


@given(instances())
def test_matches_enumeration(inst):
    assert_matches_enumeration(log_affinities(*inst), atol=1e-12)


@given(instances(min_log10_t=-2.0, duplicate_slots=True))
def test_matches_enumeration_with_repeated_slots(inst):
    assert_matches_enumeration(log_affinities(*inst), atol=1e-10)


@given(instances(duplicate_slots=True))
def test_rows_and_columns_sum_to_one(inst):
    _, marg = _subset_dp(log_affinities(*inst))
    assert np.all(marg >= 0.0)
    np.testing.assert_allclose(marg.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(marg.sum(axis=2), 1.0, rtol=0, atol=1e-12)


@given(instances(), st.randoms(use_true_random=False))
def test_permuting_x_permutes_rows(inst, random):
    x, y, t = inst
    perm = np.array(random.sample(range(len(x)), len(x)))
    log_z, marg = _subset_dp(log_affinities(x, y, t))
    log_z_p, marg_p = _subset_dp(log_affinities(x[perm], y, t))
    assert abs(log_z_p[0] - log_z[0]) <= 1e-13 * max(1.0, abs(log_z[0]))
    np.testing.assert_allclose(marg_p[0], marg[0][perm], rtol=0, atol=1e-12)


def test_batch_rows_are_independent():
    rng = np.random.default_rng(0)
    cost = log_affinities(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), 0.3)
    batch = np.concatenate([cost, 2.0 * cost, cost - 7.0])
    log_z, marg = _subset_dp(batch)
    for b in range(3):
        one_z, one_marg = _subset_dp(batch[b : b + 1])
        assert log_z[b] == one_z[0]
        np.testing.assert_array_equal(marg[b], one_marg[0])
    # A constant shift of every entry moves log Z by N times it and leaves P.
    assert log_z[2] == pytest.approx(log_z[0] - 5 * 7.0, rel=1e-14)
    np.testing.assert_allclose(marg[2], marg[0], atol=1e-14)


def test_batches_over_the_memory_budget_run_in_parts(monkeypatch):
    rng = np.random.default_rng(3)
    batch = -rng.exponential(size=(5, 4, 4))
    whole_z, whole_marg = _subset_dp(batch)
    monkeypatch.setattr(heat_kernel, "_DP_BUDGET", 2 * (4 << 4))  # two matrices per part
    parts_z, parts_marg = _subset_dp(batch)
    np.testing.assert_array_equal(parts_z, whole_z)
    np.testing.assert_array_equal(parts_marg, whole_marg)
    assert _subset_dp(batch, marginals=False)[1] is None


def test_forward_only_gives_the_same_log_z():
    rng = np.random.default_rng(1)
    cost = log_affinities(rng.standard_normal((7, 3)), rng.standard_normal((7, 3)), 0.05)
    log_z, marg = _subset_dp(cost, marginals=False)
    assert marg is None
    assert log_z[0] == _subset_dp(cost)[0][0]


def test_unreachable_subsets_carry_no_mass():
    # Point 0 can only take slot 2: every subset holding it in slots 0..1 has
    # log weight -inf, and the marginals must still be a permutation matrix.
    cost = np.full((1, 3, 3), -np.inf)
    cost[0, 0, 2] = 0.0
    cost[0, 1, 0] = cost[0, 2, 1] = -1.0
    cost[0, 1, 1] = cost[0, 2, 0] = -3.0
    log_z, marg = _subset_dp(cost)
    ref_log_z, ref_marg = enumerated(cost)
    assert log_z[0] == pytest.approx(ref_log_z[0], rel=1e-14)
    np.testing.assert_allclose(marg, ref_marg, atol=1e-15)


def test_beyond_enumeration_the_dp_is_exact_at_the_ceiling():
    # N = DP_CEILING: two well-separated clusters, so the sum factorises into
    # the two clusters' permanents, each small enough to enumerate.
    rng = np.random.default_rng(2)
    half = DP_CEILING // 2
    x = np.concatenate([rng.standard_normal((half, 1)), 1e3 + rng.standard_normal((half, 1))])
    y = x + 0.3 * rng.standard_normal(x.shape)
    cost = log_affinities(x, y, 0.5)
    log_z, marg = _subset_dp(cost)
    ref_lo, marg_lo = enumerated(cost[:, :half, :half])
    ref_hi, marg_hi = enumerated(cost[:, half:, half:])
    assert log_z[0] == pytest.approx(ref_lo[0] + ref_hi[0], rel=1e-12)
    np.testing.assert_allclose(marg[0, :half, :half], marg_lo[0], atol=1e-12)
    np.testing.assert_allclose(marg[0, half:, half:], marg_hi[0], atol=1e-12)
    assert marg[0, :half, half:].max() == 0.0


def test_ceiling_holds_whatever_the_cap():
    # The DP's one limit is its ceiling, not the enumeration cap of 9.
    cost = np.zeros((1, DP_CEILING + 1, DP_CEILING + 1))
    with pytest.raises(CapacityError, match="MCMC"):
        _subset_dp(cost)
    log_z, _ = _subset_dp(np.zeros((1, 10, 10)), marginals=False)
    assert log_z[0] == pytest.approx(math.lgamma(11), rel=1e-13)


def test_log_z_matches_closed_form_for_equal_affinities():
    # All N! permutations have weight exp(N c): log Z = N c + log N!.
    for n in (1, 4, 11):
        log_z, marg = _subset_dp(np.full((1, n, n), -0.25))
        assert log_z[0] == pytest.approx(-0.25 * n + math.lgamma(n + 1), rel=1e-13)
        np.testing.assert_allclose(marg[0], 1.0 / n, rtol=1e-13)
