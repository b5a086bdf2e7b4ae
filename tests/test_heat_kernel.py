"""Euclidean and quotient heat kernels against hand-derived closed forms."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from permdiff.cloud import ENUMERATION_CAP, Permutation, apply, permutation_array
from permdiff.errors import CapacityError, DomainError
from permdiff.heat_kernel import (
    DP_CEILING,
    _logsumexp,
    _perm_sums,
    euclid_log_heat_kernel,
    initial_condition_check,
    quotient_kernel_semigroup_residual,
    quotient_log_heat_kernel_exact,
    quotient_log_kernel_terms,
)
from permdiff.ou_sde import ou_transition, quotient_transition_log_density
from permdiff.perm_mcmc import posterior_exact


def _logsumexp_grid(seed):
    """(4, 5, 6) arrays of special and ordinary values: +-inf, NaN, ties, all -inf rows."""
    pool = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 3.5, -700.0, -745.5,
                     709.0, 1e308, -1e308, 5e-324, -2.0, 2.0])
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 5, 6)) * 10.0 ** rng.integers(-3, 4, size=(4, 5, 6))
    special = rng.random((4, 5, 6)) < 0.3
    a[special] = rng.choice(pool, size=special.sum())
    a[0, 0] = -np.inf
    a[0, 1] = 3.0
    a[0, 2, :3] = -np.inf
    a[1, 0] = np.finfo(float).max
    return a


def _logsumexp_long(seed):
    """1-D arrays of 8! terms: some -inf, a tie at the maximum, all -inf, one +inf, one NaN."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(math.factorial(8)) * 30.0
    some_neg_inf = np.where(rng.random(a.size) < 0.1, -np.inf, a)
    tie = a.copy()
    tie[rng.choice(a.size, 3, replace=False)] = a.max()
    cases = [some_neg_inf, tie, np.full(a.size, -np.inf)]
    for special in (np.inf, np.nan):
        case = a.copy()
        case[rng.integers(a.size)] = special
        cases.append(case)
    return cases


class TestLogsumexp:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("axis", [None, 2])
    def test_equals_scipy_bitwise(self, seed, axis):
        a = _logsumexp_grid(seed)
        cases = [a, a[0], a[0, 0], a[3, 4], *_logsumexp_long(seed)] if axis is None else [a]
        for case in cases:
            with np.errstate(over="ignore"):  # scipy's shift may overflow to -inf
                expected = logsumexp(case, axis=axis)
            got = _logsumexp(case, axis=axis)
            assert type(got) is type(expected) and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def _reference_perm_sums(cost):
    """One (..., N!) gather per slot, added left to right."""
    perms = permutation_array(cost.shape[-1])
    out = cost[..., perms[:, 0], 0]
    for j in range(1, cost.shape[-1]):
        out += cost[..., perms[:, j], j]
    return out


class TestPermSums:
    @pytest.mark.parametrize(
        "n, lead",
        [(n, lead) for n in range(1, 9) for lead in [(), (3,), (2, 2)]] + [(9, ())],
    )
    def test_equals_reference_bitwise(self, n, lead):
        rng = np.random.default_rng(40 + n)
        for scale in (1e-3, 1.0, 1e5, 1e307):
            cost = -np.abs(rng.standard_normal((*lead, n, n))) * scale
            cost[rng.random(cost.shape) < 0.1] = -np.inf
            with np.errstate(over="ignore"):  # sums of -1e307 terms reach -inf
                expected = _reference_perm_sums(cost)
                got = _perm_sums(cost)
            assert got.shape == (*lead, math.factorial(n))
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "t, digest",
        [
            (0.05, "c2359cb4143d51ffd4dbeae9708aab2c7d87db8908ba5c74b5b8f863e9f0b5bf"),
            (0.5, "0255265070ece3e60e54a61cfc020f35045daded059913db5342f5b495c8d8e4"),
            (5.0, "26f3666803ea021e3d8d2a8be1dd6b402f04a6ed69d92a377c249ba2c713ffb8"),
        ],
    )
    def test_posterior_log_weights_are_pinned(self, t, digest):
        # Digests of the one-gather-per-slot enumeration, on numpy 2.4.
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
        log_weights = posterior_exact(x, y, t).log_weights
        assert hashlib.sha256(log_weights.tobytes()).hexdigest() == digest


class TestEuclidKernel:
    def test_unit_density_at_special_time(self):
        # prefactor (4 pi t)^(-1/2) is 1 at t = 1/(4 pi); exponent vanishes at x = y
        t = 1.0 / (4.0 * math.pi)
        assert euclid_log_heat_kernel([[0.3]], [[0.3]], t) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal((4, 3))
            y = rng.standard_normal((4, 3))
            t = float(rng.uniform(0.05, 3.0))
            assert euclid_log_heat_kernel(x, y, t) == euclid_log_heat_kernel(y, x, t)

    def test_closed_form_point(self):
        # d=1, N=1, x=0, y=2, t=1: -(1/2) log(4 pi) - 4/4
        expected = -0.5 * math.log(4.0 * math.pi) - 1.0
        assert euclid_log_heat_kernel([[0.0]], [[2.0]], 1.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            euclid_log_heat_kernel([[0.0]], [[1.0]], 0.0)
        with pytest.raises(DomainError):
            euclid_log_heat_kernel([[0.0]], [[1.0]], -1.0)


class TestQuotientKernel:
    def test_single_point_reduces_to_euclid(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3))
        y = rng.standard_normal((1, 3))
        assert quotient_log_heat_kernel_exact(x, y, 0.7) == pytest.approx(
            euclid_log_heat_kernel(x, y, 0.7), rel=1e-15
        )

    def test_two_point_closed_form(self):
        # x = y = (0, 1), t = 1/2: identity term has zero exponent and the swap
        # term has squared distance 2, so K = (2 pi)^{-1} (1 + e^{-1})
        value = quotient_log_heat_kernel_exact([[0.0], [1.0]], [[0.0], [1.0]], 0.5)
        expected = math.log((1.0 + math.exp(-1.0)) / (2.0 * math.pi))
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_sided_invariance_exhaustive(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2))
        t = 0.3
        base = quotient_log_heat_kernel_exact(x, y, t)
        for perm in itertools.permutations(range(n)):
            sigma = Permutation(perm)
            assert quotient_log_heat_kernel_exact(x, apply(sigma, y), t) == pytest.approx(base, rel=1e-12)
            assert quotient_log_heat_kernel_exact(apply(sigma, x), y, t) == pytest.approx(base, rel=1e-12)
            assert quotient_log_heat_kernel_exact(
                apply(sigma, x), apply(sigma, y), t
            ) == pytest.approx(base, rel=1e-12)

    def test_two_sided_invariance_randomized_n8(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((8, 2))
        base = quotient_log_heat_kernel_exact(x, y, 0.4)
        for _ in range(3):
            sigma = Permutation(tuple(rng.permutation(8)))
            tau = Permutation(tuple(rng.permutation(8)))
            assert quotient_log_heat_kernel_exact(
                apply(tau, x), apply(sigma, y), 0.4
            ) == pytest.approx(base, rel=1e-12)

    def test_no_overflow_extreme_inputs(self):
        x = np.array([[1e3, -1e3], [-1e3, 1e3], [5e2, 0.0]])
        y = -x
        for t in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            val = quotient_log_heat_kernel_exact(x, y, t)
            assert math.isfinite(val)
        # Far points at tiny t: every term is -inf, with no overflow warning
        # (pyproject.toml's filterwarnings makes a RuntimeWarning an error).
        x, y = [[0.0], [1.0], [1e5]], [[0.0], [1.0], [2.0]]
        terms = quotient_log_kernel_terms(x, y, 1e-300)
        assert terms.shape == (6,) and np.all(terms == -math.inf)
        assert quotient_log_heat_kernel_exact(x, y, 1e-300) == -math.inf

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_term_count_is_factorial(self, n):
        rng = np.random.default_rng(20 + n)
        x = rng.standard_normal((n, 1))
        terms = quotient_log_kernel_terms(x, x, 0.5)
        assert terms.shape == (math.factorial(n),)

    def test_capacity_error_above_cap(self):
        x = np.zeros((DP_CEILING + 1, 1))
        with pytest.raises(CapacityError, match="MCMC"):
            quotient_log_heat_kernel_exact(x, x, 1.0)
        with pytest.raises(CapacityError, match="MCMC"):
            quotient_transition_log_density(x, x, 0.1, 0.5)

    def test_exact_above_the_enumeration_cap(self):
        # y at one point c: every permutation has the same weight, so the
        # sum over S_12 is 12! times the Euclidean kernel.
        rng = np.random.default_rng(30)
        n, t = 12, 0.3
        x, c = rng.standard_normal((n, 2)), rng.standard_normal(2)
        y = np.tile(c, (n, 1))
        log_n_fact = math.lgamma(n + 1)
        expected = euclid_log_heat_kernel(x, y, t) + log_n_fact
        assert quotient_log_heat_kernel_exact(x, y, t) == pytest.approx(expected, rel=1e-13)
        tr = ou_transition(0.1, 0.1 + t)
        expected = euclid_log_heat_kernel(tr.decay * x, y, tr.variance / 2.0) + log_n_fact
        value = quotient_transition_log_density(x, y, 0.1, 0.1 + t)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_custom_cap(self):
        # the per-permutation terms enumerate S_N up to the fixed cap
        x = np.zeros((ENUMERATION_CAP + 1, 1))
        with pytest.raises(CapacityError):
            quotient_log_kernel_terms(x, x, 1.0)


class TestSemigroup:
    def test_single_point_chapman_kolmogorov(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2))
        y = rng.standard_normal((1, 2))
        res = quotient_kernel_semigroup_residual(x, y, 0.3, 0.5, m=40_000, seed=0)
        assert res.residual <= 3.0 * res.std_error

    def test_two_points(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 1))
        y = rng.standard_normal((2, 1))
        res = quotient_kernel_semigroup_residual(x, y, 0.25, 0.25, m=100_000, seed=1)
        assert res.residual <= 3.0 * res.std_error

    def test_three_points_2d(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        res = quotient_kernel_semigroup_residual(x, y, 0.1, 0.4, m=60_000, seed=2)
        assert res.residual <= 3.0 * res.std_error

    def test_exact_two_point_oracle(self):
        # the N=2 closed form, checked directly rather than through sampling
        x = np.array([[0.0], [1.0]])
        explicit = math.log(
            (math.exp(-0.0) + math.exp(-2.0 / (4.0 * 0.5))) / (4.0 * math.pi * 0.5)
        )
        assert quotient_log_heat_kernel_exact(x, x, 0.5) == pytest.approx(explicit, rel=1e-12)


def _symmetrized_bump(center, width):
    """Bounded invariant test function with a closed-form Gaussian smoothing."""
    centers = [center[list(p)] for p in itertools.permutations(range(len(center)))]

    def f(z):
        return sum(
            math.exp(-float(((z - c) ** 2).sum()) / (2.0 * width**2)) for c in centers
        )

    def smoothed(x, t):
        dn = center.size
        scale = (width**2 / (width**2 + 2.0 * t)) ** (dn / 2.0)
        return sum(
            scale * math.exp(-float(((x - c) ** 2).sum()) / (2.0 * (width**2 + 2.0 * t)))
            for c in centers
        )

    return f, smoothed


class TestInitialCondition:
    def test_constant_function_exact(self):
        x = np.zeros((2, 1))
        estimates = initial_condition_check(lambda z: 1.0, x, [1.0, 0.1], m=500, seed=0)
        assert estimates == [1.0, 1.0]

    def test_symmetrized_bump_matches_closed_form_and_converges(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 1))
        center = x + 0.3 * rng.standard_normal(x.shape)
        f, smoothed = _symmetrized_bump(center, width=0.8)
        ts = [1.0, 0.1, 0.01, 0.001]
        m = 20_000
        estimates = initial_condition_check(f, x, ts, m=m, seed=6)
        target = f(x)
        exact = [smoothed(x, t) for t in ts]
        for est, ex in zip(estimates, exact):
            assert est == pytest.approx(ex, abs=5.0 * 2.0 / math.sqrt(m))
        gaps = [abs(e - target) for e in exact]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert abs(estimates[-1] - target) < 0.02

    def test_min_coordinate_converges(self):
        x = np.array([[0.0], [2.0], [5.0]])
        f = lambda z: float(z.min())
        estimates = initial_condition_check(f, x, [1.0, 0.1, 0.01, 0.001], m=20_000, seed=7)
        errs = [abs(e - 0.0) for e in estimates]
        assert errs[-1] < 0.05
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_times_must_be_positive_and_finite(self, bad):
        # A NaN time would give a NaN estimate, and an infinite one a numpy warning.
        with pytest.raises(DomainError, match="positive and finite"):
            initial_condition_check(lambda z: 1.0, np.zeros((2, 1)), [bad], m=4, seed=0)

    def test_off_orbit_bump_vanishes(self):
        x = np.zeros((2, 1))
        center = np.array([[5.0], [9.0]])
        f, _ = _symmetrized_bump(center, width=0.3)
        estimates = initial_condition_check(f, x, [1.0, 0.1, 0.01], m=5_000, seed=8)
        assert estimates[-1] < 1e-8

    def test_requires_decreasing_times(self):
        with pytest.raises(DomainError):
            initial_condition_check(lambda z: 1.0, [[0.0]], [0.1, 1.0], m=10, seed=0)
