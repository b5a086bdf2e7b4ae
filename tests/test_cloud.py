"""Core types: permutation action, canonicalization, orbit distance."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import permdiff
from permdiff.cloud import (
    ENUMERATION_CAP,
    Permutation,
    PointCloud,
    apply,
    canonicalize,
    iter_permutations,
    min_cost_assignment,
    orbit_distance,
    permutation_array,
)
from permdiff.errors import CapacityError, DomainError, ShapeMismatchError


def brute_force_orbit_distance(x, y):
    """Independent oracle: minimize over every permutation explicitly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = math.inf
    for perm in itertools.permutations(range(len(y))):
        cand = np.linalg.norm(x - y[list(perm)])
        best = min(best, cand)
    return best


class TestPermutation:
    def test_identity_action(self):
        x = np.arange(8.0).reshape(4, 2)
        out = apply(Permutation.identity(4), x)
        np.testing.assert_array_equal(out.points, x)

    def test_transposition_action(self):
        out = apply(Permutation((1, 0)), [[0.0], [1.0]])
        np.testing.assert_array_equal(out.points, [[1.0], [0.0]])

    def test_action_convention(self):
        # output slot j holds input point sigma^{-1}(j)
        sigma = Permutation((2, 0, 1))
        x = np.array([[10.0], [20.0], [30.0]])
        out = apply(sigma, x).points
        inv = sigma.inverse()
        expected = np.array([x[inv.mapping[j]] for j in range(3)])
        np.testing.assert_array_equal(out, expected)

    def test_composition_matches_double_application(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        for _ in range(20):
            sigma = Permutation(tuple(rng.permutation(5)))
            tau = Permutation(tuple(rng.permutation(5)))
            via_compose = apply(sigma.compose(tau), x).points
            via_double = apply(sigma, apply(tau, x)).points
            np.testing.assert_array_equal(via_compose, via_double)

    def test_group_laws_exhaustive_n4(self):
        perms = [Permutation(p) for p in itertools.permutations(range(4))]
        ident = Permutation.identity(4)
        for s in perms:
            assert s.compose(s.inverse()) == ident
            assert s.inverse().compose(s) == ident
            assert s.compose(ident) == s and ident.compose(s) == s
        for s in perms[:6]:
            for t in perms[:6]:
                for u in perms[:6]:
                    assert s.compose(t).compose(u) == s.compose(t.compose(u))

    def test_inverse_roundtrip_on_clouds(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 2))
        sigma = Permutation(tuple(rng.permutation(6)))
        np.testing.assert_array_equal(
            apply(sigma, apply(sigma.inverse(), x)).points, x
        )

    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            Permutation((0, 0, 1))

    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            apply(Permutation.identity(3), [[0.0], [1.0]])


class TestCanonicalize:
    def test_lexicographic_sort(self):
        q = canonicalize([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(q.points, [[0.0, 0.0], [1.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 3))
        once = canonicalize(x)
        twice = canonicalize(once)
        np.testing.assert_array_equal(once.points, twice.points)

    def test_duplicates_collapse(self):
        for perm in itertools.permutations(range(2)):
            q = canonicalize(np.zeros((2, 1))[list(perm)])
            np.testing.assert_array_equal(q.points, [[0.0], [0.0]])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_permutation_invariance_exhaustive(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        base = canonicalize(x).points
        for perm in itertools.permutations(range(n)):
            permuted = apply(Permutation(perm), x)
            np.testing.assert_array_equal(canonicalize(permuted).points, base)

    def test_permutation_invariance_randomized_large(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        base = canonicalize(x).points
        for _ in range(25):
            sigma = Permutation(tuple(rng.permutation(40)))
            np.testing.assert_array_equal(canonicalize(apply(sigma, x)).points, base)

    def test_ties_in_leading_coordinate(self):
        x = np.array([[1.0, 5.0], [1.0, -2.0], [0.0, 9.0]])
        np.testing.assert_array_equal(
            canonicalize(x).points, [[0.0, 9.0], [1.0, -2.0], [1.0, 5.0]]
        )


class TestOrbitDistance:
    def test_zero_on_equal(self):
        x = np.random.default_rng(4).standard_normal((5, 2))
        assert orbit_distance(x, x) == 0.0

    def test_zero_on_orbit(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 2))
        for _ in range(10):
            sigma = Permutation(tuple(rng.permutation(6)))
            assert orbit_distance(x, apply(sigma, x)) < 1e-12

    def test_small_example(self):
        x = np.array([[0.0], [1.0], [2.0]])
        assert orbit_distance(x, [[2.0], [0.0], [1.0]]) < 1e-12
        assert abs(orbit_distance(x, [[2.0], [0.0], [1.5]]) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            x = rng.standard_normal((n, 2))
            y = rng.standard_normal((n, 2))
            assert abs(orbit_distance(x, y) - brute_force_orbit_distance(x, y)) < 1e-12

    def test_min_cost_assignment_attains_distance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        sigma = min_cost_assignment(x, y)
        attained = np.linalg.norm(x - apply(sigma, y).points)
        assert abs(attained - orbit_distance(x, y)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            orbit_distance([[0.0], [1.0]], [[0.0, 1.0]])


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_and_uniqueness(self, n):
        perms = list(iter_permutations(n))
        assert len(perms) == math.factorial(n)
        assert len(set(perms)) == math.factorial(n)

    def test_array_is_cached_and_readonly(self):
        a = permutation_array(4)
        assert a is permutation_array(4)
        assert not a.flags.writeable

    def test_cap_is_checked_on_every_call(self):
        # The table cache holds no errors: N = 10 raises each time, before any build.
        for _ in range(2):
            with pytest.raises(CapacityError, match="N <= 9"):
                permutation_array(ENUMERATION_CAP + 1)

    def test_first_element_is_identity(self):
        assert tuple(permutation_array(5)[0]) == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_table_is_heaps_order(self, n):
        expected = np.array(list(iter_permutations(n)), dtype=np.intp)
        table = permutation_array(n)
        assert table.dtype == np.intp
        np.testing.assert_array_equal(table, expected)


def test_import_loads_numpy_alone():
    # scipy is imported only where the assignment solver or the bench
    # statistics run; the solver still works once the package is loaded.
    code = (
        "import sys, permdiff, permdiff.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
        "from permdiff.cloud import min_cost_assignment\n"
        "print(min_cost_assignment([[0.0], [1.0], [2.0]], [[2.0], [0.0], [1.0]]).mapping)\n"
    )
    src = str(Path(permdiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "(2, 0, 1)"


class TestPointCloudValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PointCloud(np.array([[np.nan], [0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatchError):
            PointCloud(np.zeros((0, 2)))

    def test_one_dim_promoted(self):
        pc = PointCloud(np.array([1.0, 2.0]))
        assert pc.n == 2 and pc.d == 1

    def test_immutable(self):
        pc = PointCloud(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pc.points[0, 0] = 1.0
