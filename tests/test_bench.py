"""Invariant features, the energy two-sample test, synthetic data, studies."""

import itertools
import math

import numpy as np
import pytest

from permdiff.bench import (
    DATASET_KINDS,
    cloud_features,
    default_study_instance,
    energy_distance,
    energy_permutation_test,
    make_synthetic_dataset,
    run_estimator_study,
    sorted_coordinates,
    sorted_pairwise_distances,
)
from permdiff.cloud import Permutation, apply, canonicalize
from permdiff.errors import DomainError


class TestFeatures:
    def test_sorted_distances_are_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        base = sorted_pairwise_distances(x)
        for perm in itertools.permutations(range(4)):
            np.testing.assert_array_equal(
                sorted_pairwise_distances(apply(Permutation(perm), x)), base
            )

    def test_sorted_coordinates_are_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 2))
        base = sorted_coordinates(x)
        for _ in range(6):
            sigma = Permutation(tuple(rng.permutation(5)))
            np.testing.assert_array_equal(sorted_coordinates(apply(sigma, x)), base)

    def test_feature_vector_length(self):
        x = np.zeros((4, 2))
        assert cloud_features(x).shape == (6 + 8,)


class TestEnergyTest:
    def test_statistic_near_zero_for_identical_samples(self):
        rng = np.random.default_rng(2)
        pooled = rng.standard_normal((400, 3))
        stat = energy_distance(pooled[:200], pooled[200:])
        assert abs(stat) < 0.05

    def test_statistic_positive_for_separated_samples(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + 3.0
        assert energy_distance(a, b) > 1.0

    def test_null_calibration(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((150, 3))
        b = rng.standard_normal((150, 3))
        _, p = energy_permutation_test(a, b, n_shuffles=500, seed=5)
        assert p > 0.05

    def test_rejects_separated_samples(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + 1.0
        _, p = energy_permutation_test(a, b, n_shuffles=500, seed=7)
        assert p <= 0.005

    def test_matvec_statistics_match_direct_computation(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((40, 2))
        stat, _ = energy_permutation_test(a, b, n_shuffles=10, seed=9)
        assert stat == pytest.approx(energy_distance(a, b), rel=1e-10)

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((20, 1)), rng.standard_normal((20, 1))
        _, p = energy_permutation_test(a, b, n_shuffles=99, seed=11)
        assert 0.0 < p <= 1.0


class TestSyntheticDatasets:
    def test_jittered_template_zero_jitter_identical(self):
        items = make_synthetic_dataset("jittered-template", 8, 4, 2, seed=0, jitter=0.0)
        base = items[0].points
        for item in items[1:]:
            np.testing.assert_array_equal(item.points, base)

    def test_outputs_canonicalized(self):
        for kind in ("gaussian-blobs", "ring", "jittered-template"):
            items = make_synthetic_dataset(kind, 5, 4, 2, seed=1)
            for item in items:
                np.testing.assert_array_equal(
                    item.points, canonicalize(item).points
                )

    def test_ring_distance_multisets_equal_at_zero_jitter(self):
        items = make_synthetic_dataset("ring", 6, 4, 2, seed=2, jitter=0.0, radius=1.0)
        base = sorted_pairwise_distances(items[0])
        for item in items[1:]:
            np.testing.assert_allclose(sorted_pairwise_distances(item), base, atol=1e-12)

    @pytest.mark.parametrize("setting", ["jitter", "radius", "blob_std"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_settings_must_be_finite(self, setting, bad):
        for kind in DATASET_KINDS:
            with pytest.raises(DomainError, match="must be finite"):
                make_synthetic_dataset(kind, 2, 3, 2, seed=5, **{setting: bad})

    def test_ring_needs_two_dims(self):
        with pytest.raises(DomainError):
            make_synthetic_dataset("ring", 2, 3, 1, seed=3)

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown dataset kind"):
            make_synthetic_dataset("mystery", 2, 3, 2, seed=4)

    def test_deterministic(self):
        a = make_synthetic_dataset("gaussian-blobs", 4, 3, 2, seed=5)
        b = make_synthetic_dataset("gaussian-blobs", 4, 3, 2, seed=5)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.points, cb.points)


class TestEstimatorStudy:
    def test_error_shrinks_with_k(self):
        study = run_estimator_study(k_grid=(1, 100), replicates=40, seed=0)
        assert study.mean_errors[1] < study.mean_errors[0]

    def test_slope_near_monte_carlo_rate(self):
        study = run_estimator_study(k_grid=(8, 32, 128), replicates=60, seed=1)
        assert -0.75 < study.slope < -0.25

    def test_concentrated_regime_tiny_error_at_k1(self):
        # well-separated points at small t: the posterior is a point mass
        study = run_estimator_study(t=1e-3, k_grid=(1, 2), replicates=10, seed=2, scale=4.0)
        assert study.mean_errors[0] < 1e-8

    def test_error_floor_well_above_oracle_tolerance(self):
        # the study's errors must dominate the 1e-5 gradient-oracle noise
        # floor by a wide margin, or the comparison would be meaningless
        study = run_estimator_study(k_grid=(8, 512), replicates=30, seed=3)
        assert study.mean_errors[-1] > 100 * 1e-5

    def test_reproducible(self):
        a = run_estimator_study(k_grid=(4, 16), replicates=5, seed=4)
        b = run_estimator_study(k_grid=(4, 16), replicates=5, seed=4)
        assert a == b

    def test_instance_is_seeded(self):
        xa, ya = default_study_instance(5, 2, 0.7, seed=10)
        xb, yb = default_study_instance(5, 2, 0.7, seed=10)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_validates_grid(self):
        with pytest.raises(DomainError):
            run_estimator_study(k_grid=(8, 8), replicates=5)
