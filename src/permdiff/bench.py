"""Experiment harness: estimator-accuracy studies and toy generation metrics.

Generated clouds live on the quotient, so quality is scored only through
permutation-invariant functionals (sorted pairwise distances, sorted
per-coordinate marginals) compared by an energy-distance two-sample test
with a permutation-derived threshold.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cloud import PointCloud, as_points, canonicalize
from .errors import DomainError
from .heat_kernel import _check_time
from .ou_sde import NoiseSchedule
from .perm_mcmc import McmcConfig
from .quotient_score import symmetrized_score_exact, symmetrized_score_mcmc
from .score_model import TrainConfig, train, sample_from_model

DATASET_KINDS = ("gaussian-blobs", "ring", "jittered-template")

# scipy.spatial is imported inside the two functions that use it, so that
# importing the package, and with it the CLI, loads numpy alone.


def sorted_pairwise_distances(cloud) -> np.ndarray:
    """The N(N-1)/2 pairwise distances in increasing order (orbit-invariant)."""
    from scipy.spatial.distance import pdist

    return np.sort(pdist(as_points(cloud)))


def sorted_coordinates(cloud) -> np.ndarray:
    """Each coordinate column sorted, flattened (orbit-invariant)."""
    return np.sort(as_points(cloud), axis=0).ravel()


def cloud_features(cloud) -> np.ndarray:
    return np.concatenate([sorted_pairwise_distances(cloud), sorted_coordinates(cloud)])


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample energy statistic 2 E|A-B| - E|A-A'| - E|B-B'| on feature rows."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    pooled = np.vstack([a, b])
    dist = _distance_matrix(pooled)
    return _energy_from_matrix(dist, np.arange(len(a)), np.arange(len(a), len(pooled)))


def _distance_matrix(rows: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows, as a square matrix."""
    from scipy.spatial.distance import pdist, squareform

    return squareform(pdist(rows))


def _energy_from_matrix(dist, idx_a, idx_b) -> float:
    na, nb = len(idx_a), len(idx_b)
    d_ab = dist[np.ix_(idx_a, idx_b)].mean()
    d_aa = dist[np.ix_(idx_a, idx_a)].sum() / (na * (na - 1)) if na > 1 else 0.0
    d_bb = dist[np.ix_(idx_b, idx_b)].sum() / (nb * (nb - 1)) if nb > 1 else 0.0
    return float(2.0 * d_ab - d_aa - d_bb)


def energy_permutation_test(
    a: np.ndarray, b: np.ndarray, n_shuffles: int = 1000, seed: int = 0
) -> tuple[float, float]:
    """Observed energy distance and its label-permutation p-value.

    The shuffle statistics are computed from one pooled distance matrix via
    indicator matvecs, so a thousand shuffles cost a single matrix product.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise DomainError("need at least two feature rows per sample")
    if n_shuffles < 1:
        raise DomainError(f"need at least one shuffle, got {n_shuffles}")
    pooled = np.vstack([a, b])
    p = na + nb
    dist = _distance_matrix(pooled)
    if not np.isfinite(dist).all():
        raise DomainError("feature distances overflow; the energy test needs finite ones")
    row_sums = dist.sum(axis=1)
    total = row_sums.sum()

    rng = np.random.default_rng(seed)
    indicators = np.zeros((p, n_shuffles + 1))
    indicators[:na, 0] = 1.0
    for k in range(1, n_shuffles + 1):
        indicators[rng.permutation(p)[:na], k] = 1.0
    du = dist @ indicators
    s_aa = (indicators * du).sum(axis=0)
    s_a_all = (indicators * row_sums[:, None]).sum(axis=0)
    s_ab = s_a_all - s_aa
    s_bb = total - 2.0 * s_a_all + s_aa
    stats = (
        2.0 * s_ab / (na * nb)
        - s_aa / (na * (na - 1))
        - s_bb / (nb * (nb - 1))
    )
    observed = float(stats[0])
    p_value = float((1 + (stats[1:] >= observed).sum()) / (n_shuffles + 1))
    return observed, p_value


def make_synthetic_dataset(
    kind: str,
    n_items: int,
    n_points: int,
    dim: int,
    seed: int,
    jitter: float = 0.05,
    radius: float = 1.0,
    blob_std: float = 0.1,
) -> list[PointCloud]:
    """Generate canonicalized toy clouds.

    gaussian-blobs: one canonicalized set of blob centers per dataset; each
    item adds N(0, blob_std^2) noise per point.
    ring: n_points equally spaced on a circle of given radius in the first
    two coordinates, randomly rotated per item, plus jitter.
    jittered-template: one fixed random template plus N(0, jitter^2) noise.
    """
    if kind not in DATASET_KINDS:
        raise DomainError(f"unknown dataset kind {kind!r}; choose from {DATASET_KINDS}")
    if n_items < 1 or n_points < 1 or dim < 1:
        raise DomainError("n_items, n_points, and dim must all be >= 1")
    if not all(map(math.isfinite, (jitter, radius, blob_std))):
        raise DomainError(
            f"jitter, radius and blob_std must be finite, got {jitter}, {radius} and {blob_std}"
        )
    rng = np.random.default_rng(seed)
    items = []
    # Huge settings overflow without a warning; canonicalize refuses the
    # non-finite points.
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "gaussian-blobs":
            centers = canonicalize(rng.standard_normal((n_points, dim))).points
            for _ in range(n_items):
                items.append(centers + blob_std * rng.standard_normal(centers.shape))
        elif kind == "ring":
            if dim < 2:
                raise DomainError("ring datasets need dim >= 2")
            angles = 2.0 * math.pi * np.arange(n_points) / n_points
            base = np.zeros((n_points, dim))
            base[:, 0] = radius * np.cos(angles)
            base[:, 1] = radius * np.sin(angles)
            for _ in range(n_items):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                rot = base.copy()
                c, s = math.cos(theta), math.sin(theta)
                rot[:, 0] = c * base[:, 0] - s * base[:, 1]
                rot[:, 1] = s * base[:, 0] + c * base[:, 1]
                items.append(rot + jitter * rng.standard_normal(rot.shape))
        else:  # jittered-template
            template = rng.standard_normal((n_points, dim))
            for _ in range(n_items):
                items.append(template + jitter * rng.standard_normal(template.shape))
    return [canonicalize(pts) for pts in items]


@dataclass(frozen=True)
class EstimatorStudy:
    """Per-K accuracy of the MCMC score against the enumerated score."""

    n: int
    d: int
    t: float
    seed: int
    k_grid: tuple[int, ...]
    replicates: int
    mean_errors: tuple[float, ...]
    slope: float

    def to_dict(self) -> dict:
        return {"schema": "permdiff/estimator-study/v1", **asdict(self)}


def default_study_instance(n: int, d: int, t: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A reproducible (x, y) pair: y is a shuffle of x noised at time t."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = x[rng.permutation(n)] + math.sqrt(2.0 * t) * rng.standard_normal((n, d))
    return x, y


def run_estimator_study(
    n: int = 5,
    d: int = 2,
    t: float = 0.7,
    seed: int = 0,
    k_grid: tuple[int, ...] = (8, 32, 128, 512),
    replicates: int = 100,
) -> EstimatorStudy:
    """Mean L2 error of the MCMC score per K against the exact one, with a log-log slope."""
    _check_time(t)
    if n < 2:  # at n = 1 the MCMC score is exact: a slope would fit rounding noise
        raise DomainError(f"the estimator study needs n >= 2 points, got n = {n}")
    if len(k_grid) < 2 or list(k_grid) != sorted(set(k_grid)) or min(k_grid) < 1:
        raise DomainError("k_grid must be two or more strictly increasing positive integers")
    if replicates < 2:
        raise DomainError("need at least two replicates")
    x, y = default_study_instance(n, d, t, seed)
    exact = symmetrized_score_exact(x, y, t)
    children = np.random.SeedSequence(seed).spawn(len(k_grid) * replicates)
    errors = np.empty((len(k_grid), replicates))
    for ki, k in enumerate(k_grid):
        for r in range(replicates):
            child = children[ki * replicates + r]
            cfg = McmcConfig(k=int(k), seed=int(child.generate_state(1)[0]))
            est = symmetrized_score_mcmc(x, y, t, cfg)
            errors[ki, r] = np.linalg.norm(est - exact)
    mean_errors = errors.mean(axis=1)
    # exactly-zero errors (point-mass posteriors) would break the log fit
    slope = float(
        np.polyfit(
            np.log(np.asarray(k_grid, float)), np.log(np.maximum(mean_errors, 1e-300)), 1
        )[0]
    )
    return EstimatorStudy(
        n=n,
        d=d,
        t=t,
        seed=seed,
        k_grid=tuple(int(k) for k in k_grid),
        replicates=replicates,
        mean_errors=tuple(float(e) for e in mean_errors),
        slope=slope,
    )


@dataclass(frozen=True)
class GenReport:
    """Two-sample comparison of generated clouds against held-out data."""

    sample_count: int
    reference_count: int
    energy_distance: float
    p_value: float
    trained: bool
    distance_summary: dict = field(default_factory=dict)
    coordinate_summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema": "permdiff/gen-report/v1", **asdict(self)}


def _feature_summary(features: np.ndarray) -> dict:
    return {
        "mean": np.mean(features, axis=0).tolist(),
        "std": np.std(features, axis=0).tolist(),
    }


def generation_report(
    samples,
    reference,
    n_shuffles: int = 1000,
    seed: int = 0,
    trained: bool = True,
) -> GenReport:
    """Score generated clouds against reference clouds.

    The test statistic is the energy distance between sorted
    pairwise-distance vectors; sorted coordinate marginals are reported as
    summaries alongside.
    """
    dist_s = np.stack([sorted_pairwise_distances(c) for c in samples])
    dist_r = np.stack([sorted_pairwise_distances(c) for c in reference])
    stat, p_value = energy_permutation_test(dist_s, dist_r, n_shuffles, seed)
    coord_s = np.stack([sorted_coordinates(c) for c in samples])
    return GenReport(
        sample_count=len(dist_s),
        reference_count=len(dist_r),
        energy_distance=stat,
        p_value=p_value,
        trained=trained,
        distance_summary=_feature_summary(dist_s),
        coordinate_summary=_feature_summary(coord_s),
    )


def run_toy_generation(
    dataset: list[PointCloud],
    train_cfg: TrainConfig,
    schedule: NoiseSchedule,
    n_samples: int = 256,
    n_reference: int = 256,
    n_shuffles: int = 1000,
    seed: int = 0,
    do_train: bool = True,
) -> GenReport:
    """Train (optionally), sample, and compare against held-out data.

    With ``do_train=False`` the freshly initialized network (zero output,
    hence zero score) is sampled instead: the negative control.
    """
    if min(n_samples, n_reference) < 2 or n_shuffles < 1:
        raise DomainError(
            f"need at least two samples, two reference clouds and one shuffle, got "
            f"{n_samples}, {n_reference} and {n_shuffles}"
        )
    if len(dataset) < n_reference + 2:
        raise DomainError("dataset too small for the requested reference split")
    reference = dataset[:n_reference]
    train_split = dataset[n_reference:]
    ckpt = train(train_split, train_cfg if do_train else replace(train_cfg, iterations=0))
    samples = sample_from_model(ckpt, n_samples, schedule, seed=seed + 1)
    return generation_report(samples, reference, n_shuffles, seed, trained=do_train)

