"""Point clouds, permutations, and canonical quotient representatives.

A cloud is an ordered array of N points in R^d. Two clouds describe the same
unordered configuration when one is a point-permutation of the other;
``canonicalize`` picks the lexicographically sorted representative so that
equality on representatives is equality of configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError, DomainError, ShapeMismatchError

# Largest N where all N! permutations are enumerated (the exact posterior,
# the ELBO): 9! = 362880 terms keeps a single enumeration around a second.
# The subset DP behind the exact kernels and scores is limited only by
# heat_kernel.DP_CEILING.
ENUMERATION_CAP = 9


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered representative: N points, each a d-vector, all finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ShapeMismatchError(
                f"expected an (n, d) array with n, d >= 1, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise DomainError("point cloud entries must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"PointCloud(n={self.n}, d={self.d})"


def as_points(cloud) -> np.ndarray:
    """Coerce a PointCloud or array-like to an (n, d) array."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud(np.asarray(cloud, dtype=float)).points


def check_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ShapeMismatchError(f"cloud shapes differ: {x.shape} vs {y.shape}")


@dataclass(frozen=True)
class Permutation:
    """A bijection sigma on {0, .., n-1}.

    ``mapping[i] = sigma(i)``. The action on clouds places point i at output
    slot sigma(i), i.e. output slot j receives point sigma^{-1}(j).
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.mapping)
        n = len(m)
        if n < 1 or sorted(m) != list(range(n)):
            raise DomainError(f"mapping {m} is not a bijection on 0..{n - 1}")
        object.__setattr__(self, "mapping", m)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.mapping, dtype=np.intp)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Permutation(tuple(inv))


def apply(sigma: Permutation, cloud) -> PointCloud:
    """Permute a cloud: output slot j holds input point sigma^{-1}(j)."""
    pts = as_points(cloud)
    if sigma.n != pts.shape[0]:
        raise ShapeMismatchError(
            f"permutation size {sigma.n} does not match cloud with {pts.shape[0]} points"
        )
    out = np.empty_like(pts)
    out[sigma.as_array()] = pts
    return PointCloud(out)


def canonicalize(cloud) -> PointCloud:
    """Sort points lexicographically; the result is permutation-invariant."""
    pts = as_points(cloud)
    order = np.lexsort(pts.T[::-1])
    return PointCloud(pts[order])


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances D[..., i, j] = ||x_i - y_j||^2, broadcast over leading axes.

    A distance beyond the largest float is inf, without a warning.
    """
    with np.errstate(over="ignore"):
        diff = x[..., :, None, :] - y[..., None, :, :]
        return np.einsum("...ijk,...ijk->...ij", diff, diff)


def orbit_distance(x, y) -> float:
    """Distance between configurations: min over permutations of ||x - sigma(y)||.

    Solved as a minimum-cost assignment on squared distances; the minimizing
    permutation of a sum of per-pair squared distances is an assignment.
    """
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    cost = pairwise_sq_dists(px, py)
    slot_of = np.argsort(_assignment(cost))  # the sum runs point by point
    return math.sqrt(float(cost[np.arange(px.shape[0]), slot_of].sum()))


def min_cost_assignment(x, y) -> Permutation:
    """The permutation sigma minimizing ||x - sigma(y)||.

    Returned in the action convention above: y-slot j is matched with point
    x_{sigma(j)}.
    """
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    return Permutation(tuple(_assignment(pairwise_sq_dists(px, py)).tolist()))


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The permutations s minimizing sum_j cost[..., s(j), j] of costs (..., N, N), as (..., N).

    On squared distances these are the most probable assignments, where the
    MCMC chains start. scipy.optimize is imported on the first call, so that
    importing the package loads numpy alone.
    """
    from scipy.optimize import linear_sum_assignment

    mapping = np.empty(cost.shape[:-1], dtype=np.intp)
    for s, matrix in zip(mapping.reshape(-1, cost.shape[-1]), cost.reshape(-1, *cost.shape[-2:])):
        rows, cols = linear_sum_assignment(matrix)
        s[cols] = rows
    return mapping


def iter_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of 0..n-1 in Heap's order (fixed, deterministic)."""
    a = list(range(n))
    yield tuple(a)
    c = [0] * n
    i = 0
    while i < n:
        if c[i] < i:
            if i % 2 == 0:
                a[0], a[i] = a[i], a[0]
            else:
                a[c[i]], a[i] = a[i], a[c[i]]
            yield tuple(a)
            c[i] += 1
            i = 0
        else:
            c[i] = 0
            i += 1


@lru_cache(maxsize=None)
def permutation_array(n: int) -> np.ndarray:
    """``iter_permutations(n)`` as a read-only (n!, n) index array, cached per n.

    Raises CapacityError above ``ENUMERATION_CAP``, on every call and before
    any work; callers wanting larger N should switch to the MCMC estimators.

    The table is built from the (n - 1) table. Heap's order is n blocks of
    (n - 1)! rows. Block c keeps the last entry of its start state in
    position n - 1 and runs the first n - 1 entries through the order of the
    (n - 1) table. The next block starts from the block's last row with
    position n - 1 exchanged with position 0 (n odd) or c (n even).
    """
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exact evaluation over all {n}! permutations exceeds the cap of "
            f"N <= {ENUMERATION_CAP}; use the MCMC estimator instead"
        )
    if n <= 1:
        arr = np.zeros((1, n), dtype=np.intp)
    else:
        sub = permutation_array(n - 1)
        arr = np.empty((math.factorial(n), n), dtype=np.intp)
        state = np.arange(n)
        for c, block in enumerate(arr.reshape(n, -1, n)):
            block[:, :-1] = state[sub]
            block[:, -1] = state[-1]
            state = block[-1].copy()
            j = 0 if n % 2 else c
            state[j], state[-1] = state[-1], state[j]
    arr.setflags(write=False)
    return arr
