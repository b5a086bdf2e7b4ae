"""Heat kernels on R^(d x N) and on the permutation quotient.

The quotient kernel is the sum of Euclidean Gaussian kernels over all N!
relabelings of the second argument. Everything is computed in log domain:
at small times the permutation sum spans hundreds of orders of magnitude.

``_perm_sums`` and ``_assignment_marginals`` are the package's one exact
core over S_N: the kernel, the transition density, the exact posterior, the
ELBO, the exact scores and training targets all get their permutation sums
and assignment marginals from these two functions.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from .cloud import (
    ENUMERATION_CAP,
    as_points,
    check_same_shape,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import DomainError


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"time must be positive and finite, got {t}")
    return t


def _perm_sums(cost: np.ndarray, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Permutation sums of a cost array: (..., N, N) -> (..., N!) in Heap's order.

    Entry k is sum_j cost[..., s(j), j] for the k-th permutation s of
    ``permutation_array``; with log affinities as costs it is that
    permutation's log weight. Raises CapacityError above ``cap``.
    """
    n = cost.shape[-1]
    perms = permutation_array(n, cap)
    # One (..., N!) gather per slot keeps memory at the size of the output.
    out = cost[..., perms[:, 0], 0]
    for j in range(1, n):
        out += cost[..., perms[:, j], j]
    return out


def _assignment_marginals(support: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Assignment marginals P[..., i, j] = sum of probs[..., k] over k with support[k, j] = i.

    ``support`` holds K permutations as rows (slot j receives point
    support[k, j]), the full enumeration or MCMC samples alike; ``probs``
    is (..., K). Returns (..., N, N); each row sums to the total mass.
    """
    k, n = support.shape
    probs = np.asarray(probs, dtype=float)
    rows = probs.reshape(-1, k)
    m = rows.shape[0]
    offsets = n * np.arange(m)[:, None]
    marg = np.empty((m, n, n))
    for j in range(n):
        bins = (offsets + support[:, j]).ravel()
        marg[:, :, j] = np.bincount(bins, rows.ravel(), minlength=m * n).reshape(m, n)
    return marg.reshape(*probs.shape[:-1], n, n)


def euclid_log_heat_kernel(x, y, t: float) -> float:
    """log of the Gaussian heat kernel: -(dN/2) log(4 pi t) - ||x-y||^2 / (4t)."""
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    n, d = px.shape
    sq = float(((px - py) ** 2).sum())
    return -(d * n / 2.0) * math.log(4.0 * math.pi * t) - sq / (4.0 * t)


def quotient_log_kernel_terms(x, y, t: float, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Per-permutation log summands, one per element of S_N in Heap's order.

    The term count is exactly N!; tests assert this to guard double counting.
    """
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    n, d = px.shape
    terms = _perm_sums(-pairwise_sq_dists(px, py) / (4.0 * t), cap)
    return -(d * n / 2.0) * math.log(4.0 * math.pi * t) + terms


def quotient_log_heat_kernel_exact(x, y, t: float, cap: int = ENUMERATION_CAP) -> float:
    """log sum over all permutations sigma of the Euclidean kernel at (x, sigma(y))."""
    return float(logsumexp(quotient_log_kernel_terms(x, y, t, cap)))


class SemigroupResidual(NamedTuple):
    residual: float
    std_error: float


def quotient_kernel_semigroup_residual(
    x,
    y,
    s: float,
    t: float,
    m: int,
    seed: int,
    cap: int = ENUMERATION_CAP,
) -> SemigroupResidual:
    """Monte Carlo check of the Chapman-Kolmogorov identity on the quotient.

    The intermediate integral over the quotient equals the Euclidean-measure
    expectation E_{z ~ N(x, 2sI)}[Kq(t, z, y)]: lifting the invariant
    integrand makes every one of the N! orbit copies contribute identically,
    cancelling the 1/N! volume factor. Returns |estimate - Kq(s+t, x, y)|
    and the standard error of the estimate.
    """
    s = _check_time(s)
    t = _check_time(t)
    if m < 1:
        raise DomainError("sample count m must be >= 1")
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    n, d = px.shape
    rng = np.random.default_rng(seed)
    z = px[None, :, :] + math.sqrt(2.0 * s) * rng.standard_normal((m, n, d))
    terms = _perm_sums(-pairwise_sq_dists(z, py) / (4.0 * t), cap)
    log_vals = -(d * n / 2.0) * math.log(4.0 * math.pi * t) + logsumexp(terms, axis=1)
    vals = np.exp(log_vals)
    estimate = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(m)) if m > 1 else float("inf")
    exact = math.exp(quotient_log_heat_kernel_exact(px, py, s + t, cap))
    return SemigroupResidual(abs(estimate - exact), std_error)


def initial_condition_check(
    f: Callable[[np.ndarray], float],
    x,
    t_sequence: Sequence[float],
    m: int,
    seed: int,
) -> list[float]:
    """Estimates of the kernel smoothing of f at x for each time in sequence.

    ``f`` must be a bounded permutation-invariant function of an (n, d)
    array. Smoothing with the quotient kernel of an invariant function
    reduces to the Euclidean expectation E_{z ~ N(x, 2tI)}[f(z)], which is
    what is sampled here. As t decreases toward 0 the estimates converge
    to f(x).
    """
    px = as_points(x)
    ts = [float(t) for t in t_sequence]
    if any(t <= 0 for t in ts):
        raise DomainError("all times must be positive")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise DomainError("t_sequence must be strictly decreasing")
    if m < 1:
        raise DomainError("sample count m must be >= 1")
    rng = np.random.default_rng(seed)
    estimates = []
    for t in ts:
        z = px[None, :, :] + math.sqrt(2.0 * t) * rng.standard_normal((m, *px.shape))
        vals = [float(f(z[k])) for k in range(m)]
        estimates.append(float(np.mean(vals)))
    return estimates
