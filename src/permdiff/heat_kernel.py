"""Heat kernels on R^(d x N) and on the permutation quotient.

The quotient kernel is the sum of Euclidean Gaussian kernels over all N!
relabelings of the second argument. Everything is computed in log domain:
at small times the permutation sum spans hundreds of orders of magnitude.

Two exact cores serve every sum over S_N:

- ``_subset_dp`` gives log Z = log sum_s exp(sum_j C[s(j), j]) and the
  assignment marginals of a batch of N x N log affinities by a dynamic
  program over point subsets (Bellman / Held-Karp), in O(N 2^N) time and
  memory per matrix. The kernel, the transition and marginal densities,
  the exact scores and the training targets use it; their one limit is
  N <= ``DP_CEILING``.
- ``_perm_sums`` and ``_assignment_marginals`` enumerate all N! permutations.
  They stay where a weight is needed for every permutation or a set of
  sampled permutations is given: the exact posterior, the ELBO and the
  swap chain's sample sets. The sums follow the runs of Heap's order and
  are still added left to right. Enumeration stops at N = ``ENUMERATION_CAP``
  (9).

The kernels here, the posterior, the scores and the training targets share
the checked pair (``_checked_pair``), the log affinities -||x_i - y_j||^2 / (4t)
(``_log_affinities``) and the far-point error (``_check_finite_weight``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cloud import (
    as_points,
    check_same_shape,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import CapacityError, DomainError

# Largest N the subset DP accepts: it keeps N 2^(N-1) local weights per
# matrix, 4 MB at N = 16.
DP_CEILING = 16
# Matrices per DP pass are limited so that each pass keeps at most about this
# many weights and temporaries (32 MB); the passes are independent.
_DP_BUDGET = 1 << 22
_NEG_MAX = -np.finfo(float).max


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"time must be positive and finite, got {t}")
    return t


def _log_4pi_t(t: float) -> float:
    """log(4 pi t), also where 4 pi t overflows (t above about 1.4e307)."""
    c = 4.0 * math.pi * t
    return math.log(c) if math.isfinite(c) else math.log(4.0 * math.pi) + math.log(t)


def _checked_pair(x, y, t: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The time t checked, then the (N, d) points of x and y, of one shape."""
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    return px, py, t


def _log_affinities(sq: np.ndarray, t) -> np.ndarray:
    """Log affinities -sq / (4t) of squared distances sq; t broadcasts against sq."""
    with np.errstate(over="ignore"):  # far points at tiny t cost -inf
        return -sq / (4.0 * t)


def _check_finite_weight(none_finite) -> None:
    """Raise DomainError if any of ``none_finite``: every permutation costs -inf.

    Far points at tiny t give log Z = -inf, where the posterior is undefined.
    """
    if np.any(none_finite):
        raise DomainError("no permutation has a finite weight (far points at tiny t)")


def _logsumexp(a, axis: int | None = None):
    """log sum exp(a) over ``axis`` (all axes when None), of real input.

    The formula of ``scipy.special.logsumexp`` (SciPy 1.17), with equal
    results: the m terms equal to the maximum are split out of the shifted
    sum s, giving log1p(s / m) + log(m) + max; where that is not finite
    (an infinite or NaN term, or every term -inf) the result is
    log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axes, keepdims=True)
        is_top = a == top
        m = np.sum(is_top, axis=axes, keepdims=True, dtype=float)
        e = a - top
        np.exp(e, out=e)
        e[is_top] = 0.0
        s = np.sum(e, axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axes, keepdims=True)))
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


# Slots whose sums _perm_sums tabulates over all point tuples before its gather.
_PREFIX_SLOTS = 4


@lru_cache(maxsize=None)
def _prefix_index(n: int) -> np.ndarray:
    """Per row of Heap's order, the flat index in n^k of its first k = min(4, n) points.

    Kept in the smallest integer type that holds it, 16 bits up to n = 9:
    80 KB at n = 8.
    """
    k = min(_PREFIX_SLOTS, n)
    perms = permutation_array(n)
    idx = np.ravel_multi_index(tuple(perms[:, :k].T), (n,) * k)
    idx = idx.astype(np.min_scalar_type(n**k - 1))
    idx.setflags(write=False)
    return idx


def _perm_sums(cost: np.ndarray) -> np.ndarray:
    """Permutation sums of a cost array: (..., N, N) -> (..., N!) in Heap's order.

    Entry k is sum_j cost[..., s(j), j] for the k-th permutation s of
    ``permutation_array``; with log affinities as costs it is that
    permutation's log weight. Raises CapacityError above ``ENUMERATION_CAP``.

    The sums follow the runs of Heap's order, adding the slots left to right
    as a loop over j would: the sums of slots 0..k-1 (k = min(4, N)) are
    tabulated over all N^k point tuples and gathered once, and slot j >= k,
    which holds one point along each aligned run of j! rows, is added to a
    run in one broadcast add.
    """
    n = cost.shape[-1]
    perms = permutation_array(n)
    k = min(_PREFIX_SLOTS, n)
    lead = cost.shape[:-2]
    # Tuples that repeat a point are tabulated but never gathered; their
    # sums may overflow or be NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = cost[..., 0]
        for j in range(1, k):
            prefix = (prefix[..., :, None] + cost[..., None, :, j]).reshape(*lead, -1)
    out = prefix[..., _prefix_index(n)]
    for j in range(k, n):
        out = out.reshape(*lead, -1, math.factorial(j))
        out += cost[..., perms[:: out.shape[-1], j], j][..., None]
    return out.reshape(*lead, -1)


def _assignment_marginals(support: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Assignment marginals P[..., i, j] = sum of probs[..., k] over k with support[..., k, j] = i.

    ``support`` holds K permutations as rows (slot j receives point
    support[k, j]), the full enumeration or MCMC samples alike, shared by
    every row of ``probs`` (..., K). Returns (..., N, N); each row sums to
    the total mass.
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


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple:
    """Index tables of the subsets of {0, .., n-1}, one tuple per size m = 1..n.

    Layer m lists its C(n, m) subsets in increasing bitmask order; L_m is
    its length. Per layer:

    - ``members`` (m, L_m): column T holds the members of subset T, ascending;
    - ``pred`` (m, L_m): the index in layer m - 1 of the subset without
      that member;
    - ``by_pred`` (n - m + 1, L_{m-1}): the flat positions r * L_m + T of
      the (m, L_m) layout, column S holding those whose predecessor is S;
    - ``by_member`` (C(n-1, m-1), n): the same positions, column i holding
      those whose member is i.
    """
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    popcount = bits.sum(axis=1)
    rank = np.zeros(1 << n, dtype=np.intp)
    layers = []
    for m in range(1, n + 1):
        layer = np.flatnonzero(popcount == m)
        members = np.nonzero(bits[layer])[1].reshape(layer.size, m).T.copy()
        pred = rank[layer ^ (1 << members)]
        rank[layer] = np.arange(layer.size)
        by_pred = np.argsort(pred.ravel(), kind="stable").reshape(-1, n - m + 1).T.copy()
        by_member = np.argsort(members.ravel(), kind="stable").reshape(n, -1).T.copy()
        for table in (members, pred, by_pred, by_member):
            table.setflags(write=False)
        layers.append((members, pred, by_pred, by_member))
    return tuple(layers)


def _subset_dp(log_aff: np.ndarray, marginals: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """log Z and assignment marginals of B log-affinity matrices, (B, N, N).

    Z = sum over permutations s of exp(sum_j log_aff[b, s(j), j]): slot j
    takes point s(j). P[b, i, j] is the posterior probability that slot j
    takes point i; rows and columns of P sum to 1. Returns (log Z (B,),
    P (B, N, N)), or (log Z, None) when ``marginals`` is false.

    Forward pass: slots are filled in order, slot m - 1 taking any point not
    yet used, so f[T] = lse_{i in T} (f[T - i] + log_aff[i, |T| - 1]) and
    log Z = f[all]. Each log-sum-exp is shifted by its own maximum. The
    local softmax weights w[T, i] = exp(f[T - i] + log_aff[i, |T| - 1] - f[T])
    are the law of the point in slot |T| - 1 given that slots 0..|T| - 1
    hold T. The backward pass pushes probability from the full set down the
    layers with these weights: the mass a[T] of "slots 0..|T| - 1 hold T"
    equals exp(f[T] + g[T] - log Z), with g the backward DP over the
    remaining slots, and P[i, |T| - 1] sums a[T] w[T, i]. Working with
    weights in [0, 1] keeps P exact where log Z is of the order 1e300 and
    differences of log-domain sums would round away.

    Arrays keep the batch on the last axis, so that every reduction runs
    over the first axis of a gather, as a sequence of vector operations.

    Raises CapacityError above ``DP_CEILING``.
    """
    b, n, _ = log_aff.shape
    if n > DP_CEILING:
        raise CapacityError(
            f"the exact subset DP is limited to N <= {DP_CEILING} (its memory grows as "
            f"N 2^N), got N = {n}; use the MCMC estimator instead"
        )
    rows = max(1, _DP_BUDGET // (n << n))
    if b > rows:
        parts = [_subset_dp(log_aff[i : i + rows], marginals) for i in range(0, b, rows)]
        log_z = np.concatenate([p[0] for p in parts])
        return log_z, np.concatenate([p[1] for p in parts]) if marginals else None
    tables = _subset_tables(n)
    by_slot = np.ascontiguousarray(log_aff.transpose(2, 1, 0))  # [j, i, b] = log_aff[b, i, j]
    f = by_slot[0]  # layer 1: subset {i} is point i in slot 0, with weight 1
    weights = []
    # log(0) = -inf marks a subset no assignment reaches; it is a valid value.
    with np.errstate(divide="ignore", over="ignore"):
        for m in range(2, n + 1):
            members, pred, _, _ = tables[m - 1]
            v = f[pred] + by_slot[m - 1][members]
            # A group of -inf terms gets a finite shift: weights 0, not NaN.
            top = np.maximum(np.maximum.reduce(v), _NEG_MAX)
            e = np.exp(v - top)
            s = np.add.reduce(e)
            f = top + np.log(s)
            if marginals:
                # s >= 1 unless every term is -inf, where the weights are 0.
                weights.append(e / np.maximum(s, 1.0))
    if not marginals:
        return f[0], None
    marg = np.empty((n, n, b))  # [j, i, b] = P[b, i, j]
    mass = 1.0
    for m in range(n, 1, -1):
        _, _, by_pred, by_member = tables[m - 1]
        flow = (mass * weights[m - 2]).reshape(-1, b)
        marg[m - 1] = np.add.reduce(flow[by_member])
        mass = np.add.reduce(flow[by_pred])
    marg[0] = mass
    return f[0], marg.transpose(2, 1, 0)


def _log_kernels(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """Log quotient heat kernels at time t, in one DP pass, of clouds x (B, N, d) to y."""
    n, d = x.shape[-2:]
    log_z, _ = _subset_dp(_log_affinities(pairwise_sq_dists(x, y), t), marginals=False)
    return -(d * n / 2.0) * _log_4pi_t(t) + log_z


def euclid_log_heat_kernel(x, y, t: float) -> float:
    """log of the Gaussian heat kernel: -(dN/2) log(4 pi t) - ||x-y||^2 / (4t)."""
    px, py, t = _checked_pair(x, y, t)
    n, d = px.shape
    sq = float(((px - py) ** 2).sum())
    return -(d * n / 2.0) * _log_4pi_t(t) - sq / (4.0 * t)


def quotient_log_heat_kernel_exact(x, y, t: float) -> float:
    """log sum over all permutations sigma of the Euclidean kernel at (x, sigma(y))."""
    px, py, t = _checked_pair(x, y, t)
    return float(_log_kernels(px[None], py, t)[0])


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
) -> SemigroupResidual:
    """Monte Carlo check of the Chapman-Kolmogorov identity on the quotient.

    The intermediate integral over the quotient equals the Euclidean-measure
    expectation E_{z ~ N(x, 2sI)}[Kq(t, z, y)]: lifting the invariant
    integrand makes every one of the N! orbit copies contribute identically,
    cancelling the 1/N! volume factor. Returns |estimate - Kq(s+t, x, y)|
    and the standard error of the estimate.
    """
    px, py, s = _checked_pair(x, y, s)
    t = _check_time(t)
    if m < 1:
        raise DomainError("sample count m must be >= 1")
    n, d = px.shape
    rng = np.random.default_rng(seed)
    z = px[None, :, :] + math.sqrt(2.0 * s) * rng.standard_normal((m, n, d))
    vals = np.exp(_log_kernels(z, py, t))
    estimate = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(m)) if m > 1 else float("inf")
    exact = math.exp(quotient_log_heat_kernel_exact(px, py, s + t))
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
    ts = [_check_time(t) for t in t_sequence]
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
