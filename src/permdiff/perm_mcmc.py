"""The posterior over permutations q(sigma | x, y, t) and its samplers.

q(sigma) is the softmax over S_N of I(sigma) = -||x - sigma(y)||^2 / (4t),
the soft assignment of noised points to clean points. Exact normalization
enumerates all N! permutations; above the cap a Metropolis-Hastings chain
over transpositions samples q without ever normalizing it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .cloud import (
    ENUMERATION_CAP,
    Permutation,
    as_points,
    check_same_shape,
    min_cost_assignment,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import DomainError
from .heat_kernel import _assignment_marginals, _check_time, _perm_sums

EXACT = "exact"
EMPIRICAL = "empirical"


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Log-affinities entries[i, j] = -||x_i - y_j||^2 / (4t), all <= 0."""

    entries: np.ndarray
    t: float


def cost_matrix(x, y, t: float) -> CostMatrix:
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    entries = -pairwise_sq_dists(px, py) / (4.0 * t)
    entries.setflags(write=False)
    return CostMatrix(entries, t)


def log_weight(sigma: Permutation, x, y, t: float) -> float:
    """I(sigma) = -||x - sigma(y)||^2 / (4t), the unnormalized log posterior.

    Equals the cost-matrix trace sum_j C[sigma(j), j]; both code paths are
    cross-checked in tests.
    """
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    permuted = np.empty_like(py)
    permuted[sigma.as_array()] = py
    return -float(((px - permuted) ** 2).sum()) / (4.0 * t)


@dataclass(frozen=True, eq=False)
class PermDistribution:
    """A distribution over S_N: exact (all N!, normalized) or empirical samples.

    ``support[k, j]`` is the point index matched to slot j under the k-th
    permutation; ``log_weights`` are normalized log probabilities (exact mode)
    or the uniform -log K over retained samples (empirical mode).
    """

    support: np.ndarray
    log_weights: np.ndarray
    mode: str

    def __post_init__(self):
        self.support.setflags(write=False)
        self.log_weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.support.shape[1]

    def __len__(self) -> int:
        return self.support.shape[0]

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def assignment_marginal(self) -> np.ndarray:
        """Matrix P[i, j] = probability that point i occupies slot j.

        Every row is a distribution over slots.
        """
        return _assignment_marginals(self.support, self.probabilities())

    def mean_matched_points(self, x) -> np.ndarray:
        """Posterior-mean point matched to each slot: row j = E[x_{sigma(j)}]."""
        px = as_points(x)
        return self.assignment_marginal().T @ px


def exact_from_log_weights(
    n: int, raw_log_weights: np.ndarray, cap: int = ENUMERATION_CAP
) -> PermDistribution:
    """Normalize raw log weights over the canonical enumeration of S_n."""
    lw = np.asarray(raw_log_weights, dtype=float)
    if lw.shape != (math.factorial(n),):
        raise DomainError(
            f"expected {math.factorial(n)} log weights for S_{n}, got {lw.shape}"
        )
    lw = lw - logsumexp(lw)
    return PermDistribution(permutation_array(n, cap).copy(), lw, EXACT)


def posterior_exact(x, y, t: float, cap: int = ENUMERATION_CAP) -> PermDistribution:
    """The normalized posterior over all of S_N by enumeration."""
    entries = cost_matrix(x, y, t).entries
    return exact_from_log_weights(entries.shape[0], _perm_sums(entries, cap), cap)


@dataclass(frozen=True)
class McmcConfig:
    """Chain parameters. ``burn_in`` and ``thinning`` default to 50N and N."""

    k: int = 32
    burn_in: int | None = None
    thinning: int | None = None
    seed: int = 0
    always_accept: bool = False  # ablation only; does not target q

    def resolve(self, n: int) -> tuple[int, int, int]:
        burn_in = 50 * n if self.burn_in is None else self.burn_in
        thinning = n if self.thinning is None else self.thinning
        if self.k < 1:
            raise DomainError("retained sample count k must be >= 1")
        if burn_in < 0 or thinning < 1:
            raise DomainError("need burn_in >= 0 and thinning >= 1")
        return burn_in, thinning, self.k


@dataclass(frozen=True)
class McmcDiagnostics:
    acceptance_rate: float
    proposal_count: int
    unique_states: int


_UNIFORM_BLOCK = 1 << 15


def _log_add(u: float, v: float) -> float:
    return max(u, v) + math.log1p(math.exp(-abs(u - v)))


def _accept_log_domain(neg_log_i, neg_log_j, a: int, b: int, u2: float) -> bool:
    """The test u2 < R of ``mcmc_sample`` from negated log row probabilities."""
    log_r = _log_add(neg_log_i[a], neg_log_j[b]) - _log_add(neg_log_i[b], neg_log_j[a])
    return log_r >= 0.0 or u2 < math.exp(log_r)


def mcmc_sample(x, y, t: float, cfg: McmcConfig) -> tuple[PermDistribution, McmcDiagnostics]:
    """Sample the permutation posterior with the swap-proposal chain.

    The chain starts at the most probable assignment (``min_cost_assignment``).
    One step from sigma: draw a point i uniformly, draw a slot b from the
    categorical law p_i proportional to exp(C[i, :]), take as partner the
    point j = sigma(b) that currently occupies b, and propose exchanging the
    slots of i and j, so that i moves to b and j to i's slot a. The partner
    depends on the current state, so the proposal is not symmetric: the
    exchange is proposed with probability (p_i[b] + p_j[a]) / N (from either
    point of the pair) and its inverse with (p_i[a] + p_j[b]) / N. The
    Metropolis-Hastings acceptance is min(1, R) with

        R = exp(I(sigma') - I(sigma)) (p_i[a] + p_j[b]) / (p_i[b] + p_j[a])
          = (1/p_i[a] + 1/p_j[b]) / (1/p_i[b] + 1/p_j[a]),

    the second form because the row normalizers cancel. The chain evaluates
    it from a table of inverse row probabilities (no exp per step), in the
    log domain when an entry of that table overflows at small t.
    Detailed balance is verified exhaustively in tests. b = a proposes the
    identity move and counts as accepted. ``always_accept`` accepts every
    proposal (an ablation whose chain does not target q).
    """
    entries = cost_matrix(x, y, t).entries
    n = entries.shape[0]
    burn_in, thinning, k = cfg.resolve(n)

    # Per-row tables, O(N^2) setup: cumulative probabilities for the slot
    # draw (O(log N) per step), and the negated log probabilities and their
    # exponentials (inverse probabilities, inf where they overflow) for R.
    row_log_probs = entries - logsumexp(entries, axis=1)[:, None]
    row_cum = np.cumsum(np.exp(row_log_probs), axis=1)
    row_cum[:, -1] = 1.0
    cum_list = [row.tolist() for row in row_cum]
    neg_log = (-row_log_probs).tolist()
    with np.errstate(over="ignore"):
        inv = np.exp(-row_log_probs).tolist()

    rng = np.random.default_rng(cfg.seed)
    # Start at the mode: at small t a chain started elsewhere can settle in
    # a local mode that no single transposition leaves.
    sigma = list(min_cost_assignment(x, y).mapping)  # sigma[slot] = point index
    slot_of = [0] * n  # slot_of[point] = slot
    for slot, point in enumerate(sigma):
        slot_of[point] = slot
    total = burn_in + thinning * k
    accepted = 0
    samples: list[tuple[int, ...]] = []
    always = cfg.always_accept

    inf = math.inf
    done = 0
    next_record = burn_in + thinning
    while done < total:
        block = min(_UNIFORM_BLOCK, total - done)
        u = rng.random((block, 3)).tolist()
        for u0, u1, u2 in u:
            i = int(u0 * n)
            b = bisect_right(cum_list[i], u1)
            if b >= n:
                b = n - 1
            a = slot_of[i]
            if a == b:
                accepted += 1
            else:
                j = sigma[b]
                inv_i, inv_j = inv[i], inv[j]
                den = inv_i[b] + inv_j[a]
                if den == inf:
                    ok = _accept_log_domain(neg_log[i], neg_log[j], a, b, u2)
                else:
                    ok = u2 * den < inv_i[a] + inv_j[b]
                if always or ok:
                    sigma[a] = j
                    sigma[b] = i
                    slot_of[i] = b
                    slot_of[j] = a
                    accepted += 1
            done += 1
            if done == next_record:
                samples.append(tuple(sigma))
                next_record += thinning

    support = np.asarray(samples, dtype=np.intp)
    log_weights = np.full(k, -math.log(k))
    dist = PermDistribution(support, log_weights, EMPIRICAL)
    diag = McmcDiagnostics(
        acceptance_rate=accepted / total if total else 1.0,
        proposal_count=total,
        unique_states=len(set(samples)),
    )
    return dist, diag
