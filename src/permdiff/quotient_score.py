"""Permutation-symmetrized score functions and the variational identities.

The gradient of the log quotient kernel in its noised argument is the
posterior expectation over permutations of per-permutation Gaussian scores
(the mixture-score identity). The exact scores and training targets take
the assignment marginals P from the subset DP of ``heat_kernel``
(O(N 2^N), N <= 16) and return (P^T x - y) / (2t); the ELBO, which needs
every permutation's weight, enumerates S_N. The MCMC query averages
per-permutation scores over swap-chain samples; the MCMC transition scores
(the training targets) take Rao-Blackwellised marginals from block-Gibbs
chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import (
    Permutation,
    _assignment,
    as_points,
    check_same_shape,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import DomainError
from .heat_kernel import (
    _check_finite_weight,
    _checked_pair,
    _log_affinities,
    _logsumexp,
    _perm_sums,
    _subset_dp,
)
from .ou_sde import ou_coefficients
from .perm_mcmc import EXACT, McmcConfig, PermDistribution, _block_gibbs, cost_matrix, mcmc_sample


def per_perm_score(sigma: Permutation, x, y, t: float) -> np.ndarray:
    """Gradient of I(sigma) in y: row j equals (x_{sigma(j)} - y_j) / (2t).

    This is the plain Gaussian score that pairs slot j with point sigma(j).
    """
    px, py, t = _checked_pair(x, y, t)
    return (px[sigma.as_array()] - py) / (2.0 * t)


def _marginal_scores(marg: np.ndarray, x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    """Symmetrized scores (P^T x - y) / (2t) of assignment marginals P = marg.

    marg[..., i, j] is the probability that slot j holds point i, x and y are
    (..., N, d), and t broadcasts against them.
    """
    with np.errstate(over="ignore"):  # 2t overflows to inf near the largest float
        return (np.swapaxes(marg, -1, -2) @ x - y) / (2.0 * t)


def _exact_scores(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact symmetrized scores (P^T x - y) / (2t) of B pairs: x, y (B, N, d), t (B,).

    P is the posterior assignment marginal over all of S_N, from the subset
    DP of the cost matrices -||x_i - y_j||^2 / (4t). Raises DomainError when
    no permutation of a pair has a finite weight (log Z = -inf: far points
    at tiny t), where P is undefined.
    """
    t = t[:, None, None]
    log_z, marg = _subset_dp(_log_affinities(pairwise_sq_dists(x, y), t))
    _check_finite_weight(np.isneginf(log_z))
    return _marginal_scores(marg, x, y, t)


def symmetrized_score_exact(x, y, t: float) -> np.ndarray:
    """Posterior-weighted mean of per-permutation scores over all of S_N.

    Equals the gradient of the exact log quotient kernel in y.
    """
    px, py, t = _checked_pair(x, y, t)
    return _exact_scores(px[None], py[None], np.array([t]))[0]


def symmetrized_score_mcmc(
    x,
    y,
    t: float,
    cfg: McmcConfig,
    with_diagnostics: bool = False,
):
    """Sample mean of per-permutation scores over MCMC posterior samples."""
    px, py, t = _checked_pair(x, y, t)
    dist, diag = mcmc_sample(px, py, t, cfg)
    score = _marginal_scores(dist.assignment_marginal(), px, py, t)
    if with_diagnostics:
        return score, diag
    return score


def _ou_triples(x0_batch, y_batch, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked triples x0, y (B, N, d), t (B,) as heat-kernel arguments (decay * x0, y, tau).

    The transition N(decay * x0, (1 - e^{-t}) I) is the heat kernel at
    tau = (1 - e^{-t}) / 2, so its symmetrized score is the kernel's.
    """
    xb = np.asarray(x0_batch, dtype=float)
    yb = np.asarray(y_batch, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if xb.shape != yb.shape or xb.ndim != 3 or ts.shape != (xb.shape[0],):
        raise DomainError("expected (B, n, d) clouds with matching (B,) times")
    decay, variance = ou_coefficients(ts)
    tau = variance / 2.0
    # tau > 0 rejects t <= 0 and NaN, and t so small that tau underflows.
    if not np.all(np.isfinite(ts) & (tau > 0.0)):
        raise DomainError("times must be positive and finite")
    return decay[:, None, None] * xb, yb, tau


def ou_conditional_score_exact(x0, y, t: float) -> np.ndarray:
    """Gradient in y of the log symmetrized forward-transition density from x0 (a batch of 1)."""
    px, py = as_points(x0), as_points(y)
    check_same_shape(px, py)
    return ou_conditional_scores_batch(px[None], py[None], [t])[0]


def ou_conditional_score_mcmc(x0, y, t: float, cfg: McmcConfig) -> np.ndarray:
    """``ou_conditional_scores_mcmc`` of one triple, on seed ``cfg.seed``."""
    px, py = as_points(x0), as_points(y)
    check_same_shape(px, py)
    return ou_conditional_scores_mcmc(px[None], py[None], [t], [cfg.seed], cfg.k)[0]


def ou_conditional_scores_batch(x0_batch: np.ndarray, y_batch: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Exact conditional scores for a batch of (x0, y, t) triples at once.

    One pass of the exact score core at (decay * x0, y, tau) for all B
    triples.
    """
    return _exact_scores(*_ou_triples(x0_batch, y_batch, ts))


def ou_conditional_scores_mcmc(
    x0_batch: np.ndarray,
    y_batch: np.ndarray,
    ts: np.ndarray,
    seeds,
    k: int,
) -> np.ndarray:
    """MCMC conditional scores for a batch of (x0, y, t) triples in one call.

    Row r is (P^T x - y) / (2 tau) at x = decay * x0, with P the
    Rao-Blackwellised assignment marginals of ``ceil(k / 8)`` block-Gibbs
    chains at (x, y, tau) on seed seeds[r], started at the most probable
    assignment (``perm_mcmc._block_gibbs``). The B targets step together in
    one call, and row r equals the lone call on seed seeds[r].

    The targets are biased, and the bias does not shrink with k: every
    chain starts at the most probable assignment and makes one burn-in
    sweep whatever k is. At N = 8, t = 5 the RMS score error over the
    K^-1/2 error of i.i.d. draws grows from about 1.5 at K = 64 to 6-8 at
    K = 4096; that of the swap chain of ``mcmc_sample`` stays near 1.4.
    """
    xb, yb, tau = _ou_triples(x0_batch, y_batch, ts)
    if len(seeds) != xb.shape[0]:
        raise DomainError("expected one seed per cloud")
    if k < 1:
        raise DomainError("retained sample count k must be >= 1")
    sq = pairwise_sq_dists(xb, yb)
    tau = tau[:, None, None]
    marg = _block_gibbs(_log_affinities(sq, tau), yb, _assignment(sq), seeds, k)
    return _marginal_scores(marg, xb, yb, tau)


@dataclass(frozen=True)
class ElboReport:
    """Variational decomposition: log_evidence = elbo + kl, kl >= 0."""

    elbo: float
    kl: float
    log_evidence: float

    def decomposition_gap(self) -> float:
        return self.log_evidence - (self.elbo + self.kl)


def elbo(r: PermDistribution, x, y, t: float) -> ElboReport:
    """Evidence lower bound of a variational distribution r over S_N.

    elbo(r) = E_r[I(sigma)] + H(r); the gap to log sum_sigma exp(I(sigma))
    is exactly KL(r || q). Shared additive constants (Gaussian prefactor,
    uniform prior) are dropped on both sides. ``r`` must be exact-mode with
    weights over the full canonical enumeration of S_N; empirical sample
    sets carry no density, so their entropy is undefined.
    """
    if r.mode != EXACT:
        raise DomainError("elbo requires an exact-mode distribution over all of S_N")
    entries = cost_matrix(x, y, t)
    perms = permutation_array(entries.shape[0])
    if r.support.shape != perms.shape or not np.array_equal(r.support, perms):
        raise DomainError("variational support must be the canonical enumeration of S_N")

    ivals = _perm_sums(entries)
    log_evidence = float(_logsumexp(ivals))
    probs = r.probabilities()
    nz = probs > 0.0
    entropy = -float((probs[nz] * np.log(probs[nz])).sum())
    mean_i = float((probs * ivals).sum())
    log_q = ivals - log_evidence
    kl = float((probs[nz] * (np.log(probs[nz]) - log_q[nz])).sum())
    return ElboReport(elbo=mean_i + entropy, kl=kl, log_evidence=log_evidence)
