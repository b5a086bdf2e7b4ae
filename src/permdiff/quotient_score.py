"""Permutation-symmetrized score functions and the variational identities.

The gradient of the log quotient kernel in its noised argument is the
posterior expectation over permutations of per-permutation Gaussian scores
(the mixture-score identity). Exact evaluation enumerates S_N through the
permutation-sum core of ``heat_kernel``; the MCMC variant averages
per-permutation scores over posterior samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .cloud import (
    ENUMERATION_CAP,
    Permutation,
    as_points,
    check_same_shape,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import DomainError
from .heat_kernel import _assignment_marginals, _check_time, _perm_sums
from .perm_mcmc import EXACT, McmcConfig, PermDistribution, cost_matrix, mcmc_sample


def per_perm_score(sigma: Permutation, x, y, t: float) -> np.ndarray:
    """Gradient of I(sigma) in y: row j equals (x_{sigma(j)} - y_j) / (2t).

    This is the plain Gaussian score that pairs slot j with point sigma(j).
    """
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    return (px[sigma.as_array()] - py) / (2.0 * t)


def _exact_scores(x: np.ndarray, y: np.ndarray, t: np.ndarray, cap: int) -> np.ndarray:
    """Exact symmetrized scores (P^T x - y) / (2t) of B pairs: x, y (B, N, d), t (B,).

    P is the posterior assignment marginal over all of S_N, from the
    permutation sums of the cost matrices -||x_i - y_j||^2 / (4t).
    """
    t = t[:, None, None]
    terms = _perm_sums(-pairwise_sq_dists(x, y) / (4.0 * t), cap)
    w = np.exp(terms - terms.max(axis=1, keepdims=True))
    probs = w / w.sum(axis=1, keepdims=True)
    marg = _assignment_marginals(permutation_array(x.shape[1], cap), probs)
    return (np.swapaxes(marg, 1, 2) @ x - y) / (2.0 * t)


def symmetrized_score_exact(x, y, t: float, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Posterior-weighted mean of per-permutation scores over all of S_N.

    Equals the gradient of the exact log quotient kernel in y.
    """
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    return _exact_scores(px[None], py[None], np.array([t]), cap)[0]


def symmetrized_score_mcmc(
    x,
    y,
    t: float,
    cfg: McmcConfig,
    with_diagnostics: bool = False,
):
    """Sample mean of per-permutation scores over MCMC posterior samples."""
    t = _check_time(t)
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    dist, diag = mcmc_sample(px, py, t, cfg)
    score = (dist.mean_matched_points(px) - py) / (2.0 * t)
    if with_diagnostics:
        return score, diag
    return score


def _ou_time_change(t: float) -> tuple[float, float]:
    """Map forward-process time t to (decay, kernel time tau).

    The mean-reverting transition N(decay * x, (1 - decay^2) I) equals the
    heat kernel evaluated at tau = (1 - e^{-t}) / 2, so symmetrized scores of
    the forward transition reuse the kernel machinery at (decay * x, tau).
    """
    t = _check_time(t)
    decay = math.exp(-0.5 * t)
    tau = (1.0 - math.exp(-t)) / 2.0
    return decay, tau


def ou_conditional_score_exact(x0, y, t: float, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Gradient in y of the log symmetrized forward-transition density from x0."""
    decay, tau = _ou_time_change(t)
    return symmetrized_score_exact(decay * as_points(x0), y, tau, cap)


def ou_conditional_score_mcmc(x0, y, t: float, cfg: McmcConfig) -> np.ndarray:
    decay, tau = _ou_time_change(t)
    return symmetrized_score_mcmc(decay * as_points(x0), y, tau, cfg)


def ou_conditional_scores_batch(
    x0_batch: np.ndarray,
    y_batch: np.ndarray,
    ts: np.ndarray,
    cap: int = ENUMERATION_CAP,
) -> np.ndarray:
    """Exact conditional scores for a batch of (x0, y, t) triples at once.

    Equivalent to stacking ou_conditional_score_exact over the batch: one
    pass of the exact score core at (decay * x0, y, tau) for all B triples.
    """
    xb = np.asarray(x0_batch, dtype=float)
    yb = np.asarray(y_batch, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if xb.shape != yb.shape or xb.ndim != 3 or ts.shape != (xb.shape[0],):
        raise DomainError("expected (B, n, d) clouds with matching (B,) times")
    if not np.all(ts > 0.0):
        raise DomainError("times must be positive")
    tau = (1.0 - np.exp(-ts)) / 2.0
    return _exact_scores(np.exp(-0.5 * ts)[:, None, None] * xb, yb, tau, cap)


@dataclass(frozen=True)
class ElboReport:
    """Variational decomposition: log_evidence = elbo + kl, kl >= 0."""

    elbo: float
    kl: float
    log_evidence: float

    def decomposition_gap(self) -> float:
        return self.log_evidence - (self.elbo + self.kl)


def elbo(r: PermDistribution, x, y, t: float, cap: int = ENUMERATION_CAP) -> ElboReport:
    """Evidence lower bound of a variational distribution r over S_N.

    elbo(r) = E_r[I(sigma)] + H(r); the gap to log sum_sigma exp(I(sigma))
    is exactly KL(r || q). Shared additive constants (Gaussian prefactor,
    uniform prior) are dropped on both sides. ``r`` must be exact-mode with
    weights over the full canonical enumeration of S_N; empirical sample
    sets carry no density, so their entropy is undefined.
    """
    if r.mode != EXACT:
        raise DomainError("elbo requires an exact-mode distribution over all of S_N")
    entries = cost_matrix(x, y, t).entries
    perms = permutation_array(entries.shape[0], cap)
    if r.support.shape != perms.shape or not np.array_equal(r.support, perms):
        raise DomainError("variational support must be the canonical enumeration of S_N")

    ivals = _perm_sums(entries, cap)
    log_evidence = float(logsumexp(ivals))
    probs = r.probabilities()
    nz = probs > 0.0
    entropy = -float((probs[nz] * np.log(probs[nz])).sum())
    mean_i = float((probs * ivals).sum())
    log_q = ivals - log_evidence
    kl = float((probs[nz] * (np.log(probs[nz]) - log_q[nz])).sum())
    return ElboReport(elbo=mean_i + entropy, kl=kl, log_evidence=log_evidence)
