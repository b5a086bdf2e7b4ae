"""Brute-force reference for the quotient kernel, posterior and scores.

Every quantity is a plain sum over ``itertools.permutations``. Nothing here
imports permdiff, so the checks keep their meaning when the package replaces
its own enumeration (for example by a subset dynamic programme).

Conventions match the package: ``perm[j]`` is the point of x matched to slot
j of y, and the log weight of a permutation is -sum_j |x_perm[j] - y_j|^2 / 4t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_N = 8


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    return m + math.log(float(np.exp(v - m).sum()))


@dataclass(frozen=True)
class Solution:
    log_kernel: float
    perms: np.ndarray  # (N!, N), every permutation of range(N)
    probs: np.ndarray  # (N!,) posterior probability of each
    score: np.ndarray  # (N, d) symmetrized score in y
    variance: float  # V = sum_j E_q |x_sigma(j) - E_q x_sigma(j)|^2


class Oracle:
    """Holds one permutation table per N, built on first use."""

    def __init__(self):
        self._tables: dict[int, np.ndarray] = {}

    def table(self, n: int) -> np.ndarray:
        if not 1 <= n <= MAX_N:
            raise ValueError(f"oracle supports 1 <= N <= {MAX_N}, got {n}")
        if n not in self._tables:
            self._tables[n] = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        return self._tables[n]

    def solve(self, x: np.ndarray, y: np.ndarray, t: float) -> Solution:
        """Kernel, posterior and score of one (x, y, t) from one pass over S_N.

        V is the posterior variance of the matched points, so an average of K
        independent posterior draws estimates the score with expected squared
        error V / (K (2t)^2).
        """
        n, d = x.shape
        perms = self.table(n)
        sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        terms = -sq[perms, np.arange(n)].sum(axis=1) / (4.0 * t)
        lse = _logsumexp(terms)
        probs = np.exp(terms - lse)
        # match[j, i]: posterior probability that slot j of y holds point i of x.
        slots = np.broadcast_to(np.arange(n) * n, perms.shape)
        match = np.bincount((slots + perms).ravel(), np.repeat(probs, n),
                            minlength=n * n).reshape(n, n)
        mean = match @ x
        variance = float((match @ (x * x).sum(axis=1)).sum() - (mean * mean).sum())
        return Solution(
            log_kernel=-(n * d / 2.0) * math.log(4.0 * math.pi * t) + lse,
            perms=perms, probs=probs, score=(mean - y) / (2.0 * t),
            variance=max(variance, 0.0),
        )

    def ou_target(self, x0: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        """Score in y of the symmetrized forward transition from x0 over time t."""
        decay = math.exp(-0.5 * t)
        variance = 1.0 - math.exp(-t)
        return self.solve(decay * x0, y, variance / 2.0).score


def perm_codes(perms: np.ndarray) -> np.ndarray:
    """One integer per permutation row, for order-free comparison of supports."""
    n = perms.shape[1]
    return perms.astype(np.int64) @ (n ** np.arange(n, dtype=np.int64))
