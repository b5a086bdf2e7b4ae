"""The posterior over permutations q(sigma | x, y, t) and its samplers.

q(sigma) is the softmax over S_N of I(sigma) = -||x - sigma(y)||^2 / (4t),
the soft assignment of noised points to clean points. Exact normalization
enumerates all N! permutations, up to N = ``ENUMERATION_CAP`` (9).
``mcmc_sample`` samples q without ever normalizing it, by a
Metropolis-Hastings chain over transpositions with a fixed burn-in of 50N
steps and thinning N; ``McmcConfig`` sets only the sample count and the
seed. The MCMC training targets use a block-Gibbs chain instead,
``_block_gibbs``, which returns Rao-Blackwellised assignment marginals
rather than samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cloud import (
    Permutation,
    _assignment,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import DomainError
from .heat_kernel import (
    _NEG_MAX,
    _assignment_marginals,
    _check_finite_weight,
    _checked_pair,
    _log_affinities,
    _logsumexp,
    _perm_sums,
)

EXACT = "exact"
EMPIRICAL = "empirical"


def cost_matrix(x, y, t: float) -> np.ndarray:
    """Read-only log-affinities C[i, j] = -||x_i - y_j||^2 / (4t), all <= 0."""
    px, py, t = _checked_pair(x, y, t)
    entries = _log_affinities(pairwise_sq_dists(px, py), t)
    entries.setflags(write=False)
    return entries


def log_weight(sigma: Permutation, x, y, t: float) -> float:
    """I(sigma) = -||x - sigma(y)||^2 / (4t), the unnormalized log posterior.

    Equals the cost-matrix trace sum_j C[sigma(j), j]; both code paths are
    cross-checked in tests.
    """
    px, py, t = _checked_pair(x, y, t)
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


def exact_from_log_weights(n: int, raw_log_weights: np.ndarray) -> PermDistribution:
    """Normalize raw log weights over the canonical enumeration of S_n.

    Raises DomainError when no weight is finite (log Z = -inf: far points
    at tiny t), where the posterior is undefined.
    """
    lw = np.asarray(raw_log_weights, dtype=float)
    if lw.shape != (math.factorial(n),):
        raise DomainError(
            f"expected {math.factorial(n)} log weights for S_{n}, got {lw.shape}"
        )
    log_z = _logsumexp(lw)
    _check_finite_weight(log_z == -math.inf)
    lw = lw - log_z
    return PermDistribution(permutation_array(n), lw, EXACT)


def posterior_exact(x, y, t: float) -> PermDistribution:
    """The normalized posterior over all of S_N by enumeration."""
    entries = cost_matrix(x, y, t)
    return exact_from_log_weights(entries.shape[0], _perm_sums(entries))


@dataclass(frozen=True)
class McmcConfig:
    """MCMC settings: ``k`` retained samples (k >= 1) and the ``seed``.

    The swap chain of ``mcmc_sample`` keeps k states; the block-Gibbs
    training targets run ceil(k / 8) chains.
    """

    k: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("retained sample count k must be >= 1")


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


def _swap_chain(
    entries: np.ndarray,
    start: np.ndarray,
    seed,
    burn_in: int,
    thinning: int,
    k: int,
) -> tuple[np.ndarray, int]:
    """Run the swap chain of ``mcmc_sample`` on one cost matrix, entries (N, N).

    The chain starts at the permutation ``start`` (slot -> point, an (N,)
    array), draws its uniforms from ``default_rng(seed)``, makes
    burn_in + thinning * k steps and keeps every thinning-th state after
    the burn-in. Returns the retained states (k, N) and the accepted step
    count.

    The tables are built once: cumulative row probabilities for the slot
    draw, and the negated log probabilities and their exponentials (inverse
    probabilities, inf where they overflow) for R. The proposal (i, b) of a
    step does not depend on the state, so each block of uniforms becomes
    its points i, slots b = bisect_right(cum[i], u1) and the inverse
    probabilities 1/p_i[b] in a few vector operations; the step loop keeps
    only the lookups that depend on the state.
    """
    n = entries.shape[0]
    with np.errstate(invalid="ignore"):  # an all -inf row gives NaN, handled below
        row_log_probs = entries - _logsumexp(entries, axis=1)[:, None]
    cum = np.cumsum(np.exp(row_log_probs), axis=1)
    cum[:, -1] = 1.0
    # A row whose entries are all -inf has NaN probabilities; bisect_right
    # steps over NaN, which a count of the entries <= u1 matches with -inf.
    cum[np.isnan(cum)] = -math.inf
    with np.errstate(over="ignore"):
        inv_all = np.exp(-row_log_probs)
    total = burn_in + thinning * k
    inf = math.inf

    rng = np.random.default_rng(seed)
    neg_log = (-row_log_probs).tolist()
    inv = inv_all.tolist()
    sigma = start.tolist()  # sigma[slot] = point index
    slot_of = [0] * n  # slot_of[point] = slot
    for slot, point in enumerate(sigma):
        slot_of[point] = slot
    samples: list[list[int]] = []
    rejected = 0
    done = 0
    next_record = burn_in + thinning
    while done < total:
        block = min(_UNIFORM_BLOCK, total - done)
        u = rng.random((block, 3))
        points = (u[:, 0] * n).astype(np.intp)
        slots = np.minimum((cum[points] <= u[:, 1:2]).sum(axis=1), n - 1)
        steps = zip(points.tolist(), slots.tolist(), u[:, 2].tolist(),
                    inv_all[points, slots].tolist())
        for i, b, u2, inv_ib in steps:
            a = slot_of[i]
            if a != b:  # a == b is the identity move, always accepted
                j = sigma[b]
                inv_j = inv[j]
                den = inv_ib + inv_j[a]
                if den == inf:
                    ok = _accept_log_domain(neg_log[i], neg_log[j], a, b, u2)
                else:
                    ok = u2 * den < inv[i][a] + inv_j[b]
                if ok:
                    sigma[a] = j
                    sigma[b] = i
                    slot_of[i] = b
                    slot_of[j] = a
                else:
                    rejected += 1
            done += 1
            if done == next_record:
                samples.append(sigma[:])
                next_record += thinning
    return np.array(samples, dtype=np.intp), total - rejected


# The block-Gibbs kernel of the training targets: blocks of at most
# _BLOCK_SLOTS slots, a uniformly drawn block with probability
# _UNIFORM_BLOCK_PROB, one chain per _SAMPLES_PER_CHAIN retained samples.
_BLOCK_SLOTS = 4
_UNIFORM_BLOCK_PROB = 0.25
_SAMPLES_PER_CHAIN = 8
# Order weights more than e^700 below a block's largest count as 0: np.exp is
# many times slower on results that underflow or are subnormal.
_EXP_FLOOR = -700.0


@lru_cache(maxsize=None)
def _block_orders(block: int) -> tuple[np.ndarray, np.ndarray]:
    """The block! orders of a block, identity first, and the orders by placement.

    ``orders[f, s]`` is the block point that order f puts in block slot s;
    ``by_place[:, a, s]`` lists the orders that put block point a in slot s.
    """
    orders = permutation_array(block)
    by_place = np.array(
        [[np.flatnonzero(orders[:, s] == a) for s in range(block)] for a in range(block)]
    ).transpose(2, 0, 1).copy()
    by_place.setflags(write=False)
    return orders, by_place


def _block_draws(y: np.ndarray, seeds, steps: int, chains: int, block: int):
    """Every step's blocks (steps, kb, B * C) and order draws (steps, B * C).

    Chain c of target r is row r * C + c. Per step, each chain takes from
    ``default_rng(seeds[r])`` the block kind, the order draw and N slot keys.
    """
    b_rows, n, _ = y.shape
    u = np.empty((b_rows, steps, chains, n + 2))
    for r, seed in enumerate(seeds):
        np.random.default_rng(seed).random(out=u[r])
    ranked = np.argsort(u[..., 2:], axis=3)  # a uniformly random order of the slots
    dist = pairwise_sq_dists(y, y)
    dist[:, range(n), range(n)] = -1.0  # a slot is nearest itself, before its ties
    nearest = np.argsort(dist, axis=2, kind="stable")[..., :block]
    blocks = np.where(
        (u[..., 0] < _UNIFORM_BLOCK_PROB)[..., None],
        ranked[..., :block],
        nearest[np.arange(b_rows)[:, None, None], ranked[..., 0]],
    )
    rows = b_rows * chains
    return (
        blocks.transpose(1, 3, 0, 2).reshape(steps, block, rows),
        u[..., 1].transpose(1, 0, 2).reshape(steps, rows),
    )


def _block_gibbs(entries: np.ndarray, y: np.ndarray, starts: np.ndarray, seeds, k: int) -> np.ndarray:
    """Assignment marginals of B targets from block-Gibbs chains: entries (B, N, N).

    Target r runs C = ceil(k / 8) chains on the cost matrix entries[r] with
    slot positions y[r] (N, d). Every chain starts at the assignment
    starts[r] (slot -> point), and all of them draw their uniforms from the
    one generator ``default_rng(seeds[r])``.

    A step updates a block of kb = min(4, N - 1) slots (all N when N <= 2):
    with probability 1/4 kb uniformly drawn slots, otherwise a uniformly
    drawn slot and its kb - 1 nearest slots in y, ties broken by index. It
    weighs all kb! orders of the points that sit in the block over the
    block's slots and draws one exactly. The block depends on y alone, not
    on the state, so each step is a Gibbs update of q; the uniform blocks
    make the chain irreducible. A block whose orders all weigh -inf (far
    points at tiny t) keeps its current order.

    A chain makes one burn-in sweep of ceil(N / kb) steps, then ceil(k / C)
    recorded sweeps. Each recorded step adds the block's exact assignment
    marginal plus the one-hot of the state outside the block (the
    Rao-Blackwellised average). Returns P (B, N, N): P[r, i, j] is the
    average over target r's chains and recorded steps of the probability
    that slot j holds point i.

    All B * C chains step together, a fixed number of numpy operations per
    step on arrays that keep the chains on their last axis. Those are
    elementwise operations, gathers, and sums over short leading axes that
    add whole vectors; with no matrix product, a target's marginals do not
    depend on the other rows of the batch.
    """
    b_rows, n, _ = entries.shape
    block = n if n <= 2 else min(_BLOCK_SLOTS, n - 1)
    chains = -(-k // _SAMPLES_PER_CHAIN)
    sweep = -(-n // block)
    recorded = sweep * -(-k // chains)
    orders, by_place = _block_orders(block)
    rows = b_rows * chains
    row = np.arange(rows)
    blocks, draw = _block_draws(y, seeds, sweep + recorded, chains, block)
    # sigma[j, r] is the point in slot j of chain r. The costs and the sums
    # are [point, slot, row] arrays, flattened: point i in slot j of row r is
    # at i * N * rows + j * rows + r, where j * rows + r indexes sigma.
    sigma = np.repeat(np.asarray(starts, dtype=np.intp).T, chains, axis=1)
    flat_sigma = sigma.reshape(-1)
    state_at = np.arange(sigma.size).reshape(sigma.shape)
    slot_at = blocks * rows + row
    flat_cost = np.repeat(entries.transpose(1, 2, 0), chains, axis=2).reshape(-1)
    acc = np.zeros((n, n, rows))  # the recorded marginals
    flat_acc = acc.reshape(-1)
    # The weight of order f is sum_s M[orders[f, s], s], with M[a, s] the
    # cost of the block's point a in its slot s, flattened.
    terms = (orders * block + np.arange(block)).T
    eye = np.eye(block)[..., None]
    # Sums of finite costs may overflow to -inf, a valid log weight.
    with np.errstate(over="ignore"):
        for step, at_slots in enumerate(slot_at):
            points = flat_sigma.take(at_slots)  # (kb, rows): the block's points by slot
            at = points[:, None] * (n * rows) + at_slots  # [a, s]: point a in slot s
            w = flat_cost.take(at).reshape(block * block, rows).take(terms, axis=0).sum(axis=0)
            # A block whose orders all weigh -inf keeps its order, the identity.
            np.maximum(w[0], _NEG_MAX, out=w[0])
            w -= w.max(axis=0)
            e = np.exp(np.maximum(w, _EXP_FLOOR, out=w), out=w)
            e -= math.exp(_EXP_FLOOR)  # exactly 0 at the floor
            cum = np.cumsum(e, axis=0)
            if step >= sweep:
                at_state = sigma * (n * rows) + state_at
                flat_acc.put(at_state, flat_acc.take(at_state) + 1.0)
                # q[a, s] is the probability that the block's point a lands in
                # slot s, less the one-hot of the state that the line above added.
                q = e.take(by_place, axis=0).sum(axis=0) / cum[-1] - eye
                flat_acc.put(at, flat_acc.take(at) + q)
            # The first order whose cumulative weight exceeds u * total.
            pick = (cum[:-1] <= draw[step] * cum[-1]).sum(axis=0, dtype=np.intp)
            flat_sigma.put(at_slots, points.take(orders[pick].T * rows + row))
    marg = acc.reshape(n, n, b_rows, chains).sum(axis=3) / (chains * recorded)
    # Contiguous per target, so that a matrix product treats every row alike.
    return np.ascontiguousarray(marg.transpose(2, 0, 1))


def mcmc_sample(x, y, t: float, cfg: McmcConfig) -> tuple[PermDistribution, McmcDiagnostics]:
    """Sample the permutation posterior with the swap-proposal chain.

    The chain starts at the most probable assignment, the minimum-cost
    matching of the squared distances (``cloud._assignment``).
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
    identity move and counts as accepted.

    The chain keeps every N-th state after a burn-in of 50N steps, until it
    has ``cfg.k``; ``_swap_chain`` runs it.

    Raises DomainError when every permutation has a cost of -inf (far
    points at tiny t), where no permutation has a finite weight.
    """
    px, py, t = _checked_pair(x, y, t)
    sq = pairwise_sq_dists(px, py)
    entries = _log_affinities(sq, t)
    n = entries.shape[0]
    burn_in, thinning, k = 50 * n, n, cfg.k
    # Start at the mode: at small t a chain started elsewhere can settle in
    # a local mode that no single transposition leaves.
    start = _assignment(sq)
    slots = np.arange(n)
    far = np.isneginf(entries)
    # The assignment with the fewest -inf costs has none if any permutation has none.
    _check_finite_weight(
        far[start, slots].any() and far[_assignment(far.astype(float)), slots].any()
    )
    support, accepted = _swap_chain(entries, start, cfg.seed, burn_in, thinning, k)
    total = burn_in + thinning * k
    dist = PermDistribution(support, np.full(k, -math.log(k)), EMPIRICAL)
    diag = McmcDiagnostics(
        acceptance_rate=accepted / total,
        proposal_count=total,
        unique_states=len(set(map(tuple, support.tolist()))),
    )
    return dist, diag
