"""Property tests of batched chains against lone chains.

Row r of ``_chains`` must be, bit for bit, the chain of the per-step loop
below, which draws each slot with ``bisect_right``, at any burn-in and
thinning, and on mcmc_sample's burn-in and thinning the chain that
``mcmc_sample`` runs with seed seeds[r]. Row r of the block-Gibbs
targets ``ou_conditional_scores_mcmc`` must be, bit for bit, the score
``ou_conditional_score_mcmc`` gives. Batches of 1, 2 and 64 clouds with
N = 1..8 mix, in one batch, times from 1e-300 to 10: rows whose inverse
probabilities overflow (the log-domain test), rows of far points whose cost
rows are all -inf, repeated points, and benign rows.
"""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from permdiff.cloud import min_cost_assignment
from permdiff.perm_mcmc import (
    McmcConfig,
    _accept_log_domain,
    _chains,
    cost_matrix,
    mcmc_sample,
)
from permdiff.quotient_score import ou_conditional_score_mcmc, ou_conditional_scores_mcmc


def lone_chain(entries, start, seed, burn_in, thinning, k):
    """The chain of one cost matrix, one uniform triple per step.

    Returns the retained states (k, N) and the accepted step count.
    """
    n = entries.shape[0]
    row_log_probs = entries - logsumexp(entries, axis=1)[:, None]
    cum = np.cumsum(np.exp(row_log_probs), axis=1)
    cum[:, -1] = 1.0
    cum = cum.tolist()
    neg_log = (-row_log_probs).tolist()
    with np.errstate(over="ignore"):
        inv = np.exp(-row_log_probs).tolist()
    rng = np.random.default_rng(seed)
    sigma = list(start)
    slot_of = [0] * n
    for slot, point in enumerate(sigma):
        slot_of[point] = slot
    total = burn_in + thinning * k
    u = rng.random((total, 3)).tolist()
    accepted, samples = 0, []
    for step, (u0, u1, u2) in enumerate(u, start=1):
        i = int(u0 * n)
        b = min(bisect_right(cum[i], u1), n - 1)
        a = slot_of[i]
        if a == b:
            accepted += 1
        else:
            j = sigma[b]
            den = inv[i][b] + inv[j][a]
            if den == math.inf:
                ok = _accept_log_domain(neg_log[i], neg_log[j], a, b, u2)
            else:
                ok = u2 * den < inv[i][a] + inv[j][b]
            if ok:
                sigma[a], sigma[b] = j, i
                slot_of[i], slot_of[j] = b, a
                accepted += 1
        if step > burn_in and (step - burn_in) % thinning == 0:
            samples.append(list(sigma))
    return np.array(samples, dtype=np.intp), accepted


@st.composite
def batches(draw, min_log10_t, max_k):
    """(x, y, ts, seeds, k): B clouds of N points, each row its own t.

    Rows are benign, have repeated points of x (tied permutations), or have
    x scaled by 1e6, so that at tiny t whole cost rows are -inf. k is at
    most ``max_k``; k up to 80 gives the block-Gibbs targets up to 10
    chains per target.
    """
    b = draw(st.sampled_from([1, 2, 64]))
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((b, n, d))
    y = rng.standard_normal((b, n, d))
    kind = rng.integers(0, 3, size=b)
    for r in np.flatnonzero(kind == 1):
        x[r] = x[r][rng.integers(0, n, size=n)]
    x[kind == 2] *= 1e6
    ts = 10.0 ** rng.uniform(min_log10_t, 1.0, size=b)
    seeds = [int(s) for s in rng.integers(2**63, size=b)]
    return x, y, ts, seeds, draw(st.integers(1, max_k))


@given(
    batches(min_log10_t=-300.0, max_k=8),
    st.one_of(st.none(), st.integers(0, 20)),
    st.one_of(st.none(), st.integers(1, 3)),
)
def test_rows_equal_lone_chains(batch, burn_in, thinning):
    # None draws mcmc_sample's burn-in of 50N or thinning of N; rows on that
    # schedule are also compared with mcmc_sample.
    x, y, ts, seeds, k = batch
    n = x.shape[1]
    burn_in = 50 * n if burn_in is None else burn_in
    thinning = n if thinning is None else thinning
    entries = np.stack([cost_matrix(xr, yr, t).entries for xr, yr, t in zip(x, y, ts)])
    starts = np.stack([min_cost_assignment(xr, yr).mapping for xr, yr in zip(x, y)])
    states, accepted = _chains(entries, starts, seeds, burn_in, thinning, k)
    assert states.shape == (len(x), k, n) and accepted.shape == (len(x),)
    for r, seed in enumerate(seeds):
        ref_states, ref_accepted = lone_chain(entries[r], starts[r], seed, burn_in, thinning, k)
        np.testing.assert_array_equal(states[r], ref_states)
        assert accepted[r] == ref_accepted
        if (burn_in, thinning) == (50 * n, n):
            dist, diag = mcmc_sample(x[r], y[r], ts[r], McmcConfig(k=k, seed=seed))
            np.testing.assert_array_equal(dist.support, states[r])
            assert diag.acceptance_rate == accepted[r] / diag.proposal_count


@given(batches(min_log10_t=-300.0, max_k=80))
def test_batched_targets_equal_lone_targets(batch):
    x, y, ts, seeds, k = batch
    targets = ou_conditional_scores_mcmc(x, y, ts, seeds, McmcConfig(k=k))
    assert np.all(np.isfinite(targets))
    for r, seed in enumerate(seeds):
        ref = ou_conditional_score_mcmc(x[r], y[r], ts[r], McmcConfig(k=k, seed=seed))
        assert targets[r].tobytes() == ref.tobytes()
