"""Checks outputs against the brute-force oracle, in a process of its own.

The workload process sends each request as a pickled tuple ``(kind, *args)``
on stdin and reads a pickled reply: ``None`` if the output passes, else the
reason it failed. Running the oracle here keeps its permutation tables and
(N!, N, d) temporaries out of the workload's peak RSS. The workload waits for
each reply outside its timed operations, so the two processes never compete
for the CPU while an operation is timed.

    checker = Checker()
    checker.ask("mcmc", x, y, t, k, score)  # -> None or a reason
    checker.close()
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from oracle import Oracle, perm_codes

# Five times the RMS error of K independent posterior draws, fixed from the
# K^-1/2 law before any run: a well-mixed chain thinned every N steps stays
# inside it; a chain stuck away from the posterior mass does not.
MCMC_TOLERANCE_FACTOR = 5.0


def close(value, ref, rel=1e-8) -> bool:
    value, ref = np.asarray(value, float), np.asarray(ref, float)
    scale = 1.0 + float(np.abs(ref).max())
    return value.shape == ref.shape and bool(np.all(np.abs(value - ref) <= rel * scale))


def check_exact(oracle, x, y, t, log_k, support, log_weights, score) -> str | None:
    """Log kernel, full posterior and score of one exact query."""
    if not math.isfinite(log_k) or not np.all(np.isfinite(score)):
        return "non-finite"
    ref = oracle.solve(x, y, t)
    got, want = perm_codes(support), perm_codes(ref.perms)
    order, ref_order = np.argsort(got), np.argsort(want)
    if (got.shape != want.shape
            or not np.array_equal(got[order], want[ref_order])
            or not close(np.exp(log_weights)[order], ref.probs[ref_order])
            or not close(log_k, ref.log_kernel, 1e-10)
            or not close(score, ref.score)):
        return "oracle-mismatch"
    return None


def check_mcmc(oracle, x, y, t, k, score) -> str | None:
    """An MCMC score must be within the K^-1/2 tolerance of the exact one."""
    if score.shape != y.shape or not np.all(np.isfinite(score)):
        return "non-finite"
    ref = oracle.solve(x, y, t)
    tol = MCMC_TOLERANCE_FACTOR * math.sqrt(ref.variance / k) / (2.0 * t)
    scale = 1.0 + float(np.abs(ref.score).max())
    if np.linalg.norm(score - ref.score) > tol + 1e-9 * scale:
        return "mcmc-beyond-tolerance"
    return None


def check_targets(oracle, x0s, ys, ts, outs) -> str | None:
    """Rows of an exact training target batch."""
    for x0, y, t, out in zip(x0s, ys, ts, outs):
        if not close(out, oracle.ou_target(x0, y, float(t))):
            return "target-oracle-mismatch"
    return None


CHECKS = {"exact": check_exact, "mcmc": check_mcmc, "targets": check_targets}


class Checker:
    """Client side: starts the checker process and asks it one thing at a time."""

    def __init__(self):
        # The checker is not the program under test, so its BLAS threading is
        # set here: one thread, so it leaves no spinning threads behind.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def ask(self, kind: str, *args) -> str | None:
        pickle.dump((kind, *args), self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def serve() -> None:
    oracle = Oracle()
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            kind, *args = pickle.load(stdin)
        except EOFError:
            return
        try:
            reply = CHECKS[kind](oracle, *args)
        except Exception:  # output of the wrong type or shape: a failed check
            traceback.print_exc()
            reply = "bad-output"
        pickle.dump(reply, stdout)
        stdout.flush()


if __name__ == "__main__":
    serve()
