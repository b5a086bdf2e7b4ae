"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder replaces each public entry point with a timing wrapper at the
place its caller looks it up (a module global such as
``permdiff.score_model.ou_conditional_scores_batch``, or a class attribute for
``EquivariantNet`` methods). A span is one call: name, start, end, parent span
and the benchmark operation it belongs to. Spans stay in memory until the run
ends. An entry point that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from statistics import median

# Span name -> places callers look the entry point up: (module, attribute).
SITES = {
    "cloud.permutation_array": [
        ("heat_kernel", "permutation_array"),
        ("perm_mcmc", "permutation_array"),
        ("quotient_score", "permutation_array"),
        ("ou_sde", "permutation_array"),
    ],
    "cloud.canonicalize": [("ou_sde", "canonicalize"), ("score_model", "canonicalize")],
    "heat_kernel.quotient_log_heat_kernel_exact": [
        ("heat_kernel", "quotient_log_heat_kernel_exact")
    ],
    "perm_mcmc.posterior_exact": [
        ("perm_mcmc", "posterior_exact"),
        ("quotient_score", "posterior_exact"),
    ],
    "perm_mcmc.mcmc_sample": [("perm_mcmc", "mcmc_sample"), ("quotient_score", "mcmc_sample")],
    "quotient_score.ou_conditional_scores_batch": [
        ("quotient_score", "ou_conditional_scores_batch"),
        ("score_model", "ou_conditional_scores_batch"),
    ],
    "quotient_score.ou_conditional_score_exact": [
        ("quotient_score", "ou_conditional_score_exact"),
        ("score_model", "ou_conditional_score_exact"),
    ],
    "quotient_score.ou_conditional_score_mcmc": [
        ("quotient_score", "ou_conditional_score_mcmc"),
        ("score_model", "ou_conditional_score_mcmc"),
    ],
    "quotient_score.symmetrized_score_exact": [("quotient_score", "symmetrized_score_exact")],
    "quotient_score.symmetrized_score_mcmc": [("quotient_score", "symmetrized_score_mcmc")],
    "ou_sde.reverse_integrate": [
        ("ou_sde", "reverse_integrate"),
        ("score_model", "reverse_integrate"),
    ],
    "score_model.train": [("score_model", "train")],
    "score_model.sample_from_model": [("score_model", "sample_from_model")],
    "score_model.forward": [("score_model", "EquivariantNet.forward")],
    "score_model.backprop": [("score_model", "EquivariantNet.backprop")],
    "score_model.forward_single": [("score_model", "EquivariantNet.forward_single")],
}


def _mcmc_attrs(args, kwargs, result):
    dist, diag = result
    return {
        "proposals": diag.proposal_count,
        "accepted": diag.acceptance_rate * diag.proposal_count,
        "unique": diag.unique_states,
        "k": len(dist),
    }


# Counts read off a call where the work happens; see layer_metrics.
ATTRS = {
    "perm_mcmc.mcmc_sample": _mcmc_attrs,
    "ou_sde.reverse_integrate": lambda a, k, r: {"steps": a[1].steps},
    "score_model.train": lambda a, k, r: {"iterations": a[1].iterations},
}

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, OP, ATTR = range(6)


class Recorder:
    """Spans of one traced run; ``install`` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[list] = []  # [kind, start, end]
        self.missing: list[str] = []
        self.active = True
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, len(self.ops) - 1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                try:
                    span[ATTR] = attrs_of(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        for name, sites in SITES.items():
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"permdiff.{module_name}")
                except ImportError:
                    continue
                owner = module
                *owner_path, leaf = attr.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, leaf):
                    continue
                setattr(owner, leaf, self._wrap(name, getattr(owner, leaf)))
                found = True
            if not found:
                self.missing.append(name)

    @contextmanager
    def op(self, kind: str):
        """Mark one benchmark operation; spans opened inside belong to it."""
        record = [kind, time.perf_counter(), 0.0]
        self.ops.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "missing": self.missing,
                       "ops": self.ops, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def check_spans(spans) -> list[str]:
    """Problems with span nesting: negative self time or a child outlasting its parent."""
    problems = []
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if own < -1e-9:
            problems.append(f"span {i} ({s[NAME]}) has self time {own}")
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if s[START] < p[START] or s[END] > p[END] or own > p[END] - p[START]:
                problems.append(f"span {i} ({s[NAME]}) is not inside its parent {s[PARENT]}")
    return problems


ROUND_KINDS = ("train", "sample", "query")


def layer_metrics(rec: Recorder, rounds: int) -> dict:
    """Per-layer metrics of the round operations. Counts and times are per round.

    Latencies of the query entry points are taken over the calls queries
    make, not those training makes. ``cloud.permutation_array.first_ms`` is
    the time of the table builds during set-up, which every process pays.
    """
    own = self_times(rec.spans)
    kind_of = [op[0] for op in rec.ops]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(rec.spans):
        if s[OP] >= 0 and kind_of[s[OP]] in ROUND_KINDS:
            by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return rec.spans[i][END] - rec.spans[i][START]

    def idx(name, kind=None):
        return [i for i in by_name.get(name, [])
                if kind is None or kind_of[rec.spans[i][OP]] == kind]

    def busy(name, kind=None):
        return sum(dur(i) for i in idx(name, kind))

    def p50(name, scale, only=None, kind=None):
        values = [dur(i) for i in (only if only is not None else idx(name, kind))]
        return scale * median(values) if values else 0.0

    def attr_sum(name, key):
        return sum(rec.spans[i][ATTR][key] for i in idx(name) if rec.spans[i][ATTR])

    out = {}
    setup_ops = {o for o, k in enumerate(kind_of) if k == "setup"}
    out["cloud.permutation_array.first_ms"] = 1e3 * sum(
        s[END] - s[START] for s in rec.spans
        if s[NAME] == "cloud.permutation_array" and s[OP] in setup_ops)
    out["cloud.canonicalize.calls"] = len(idx("cloud.canonicalize")) / rounds
    out["heat_kernel.quotient_log_heat_kernel_exact.p50_ms"] = p50(
        "heat_kernel.quotient_log_heat_kernel_exact", 1e3, kind="query")
    out["perm_mcmc.posterior_exact.p50_ms"] = p50("perm_mcmc.posterior_exact", 1e3, kind="query")

    mcmc = "perm_mcmc.mcmc_sample"
    out[f"{mcmc}.calls"] = len(idx(mcmc)) / rounds
    out[f"{mcmc}.busy_ms"] = 1e3 * busy(mcmc) / rounds
    out[f"{mcmc}.p50_us"] = p50(mcmc, 1e6)
    proposals = attr_sum(mcmc, "proposals")
    out["perm_mcmc.proposals_per_s"] = proposals / busy(mcmc) if proposals else 0.0
    out["perm_mcmc.acceptance_rate"] = attr_sum(mcmc, "accepted") / proposals if proposals else 0.0
    drawn = attr_sum(mcmc, "k")
    out["perm_mcmc.unique_ratio"] = attr_sum(mcmc, "unique") / drawn if drawn else 0.0

    batch = "quotient_score.ou_conditional_scores_batch"
    out[f"{batch}.calls"] = len(idx(batch)) / rounds
    out[f"{batch}.busy_ms"] = 1e3 * busy(batch) / rounds
    out[f"{batch}.p50_ms"] = p50(batch, 1e3)
    for name in ("quotient_score.ou_conditional_score_exact",
                 "quotient_score.ou_conditional_score_mcmc"):
        out[f"{name}.calls"] = len(idx(name)) / rounds
        out[f"{name}.busy_ms"] = 1e3 * busy(name) / rounds
    out["quotient_score.symmetrized_score_exact.p50_ms"] = p50(
        "quotient_score.symmetrized_score_exact", 1e3, kind="query")
    out["quotient_score.symmetrized_score_mcmc.p50_ms"] = p50(
        "quotient_score.symmetrized_score_mcmc", 1e3, kind="query")

    rev = "ou_sde.reverse_integrate"
    rev_self = sum(own[i] for i in idx(rev))
    steps = attr_sum(rev, "steps")
    out[f"{rev}.calls"] = len(idx(rev)) / rounds
    out[f"{rev}.self_ms"] = 1e3 * rev_self / rounds
    out[f"{rev}.self_us_per_step"] = 1e6 * rev_self / steps if steps else 0.0

    # Batched forward calls only: forward_single delegates to forward.
    fwd = [i for i in idx("score_model.forward")
           if rec.spans[i][PARENT] < 0
           or rec.spans[rec.spans[i][PARENT]][NAME] != "score_model.forward_single"]
    out["score_model.forward.calls"] = len(fwd) / rounds
    out["score_model.forward.busy_ms"] = 1e3 * sum(dur(i) for i in fwd) / rounds
    out["score_model.forward.p50_ms"] = p50("score_model.forward", 1e3, fwd)
    bp = "score_model.backprop"
    out[f"{bp}.calls"] = len(idx(bp)) / rounds
    out[f"{bp}.busy_ms"] = 1e3 * busy(bp) / rounds
    out[f"{bp}.p50_ms"] = p50(bp, 1e3)
    single = "score_model.forward_single"
    out[f"{single}.calls"] = len(idx(single)) / rounds
    out[f"{single}.p50_us"] = p50(single, 1e6)
    out[f"{single}.busy_ms"] = 1e3 * busy(single) / rounds

    train = "score_model.train"
    iterations = attr_sum(train, "iterations")
    out[f"{train}.self_ms_per_iter"] = (
        1e3 * sum(own[i] for i in idx(train)) / iterations if iterations else 0.0)
    sampler = "score_model.sample_from_model"
    out[f"{sampler}.self_ms"] = 1e3 * sum(own[i] for i in idx(sampler)) / rounds

    # Shares of the dominant layers, each with its base named in the metric.
    train_busy = busy(train)
    out[f"{train}.scores_batch_share"] = busy(batch, "train") / train_busy if train_busy else 0.0
    out[f"{train}.mcmc_share"] = busy(mcmc, "train") / train_busy if train_busy else 0.0
    # The frozen eval set: the fixed cost of each training run.
    exact = "quotient_score.ou_conditional_score_exact"
    out[f"{train}.eval_set_share"] = busy(exact, "train") / train_busy if train_busy else 0.0
    sample_busy = busy(sampler)
    out[f"{sampler}.net_integrator_share"] = (
        (busy(single, "sample") + rev_self) / sample_busy if sample_busy else 0.0)
    return {k: v for k, v in out.items()
            if not any(k.startswith(m + ".") or DERIVED.get(k) == m for m in rec.missing)}


# Metrics named after one layer but computed from another's spans.
DERIVED = {
    "perm_mcmc.proposals_per_s": "perm_mcmc.mcmc_sample",
    "perm_mcmc.acceptance_rate": "perm_mcmc.mcmc_sample",
    "perm_mcmc.unique_ratio": "perm_mcmc.mcmc_sample",
    "score_model.train.scores_batch_share": "quotient_score.ou_conditional_scores_batch",
    "score_model.train.mcmc_share": "perm_mcmc.mcmc_sample",
    "score_model.train.eval_set_share": "quotient_score.ou_conditional_score_exact",
    "score_model.sample_from_model.net_integrator_share": "score_model.forward_single",
}
