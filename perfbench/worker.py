"""One workload in one process: set-up, closed-loop rounds, checks, metrics.

Started by ``run.py`` with the BLAS thread variables removed from its
environment and ``src`` on PYTHONPATH. Prints ``READY`` once set-up is done,
then a final ``{"result": ...}`` line. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from checker import Checker
from spans import Recorder, layer_metrics

QUERY_TIMES = (0.05, 0.5, 5.0)  # the criterion-3 instance mix
MCMC_K = 256
# Every workload runs at least 100 queries, so at least ten lie beyond it.
TAIL_PERCENTILE = 90.0
# Rows of the first target batch of each training run checked against the oracle.
TARGET_ROWS = (0, 21, 42, 63)
# The B2 probe is criterion 7 verbatim (data seed 42, SGD at 1e-2) except that
# it stops after 1000 iterations, fifty times the iteration (16-24) at which it
# diverges, so that a run still ends in time once the divergence is fixed.
PROBE_SEED = 42
PROBE_ITERATIONS = 1000
# The two known defects, counted apart from failed operations (see Tally).
B2_DEFECT = "b2-probe-diverged"
B1_DEFECT = "mcmc-beyond-tolerance"


@dataclass(frozen=True)
class Workload:
    train_points: int
    train_items: int
    target_mode: str
    iterations: int  # per training run
    samples: int  # clouds per sampling call
    query_points: int
    queries: int
    query_mode: str
    b2_probe: bool = False


# Each round is one training run, two sampling calls from the checkpoint it
# trained, and a batch of queries. Why each workload exists: see README.md.
# A real training run is thousands of iterations (TrainConfig's default is
# 2000), minutes at N=7. These runs are long enough that what every train()
# call pays once, mostly the frozen eval set, stays a few percent of the call:
# the traced run reports it as score_model.train.eval_set_share.
WORKLOADS = {
    "toy-gen": Workload(3, 256, "exact", 400, 8, 3, 256, "exact", b2_probe=True),
    "exact-enum": Workload(7, 128, "exact", 40, 12, 8, 72, "exact"),
    "mcmc-n7": Workload(7, 128, "mcmc", 72, 8, 8, 600, "mcmc"),
}
TINY = dict(train_items=32, iterations=2, samples=1, queries=12)


def train_config(pm, wl: Workload, seed: int):
    """Criterion-7 shapes with the stable Adam optimizer."""
    return pm.TrainConfig(
        iterations=wl.iterations, batch_size=64, step_size=1e-3, optimizer="adam",
        widths=(96, 96), weighting="variance-scaled", output_scale="noise",
        t_min=1e-3, target_mode=wl.target_mode, seed=seed,
    )


def probe_config(pm):
    """Criterion 7's training config, verbatim apart from the iteration cap."""
    return pm.TrainConfig(
        iterations=PROBE_ITERATIONS, batch_size=64, step_size=1e-2, momentum=0.9,
        widths=(96, 96), weighting="variance-scaled", output_scale="noise",
        t_min=1e-3, seed=42,
    )


def jittered_template(seed: int, items: int, n: int, d: int = 2, jitter: float = 0.05):
    """One random template plus Gaussian jitter per item, points sorted.

    Draws the same stream as the package's jittered-template generator, so
    seed 42 with 512 items reproduces criterion 7's data.
    """
    rng = np.random.default_rng(seed)
    template = rng.standard_normal((n, d))
    clouds = template[None] + jitter * rng.standard_normal((items, n, d))
    return np.stack([c[np.lexsort(c.T[::-1])] for c in clouds])


def query_instance(rng, n: int, t: float):
    """Built as criterion 3 builds them: y is a noised relabeling of x."""
    x = rng.standard_normal((n, 2))
    y = x[rng.permutation(n)] + math.sqrt(2.0 * t) * rng.standard_normal((n, 2))
    return x, y


@dataclass
class RoundInputs:
    train_seed: int
    sample_seeds: tuple[int, int]
    queries: list  # (x, y, t, mcmc seed)

    def digest_into(self, h) -> None:
        h.update(f"{self.train_seed},{self.sample_seeds}".encode())
        for x, y, t, s in self.queries:
            h.update(x.tobytes() + y.tobytes() + f"{t!r},{s}".encode())


def round_inputs(wl: Workload, seed: int, r: int) -> RoundInputs:
    rng = np.random.default_rng([seed, r + 1])
    train_seed, *sample_seeds = (int(v) for v in rng.integers(2**31, size=3))
    queries = []
    for q in range(wl.queries):
        t = QUERY_TIMES[q % len(QUERY_TIMES)]
        x, y = query_instance(rng, wl.query_points, t)
        queries.append((x, y, t, int(rng.integers(2**31))))
    return RoundInputs(train_seed, tuple(sample_seeds), queries)


class TargetCapture:
    """Keeps a few rows of the first exact target batch of a training run.

    Wraps the batch-target entry point where the trainer looks it up; the
    rows are checked against the oracle after the run, outside its timing.
    """

    NAME = "ou_conditional_scores_batch"

    def __init__(self, module):
        self.module = module
        self.original = getattr(module, self.NAME, None)
        self.taken = None

    def install(self) -> bool:
        if self.original is None:
            return False
        setattr(self.module, self.NAME, self._wrapper)
        return True

    def _wrapper(self, x0_batch, y_batch, ts, *args, **kwargs):
        out = self.original(x0_batch, y_batch, ts, *args, **kwargs)
        if self.taken is None:
            rows = [r for r in TARGET_ROWS if r < len(ts)]
            self.taken = tuple(np.array(a)[rows] for a in (x0_batch, y_batch, ts, out))
        return out


class Tally:
    """Operations attempted and failed, with failures counted by reason.

    The two known defects are counted under ``defects`` as [hits, checks]
    instead: the B2 probe is not an operation of the load, and an MCMC query
    beyond the K^-1/2 tolerance is the B1 defect, not a failed operation.
    Every other error or failed check is a failed operation, and a run with
    any failed operation is not correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.defects: dict[str, list[int]] = {}
        self._shown: set[str] = set()

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1, exc: BaseException | None = None) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count
        if exc is not None and reason not in self._shown:
            self._shown.add(reason)
            traceback.print_exception(exc, file=sys.stderr)

    def defect(self, reason: str, hit: bool) -> None:
        counts = self.defects.setdefault(reason, [0, 0])
        counts[0] += int(hit)
        counts[1] += 1

    def defect_frac(self, reason: str) -> float:
        hits, checks = self.defects.get(reason, (0, 0))
        return hits / checks if checks else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Runner:
    def __init__(self, args, wl: Workload, pm):
        self.args, self.wl, self.pm = args, wl, pm
        self.checker: Checker | None = None
        self.tally = Tally()
        self.recorder: Recorder | None = None
        # (work, wall seconds) of each timed training run and sampling call.
        self.trains: list[tuple[int, float]] = []
        self.samples: list[tuple[int, float]] = []
        self.query_ms: list[float] = []
        self.missing: list[str] = []
        self.extras: dict[str, dict] = {}
        self.ckpt = None

    def op(self, kind: str):
        if self.recorder is not None:
            return self.recorder.op(kind)
        return nullcontext()

    # -- set-up ----------------------------------------------------------
    def setup(self) -> str:
        wl, pm = self.wl, self.pm
        self.dataset = jittered_template(self.args.seed, wl.train_items, wl.train_points)
        self.schedule = pm.ou_sde.NoiseSchedule.geometric(5.0, 384, 1e-3)
        self.capture = TargetCapture(pm.score_model)
        if wl.target_mode == "exact" and not self.capture.install():
            self.missing.append("training-target check")
        digest = hashlib.sha256(self.dataset.tobytes())
        round_inputs(wl, self.args.seed, 0).digest_into(digest)
        # First-call warm-up that every process pays: the permutation tables
        # for the training and query shapes.
        rng = np.random.default_rng([self.args.seed, 0])
        x0 = self.dataset[0]
        pm.quotient_score.ou_conditional_score_exact(x0, x0 + 0.1 * rng.standard_normal(x0.shape), 0.5)
        x, y = query_instance(rng, wl.query_points, 0.5)
        self.query(x, y, 0.5, 0)
        return digest.hexdigest()

    # -- operations --------------------------------------------------------
    def query(self, x, y, t, mcmc_seed):
        pm = self.pm
        if self.wl.query_mode == "exact":
            return (pm.heat_kernel.quotient_log_heat_kernel_exact(x, y, t),
                    pm.perm_mcmc.posterior_exact(x, y, t),
                    pm.quotient_score.symmetrized_score_exact(x, y, t))
        cfg = pm.perm_mcmc.McmcConfig(k=MCMC_K, seed=mcmc_seed)
        return pm.quotient_score.symmetrized_score_mcmc(x, y, t, cfg)

    def check_query(self, x, y, t, result) -> str | None:
        try:
            if self.wl.query_mode == "exact":
                log_k, post, score = result
                outputs = (float(log_k), np.asarray(post.support),
                           np.asarray(post.log_weights, float), np.asarray(score, float))
            else:
                outputs = (MCMC_K, np.asarray(result, float))
        except (TypeError, ValueError, AttributeError):
            return "bad-output"
        return self.checker.ask(self.wl.query_mode, x, y, t, *outputs)

    def check_checkpoint(self, ckpt) -> str | None:
        curve = [v for _, v in ckpt.holdout_curve]
        if not np.all(np.isfinite(ckpt.params)) or not np.all(np.isfinite(curve)):
            return "non-finite"
        if self.capture.taken is not None:
            return self.checker.ask("targets", *self.capture.taken)
        return None

    def train_op(self, cfg, data, timed: bool) -> float:
        self.capture.taken = None
        with self.op("train" if timed else "probe"):
            start = time.perf_counter()
            try:
                ckpt = self.pm.score_model.train(data, cfg)
            except self.pm.TrainingDiverged as exc:
                if timed:
                    self.tally.fail("train-diverged", exc=exc)
                else:
                    self.tally.defect(B2_DEFECT, True)
                return 0.0
            except Exception as exc:  # any error is one failed operation
                self.tally.fail("train-raised", exc=exc)
                return 0.0
            wall = time.perf_counter() - start
        problem = self.check_checkpoint(ckpt)
        if problem:
            self.tally.fail(problem)
        elif not timed:
            self.tally.defect(B2_DEFECT, False)
        else:
            self.tally.ok()
            self.ckpt = ckpt
            self.trains.append((cfg.iterations, wall))
        return wall

    def sample_op(self, seed: int) -> float:
        count = self.wl.samples
        if self.ckpt is None:
            self.tally.fail("no-checkpoint", count)
            return 0.0
        with self.op("sample"):
            start = time.perf_counter()
            try:
                clouds = self.pm.score_model.sample_from_model(self.ckpt, count, self.schedule, seed)
            except Exception as exc:  # any error fails every cloud of the call
                self.tally.fail("sample-raised", count, exc)
                return 0.0
            wall = time.perf_counter() - start
        self.samples.append((count, wall))
        shape = (self.wl.train_points, 2)
        for cloud in clouds:
            pts = np.asarray(cloud.points)
            if (pts.shape != shape or not np.all(np.isfinite(pts))
                    or not np.array_equal(np.lexsort(pts.T[::-1]), np.arange(shape[0]))):
                self.tally.fail("sample-check")
            else:
                self.tally.ok()
        if len(clouds) != count:
            self.tally.fail("sample-count", abs(count - len(clouds)))
        return wall

    def query_op(self, x, y, t, mcmc_seed, check: bool = True) -> float:
        with self.op("query"):
            start = time.perf_counter()
            try:
                result = self.query(x, y, t, mcmc_seed)
            except Exception as exc:  # any error is one failed operation
                self.tally.fail("query-raised", exc=exc)
                return 0.0
            wall = time.perf_counter() - start
        if not check:
            return wall
        self.query_ms.append(1e3 * wall)
        problem = self.check_query(x, y, t, result)
        if self.wl.query_mode == "mcmc":
            self.tally.defect(B1_DEFECT, problem == B1_DEFECT)
            if problem == B1_DEFECT:
                problem = None
        if problem:
            self.tally.fail(problem)
        else:
            self.tally.ok()
        return wall

    def run_round(self, inputs: RoundInputs, deadline: float | None = None,
                  check: bool = True) -> tuple[float, bool]:
        """One round: the summed wall time of its operations, and whether it
        ran whole. No operation starts once ``deadline`` has passed."""
        cfg = train_config(self.pm, self.wl, inputs.train_seed)
        ops = [lambda: self.train_op(cfg, self.dataset, timed=True)]
        ops += [lambda s=s: self.sample_op(s) for s in inputs.sample_seeds]
        ops += [lambda q=q: self.query_op(*q, check) for q in inputs.queries]
        busy = 0.0
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                return busy, False
            busy += op()
        return busy, True

    def run(self) -> dict:
        args, wl = self.args, self.wl
        if wl.b2_probe:
            probe_data = jittered_template(PROBE_SEED, 512, 3)[256:]
            self.train_op(probe_config(self.pm), probe_data, timed=False)
        if args.inject_failure:
            x, y = query_instance(np.random.default_rng(0), wl.query_points, 1.0)
            self.query_op(x, y, -1.0, 0)  # t <= 0 must raise
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            inputs = round_inputs(wl, args.seed, rounds)
            # The first round always runs whole. The traced run keeps whole
            # rounds, as its per-layer figures are per round.
            cut = None if rounds == 0 or self.recorder is not None else deadline
            busy, whole = self.run_round(inputs, cut)
            if whole:
                last, last_busy = inputs, busy
            rounds += 1
        out = {"rounds": rounds}
        if self.recorder is None:
            out["metrics"] = self.end_to_end()
        else:
            self.recorder.active = False
            # The last round again without spans, for the tracing overhead.
            # The rerun is not counted among the operations.
            tally, self.tally = self.tally, Tally()
            plain_busy, _ = self.run_round(last, check=False)
            self.tally = tally
            metrics = layer_metrics(self.recorder, rounds)
            metrics["trace_overhead_frac"] = last_busy / plain_busy - 1.0
            metrics["perm_mcmc.beyond_tolerance_frac"] = self.tally.defect_frac(B1_DEFECT)
            metrics["score_model.b2_probe_diverged"] = self.tally.defect_frac(B2_DEFECT)
            out["metrics"] = metrics
            self.missing += self.recorder.missing
        return out

    def end_to_end(self) -> dict:
        """The bounded metrics; ``query_ms_p50`` goes to ``extras``, printed only.

        A rate is the work of all timed calls over their summed wall time, so
        every call counts by its length. The speed of a shared CPU changes
        from second to second (on a 2-vCPU KVM guest, consecutive sampling
        calls ran at 20 and at 34 clouds/s), and a sum over the run averages
        that out where a median or a percentile of per-call rates jumps
        between the two speeds.
        """
        qs = sorted(self.query_ms)
        metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        for name, calls in (("train_iters_per_s", self.trains),
                            ("sample_clouds_per_s", self.samples)):
            if calls:
                metrics[name] = sum(w for w, _ in calls) / sum(s for _, s in calls)
        if qs:
            self.extras["query_ms_p50"] = {"value": median(qs), "unit": "ms"}
            # Nearest rank. A fixed percentile, so that a faster program, which
            # fits more queries into a run, is not measured further out in
            # the tail, where the garbage-collection pauses are.
            metrics["query_ms_tail"] = qs[math.ceil(TAIL_PERCENTILE / 100.0 * len(qs)) - 1]
        return metrics

    def counts(self) -> dict:
        n = len(self.query_ms)
        return {
            "train_iters_per_s": len(self.trains),
            "sample_clouds_per_s": len(self.samples),
            "query_ms_p50": n,
            "query_ms_tail": n,
            "query_ms_tail_percentile": TAIL_PERCENTILE,
        }


def openblas_info() -> dict:
    """Version and thread count read from the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return {"library": os.path.basename(path),
                        "config": config().decode(errors="replace"),
                        "threads": threads()}
    return {"library": None, "config": None, "threads": None}


def machine_meta() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()

    import permdiff
    import permdiff.heat_kernel
    import permdiff.ou_sde
    import permdiff.perm_mcmc
    import permdiff.quotient_score
    import permdiff.score_model

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(permdiff.__file__).resolve().is_relative_to(src):
        print(f"permdiff was imported from {permdiff.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, **TINY)
    runner = Runner(args, wl, permdiff)
    if args.trace:
        runner.recorder = Recorder()
        runner.recorder.install()
    with runner.op("setup"):
        digest = runner.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    runner.checker = Checker()
    try:
        out = runner.run()
    finally:
        runner.checker.close()
    meta = machine_meta()
    meta["inputs_sha256"] = digest
    if runner.recorder is not None:
        spans_dir = Path(__file__).resolve().parent / "out"
        spans_dir.mkdir(exist_ok=True)
        runner.recorder.write(spans_dir / f"spans-{args.workload}.json", meta)
    t = runner.tally
    result = dict(out, attempted=t.attempted, failed=t.failed, reasons=t.reasons,
                  defects=t.defects,
                  missing=runner.missing, extras=runner.extras,
                  correct=t.correct, counts=runner.counts(), meta=meta)
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
