"""Command-line interface: one binary, subcommand per operation.

Data goes to stdout or --out files; logs go to stderr. Every subcommand
that draws randomness funnels it through a single --seed flag, and seeded
invocations are bitwise reproducible. Exit codes: 0 success, 2 usage,
3 file not found, 4 parse error, 5 enumeration capacity, 6 domain error,
7 training divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

from . import bench, io
from .cloud import as_points
from .errors import DomainError, ParseError, PermdiffError
from .heat_kernel import euclid_log_heat_kernel, quotient_log_heat_kernel_exact
from .ou_sde import (
    NoiseSchedule,
    forward_trajectory,
    identity_exchange_trace,
    reverse_integrate,
)
from .perm_mcmc import McmcConfig, mcmc_sample, posterior_exact
from .quotient_score import (
    ou_conditional_score_exact,
    ou_conditional_score_mcmc,
    symmetrized_score_exact,
    symmetrized_score_mcmc,
)
from .score_model import Checkpoint, TrainConfig, checkpoint_score_fn, sample_from_model, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE_NOT_FOUND = 3
EXIT_PARSE = 4
EXIT_CAPACITY = 5
EXIT_DOMAIN = 6
EXIT_DIVERGED = 7

_ERROR_CODES = {
    "parse": EXIT_PARSE,
    "capacity": EXIT_CAPACITY,
    "domain": EXIT_DOMAIN,
    "shape-mismatch": EXIT_DOMAIN,
    "diverged": EXIT_DIVERGED,
    "file-not-found": EXIT_FILE_NOT_FOUND,
}

log = logging.getLogger("permdiff")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _load_cloud(path, elements):
    return io.read_cloud(path, elements.split(",") if elements else None)


def _mcmc_config(args) -> McmcConfig:
    return McmcConfig(
        k=args.k,
        burn_in=args.burn_in,
        thinning=args.thinning,
        seed=args.seed,
    )


def cmd_kernel(args) -> int:
    x = _load_cloud(args.x, args.elements)
    y = _load_cloud(args.y, args.elements)
    if args.mode == "euclid":
        value = euclid_log_heat_kernel(x, y, args.t)
    else:
        value = quotient_log_heat_kernel_exact(x, y, args.t, args.cap)
    _emit(args, _dump({"log_density": value, "t": args.t, "n": x.n, "d": x.d, "mode": args.mode}))
    return EXIT_OK


def cmd_posterior(args) -> int:
    x = _load_cloud(args.x, args.elements)
    y = _load_cloud(args.y, args.elements)
    if args.mode == "exact":
        dist = posterior_exact(x, y, args.t, args.cap)
        diag = None
    else:
        dist, diag = mcmc_sample(x, y, args.t, _mcmc_config(args))
    lines = []
    for row, lw in zip(dist.support, dist.log_weights):
        lines.append(_dump({"perm": [int(v) for v in row], "log_weight": float(lw)}))
    _emit(args, "".join(lines))
    if args.diagnostics:
        if diag is None:
            log.info("no diagnostics in exact mode; writing empty object")
            payload = {}
        else:
            payload = asdict(diag)
        with open(args.diagnostics, "w") as fh:
            fh.write(_dump(payload))
    return EXIT_OK


def cmd_score(args) -> int:
    x = _load_cloud(args.x, args.elements)
    y = _load_cloud(args.y, args.elements)
    if args.mode == "exact":
        score = symmetrized_score_exact(x, y, args.t, args.cap)
        diagnostics = None
    else:
        score, diag = symmetrized_score_mcmc(x, y, args.t, _mcmc_config(args), with_diagnostics=True)
        diagnostics = asdict(diag)
    _emit(args, _dump({"score": score.tolist(), "method": args.mode, "diagnostics": diagnostics}))
    return EXIT_OK


def _trajectory_lines(traj, trace) -> str:
    lines = []
    for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
        rec = {"t": float(t), "points": as_points(state).tolist()}
        if trace is not None:
            rec["assignment"] = list(trace[idx].mapping)
        lines.append(_dump(rec))
    return "".join(lines)


def cmd_forward(args) -> int:
    x0 = _load_cloud(args.x, args.elements)
    schedule = _schedule(args)
    traj = forward_trajectory(x0, schedule, args.seed)
    trace = identity_exchange_trace(traj, x0, args.cap) if args.assignment_trace else None
    _emit(args, _trajectory_lines(traj, trace))
    return EXIT_OK


def cmd_reverse(args) -> int:
    y_t = _load_cloud(args.init, args.elements)
    schedule = _schedule(args)
    if args.score_source in ("exact", "mcmc"):
        if not args.ref:
            raise DomainError("--ref is required for exact or mcmc score sources")
        ref = as_points(_load_cloud(args.ref, args.elements))
        if args.score_source == "exact":
            score_fn = lambda y, t: ou_conditional_score_exact(ref, y, t, args.cap)
        else:
            base = _mcmc_config(args)
            score_fn = lambda y, t: ou_conditional_score_mcmc(ref, y, t, base)
    else:
        ckpt = Checkpoint.load(args.checkpoint)
        score_fn = checkpoint_score_fn(ckpt)
    traj = reverse_integrate(y_t, schedule, score_fn, args.seed)
    trace = None
    if args.assignment_trace:
        if not args.ref:
            raise DomainError("--assignment-trace requires --ref")
        trace = identity_exchange_trace(traj, _load_cloud(args.ref, args.elements), args.cap)
    _emit(args, _trajectory_lines(traj, trace))
    return EXIT_OK


_TRAIN_KEYS = {
    "iterations": int,
    "batch_size": int,
    "step_size": float,
    "momentum": float,
    "t_min": float,
    "horizon": float,
    "target_mode": str,
    "mcmc_k": int,
    "weighting": str,
    "width": int,
    "depth": int,
    "holdout_fraction": float,
    "eval_every": int,
    "seed": int,
}


def _read_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(open(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _TRAIN_KEYS:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _TRAIN_KEYS[key](val.strip())
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return values


def _train_config(args, argv) -> TrainConfig:
    """The TrainConfig of the train flags (train and bench-gen share them).

    With ``--config``, file values fill in the flags that ``argv`` does not give.
    """
    values = {
        "iterations": args.iterations,
        "batch_size": args.batch_size,
        "step_size": args.step_size,
        "momentum": args.momentum,
        "t_min": args.t_min,
        "horizon": args.horizon,
        "target_mode": args.target_mode,
        "mcmc_k": args.mcmc_k,
        "weighting": args.weighting,
        "width": args.width,
        "depth": args.depth,
        "holdout_fraction": args.holdout_fraction,
        "eval_every": args.eval_every,
        "seed": args.seed,
    }
    if getattr(args, "config", None):
        # Config-file values apply only where the flag was not given explicitly.
        from_file = _read_config_file(args.config)
        for key, val in from_file.items():
            flag = "--" + key.replace("_", "-")
            if flag not in argv:
                values[key] = val
    width = values.pop("width")
    depth = values.pop("depth")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    return TrainConfig(widths=(width,) * depth, **values)


def cmd_train(args, argv) -> int:
    dataset = io.read_dataset(args.data)
    cfg = _train_config(args, argv)
    ckpt = train(dataset, cfg)
    ckpt.save(args.out)
    summary = {
        "iterations": ckpt.iteration,
        "initial_holdout_loss": ckpt.holdout_curve[0][1],
        "final_holdout_loss": ckpt.holdout_curve[-1][1],
        "checkpoint": str(args.out),
    }
    sys.stdout.write(_dump(summary))
    return EXIT_OK


def cmd_sample(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    schedule = _schedule(args)
    samples = sample_from_model(ckpt, args.n, schedule, args.seed)
    lines = [_dump({"points": q.points.tolist()}) for q in samples]
    _emit(args, "".join(lines))
    return EXIT_OK


def cmd_bench_score(args) -> int:
    k_grid = tuple(int(v) for v in args.k_grid.split(","))
    study = bench.run_estimator_study(
        n=args.n, d=args.d, t=args.t, seed=args.seed, k_grid=k_grid, replicates=args.replicates
    )
    _emit(args, _dump(study.to_dict()))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("k,mean_error\n")
            for k, err in zip(study.k_grid, study.mean_errors):
                fh.write(f"{k},{err!r}\n")
    return EXIT_OK


def cmd_bench_gen(args) -> int:
    dataset = bench.make_synthetic_dataset(
        args.kind, args.items, args.points, args.dim, args.seed,
        jitter=args.jitter, radius=args.radius, blob_std=args.blob_std,
    )
    report = bench.run_toy_generation(
        dataset,
        _train_config(args, []),
        _schedule(args),
        n_samples=args.samples,
        n_reference=args.reference,
        n_shuffles=args.shuffles,
        seed=args.seed,
        do_train=not args.no_train,
    )
    _emit(args, _dump(report.to_dict()))
    return EXIT_OK


def cmd_make_data(args) -> int:
    dataset = bench.make_synthetic_dataset(
        args.kind, args.items, args.points, args.dim, args.seed,
        jitter=args.jitter, radius=args.radius, blob_std=args.blob_std,
    )
    io.write_dataset(args.out, dataset)
    sys.stdout.write(_dump({"items": len(dataset), "path": str(args.out)}))
    return EXIT_OK


def _add_cloud_pair(p):
    p.add_argument("--x", required=True, help="first point-cloud file")
    p.add_argument("--y", required=True, help="second point-cloud file")
    p.add_argument("--t", type=float, required=True, help="time, > 0")


def _add_common(p):
    p.add_argument("--out", help="write data here instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for all randomness")
    p.add_argument("--cap", type=int, default=9, help="exact enumeration cap on N")
    p.add_argument("--elements", help="comma-separated element table for .xyz input")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("PERMDIFF_THREADS", "1")),
        help="thread budget (this build computes serially; accepted for compatibility)",
    )


def _add_mcmc_flags(p):
    p.add_argument("--k", type=int, default=32, help="retained MCMC samples")
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--thinning", type=int, default=None)


def _add_schedule_flags(p, horizon=5.0, steps=200, grid="uniform"):
    p.add_argument("--horizon", type=float, default=horizon, help="terminal time T")
    p.add_argument("--steps", type=int, default=steps, help="grid steps")
    p.add_argument("--grid", choices=("uniform", "geometric"), default=grid)
    p.add_argument(
        "--t-end", type=float, default=1e-4, dest="t_end",
        help="smallest positive grid time for the geometric grid",
    )


def _schedule(args) -> NoiseSchedule:
    if args.grid == "geometric":
        return NoiseSchedule.geometric(args.horizon, args.steps, args.t_end)
    return NoiseSchedule.uniform(args.horizon, args.steps)


def _add_dataset_flags(p):
    p.add_argument("--kind", required=True, choices=bench.DATASET_KINDS)
    p.add_argument("--items", type=int, default=512)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--blob-std", type=float, default=0.1, dest="blob_std")


def _add_train_flags(p):
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--step-size", type=float, default=1e-3, dest="step_size")
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--t-min", type=float, default=1e-2, dest="t_min")
    p.add_argument("--target-mode", choices=("exact", "mcmc"), default="exact", dest="target_mode")
    p.add_argument("--mcmc-k", type=int, default=32, dest="mcmc_k")
    p.add_argument("--weighting", choices=("none", "variance-scaled"), default="none")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--depth", type=int, default=2, help="number of hidden layers")
    p.add_argument("--holdout-fraction", type=float, default=0.1, dest="holdout_fraction")
    p.add_argument("--eval-every", type=int, default=50, dest="eval_every")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdiff",
        description="Diffusion on unordered point clouds: kernels, posteriors, scores, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate a log heat kernel")
    _add_cloud_pair(p)
    p.add_argument("--mode", choices=("euclid", "quotient-exact"), default="quotient-exact")
    _add_common(p)

    p = sub.add_parser("posterior", help="posterior over permutations")
    _add_cloud_pair(p)
    p.add_argument("--mode", choices=("exact", "mcmc"), default="exact")
    _add_mcmc_flags(p)
    p.add_argument("--diagnostics", help="sidecar JSON path for chain diagnostics")
    _add_common(p)

    p = sub.add_parser("score", help="permutation-symmetrized score")
    _add_cloud_pair(p)
    p.add_argument("--mode", choices=("exact", "mcmc"), default="exact")
    _add_mcmc_flags(p)
    _add_common(p)

    p = sub.add_parser("forward", help="noise a cloud along a schedule")
    p.add_argument("--x", required=True, help="initial cloud file")
    _add_schedule_flags(p)
    p.add_argument("--assignment-trace", action="store_true", dest="assignment_trace")
    _add_common(p)

    p = sub.add_parser("reverse", help="integrate the reverse dynamics")
    p.add_argument("--init", required=True, help="terminal-noise cloud file")
    p.add_argument("--score-source", choices=("exact", "mcmc", "model"), default="exact", dest="score_source")
    p.add_argument("--ref", help="reference cloud for exact/mcmc score sources")
    p.add_argument("--checkpoint", help="model checkpoint for --score-source model")
    _add_schedule_flags(p)
    _add_mcmc_flags(p)
    p.add_argument("--assignment-trace", action="store_true", dest="assignment_trace")
    _add_common(p)

    p = sub.add_parser("train", help="train the equivariant score network")
    p.add_argument("--data", required=True, help="JSONL dataset path")
    p.add_argument("--config", help="key = value config file; explicit flags win")
    _add_train_flags(p)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=9)
    p.add_argument("--elements")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--threads", type=int, default=int(os.environ.get("PERMDIFF_THREADS", "1")))

    p = sub.add_parser("sample", help="sample clouds from a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=16)
    _add_schedule_flags(p, steps=256, grid="geometric")
    _add_common(p)

    p = sub.add_parser("bench-score", help="MCMC-score accuracy study")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--k-grid", default="8,32,128,512", dest="k_grid")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--csv", help="optional per-K CSV table")
    _add_common(p)

    p = sub.add_parser("bench-gen", help="end-to-end toy generation study")
    _add_dataset_flags(p)
    _add_train_flags(p)
    _add_schedule_flags(p, steps=256, grid="geometric")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--reference", type=int, default=256)
    p.add_argument("--shuffles", type=int, default=1000)
    p.add_argument("--no-train", action="store_true", dest="no_train")
    _add_common(p)

    p = sub.add_parser("make-data", help="write a synthetic JSONL dataset")
    _add_dataset_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--threads", type=int, default=int(os.environ.get("PERMDIFF_THREADS", "1")))

    return parser


_HANDLERS = {
    "kernel": cmd_kernel,
    "posterior": cmd_posterior,
    "score": cmd_score,
    "forward": cmd_forward,
    "reverse": cmd_reverse,
    "sample": cmd_sample,
    "bench-score": cmd_bench_score,
    "bench-gen": cmd_bench_gen,
    "make-data": cmd_make_data,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if getattr(args, "threads", 1) < 1:
        sys.stderr.write("error: category=domain: --threads must be >= 1\n")
        return EXIT_DOMAIN
    try:
        if args.command == "train":
            return cmd_train(args, list(argv))
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: category=file-not-found: {exc}\n")
        return EXIT_FILE_NOT_FOUND
    except PermdiffError as exc:
        code = _ERROR_CODES.get(exc.category, EXIT_DOMAIN)
        sys.stderr.write(f"error: category={exc.category}: {exc}\n")
        return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
