"""Command-line interface: one binary, subcommand per operation.

Data goes to stdout or --out files; errors go to stderr. Every subcommand
that draws randomness funnels it through a single --seed flag, and seeded
invocations are bitwise reproducible. A subcommand registers only the
flags its handler reads.

The train settings are TrainConfig's fields: ``train`` gets one flag and one
config-file key per field (``widths`` as ``--width`` x ``--depth``),
``bench-gen`` the same flags with its schedule's ``--horizon`` and dataset's
``--seed``. A setting comes from the first of: a flag given, in any form
argparse accepts (``--iterations=5``, ``--iter 5``); the ``--config`` file;
TrainConfig's default. Every other flag whose value the library defaults
(``--k``, ``--t-end``, ``--jitter``, ``--radius``, ``--blob-std`` and the
bench sizes) is passed only when given, so a flag left out keeps the
library's default.

Exit codes: 0 success, 2 usage, 3 file not found, 4 parse error, 5
exact-evaluation capacity, 6 domain error (including a failing score
callback), 7 training divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

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
from .score_model import (
    TRAIN_CHOICES,
    Checkpoint,
    TrainConfig,
    checkpoint_score_fn,
    sample_from_model,
    train,
)

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
    "score-callback": EXIT_DOMAIN,
    "diverged": EXIT_DIVERGED,
}


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_NOT_FINITE = "the result is not finite (inf or NaN), which JSON cannot hold"


def _dump(obj) -> str:
    """One JSON line; a non-finite float, which JSON cannot hold, is a DomainError."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(_NOT_FINITE) from exc


def _load_cloud(path, elements):
    return io.read_cloud(path, elements.split(",") if elements else None)


def _given(args, *names, **renamed) -> dict:
    """The library keyword arguments of the flags given.

    A flag that the library defaults has default SUPPRESS: left out, it is
    missing from ``args`` and the library's default holds. ``names`` are
    dests that name their parameter; ``renamed`` maps a parameter to its
    flag's dest.
    """
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {param: getattr(args, dest) for param, dest in pairs if hasattr(args, dest)}


def cmd_kernel(args) -> int:
    x = _load_cloud(args.x, args.elements)
    y = _load_cloud(args.y, args.elements)
    if args.mode == "euclid":
        value = euclid_log_heat_kernel(x, y, args.t)
    else:
        value = quotient_log_heat_kernel_exact(x, y, args.t)
    _emit(args, _dump({"log_density": value, "t": args.t, "n": x.n, "d": x.d, "mode": args.mode}))
    return EXIT_OK


def cmd_posterior(args) -> int:
    if args.diagnostics and args.mode != "mcmc":
        raise DomainError("--diagnostics needs --mode mcmc: only the chain has diagnostics")
    x = _load_cloud(args.x, args.elements)
    y = _load_cloud(args.y, args.elements)
    if args.mode == "exact":
        dist = posterior_exact(x, y, args.t)
    else:
        dist, diag = mcmc_sample(x, y, args.t, McmcConfig(seed=args.seed, **_given(args, "k")))
    log_weights = dist.log_weights.tolist()
    if not all(map(math.isfinite, log_weights)):
        raise DomainError(_NOT_FINITE)
    # _dump's line, keys sorted, written by hand: json.dumps per row is slow.
    rows = zip(dist.support.tolist(), log_weights)
    _emit(args, "".join(f'{{"log_weight": {lw!r}, "perm": {row}}}\n' for row, lw in rows))
    if args.diagnostics:
        with open(args.diagnostics, "w") as fh:
            fh.write(_dump(asdict(diag)))
    return EXIT_OK


def cmd_score(args) -> int:
    x = _load_cloud(args.x, args.elements)
    y = _load_cloud(args.y, args.elements)
    if args.mode == "exact":
        score = symmetrized_score_exact(x, y, args.t)
        diagnostics = None
    else:
        cfg = McmcConfig(seed=args.seed, **_given(args, "k"))
        score, diag = symmetrized_score_mcmc(x, y, args.t, cfg, with_diagnostics=True)
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
    trace = identity_exchange_trace(traj, x0) if args.assignment_trace else None
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
            score_fn = lambda y, t: ou_conditional_score_exact(ref, y, t)
        else:
            cfg = McmcConfig(**_given(args, "k"))
            # Each step's chains get the next seed of a child of --seed; the
            # integrator's noise comes from --seed itself.
            child = np.random.SeedSequence(args.seed).spawn(1)[0]
            seeds = iter(child.generate_state(schedule.steps, np.uint64).tolist())
            score_fn = lambda y, t: ou_conditional_score_mcmc(
                ref, y, t, replace(cfg, seed=next(seeds))
            )
    else:
        if not args.checkpoint:
            raise DomainError("--checkpoint is required for the model score source")
        score_fn = checkpoint_score_fn(Checkpoint.load(args.checkpoint))
    traj = reverse_integrate(y_t, schedule, score_fn, args.seed)
    trace = None
    if args.assignment_trace:
        if not args.ref:
            raise DomainError("--assignment-trace requires --ref")
        trace = identity_exchange_trace(traj, _load_cloud(args.ref, args.elements))
    _emit(args, _trajectory_lines(traj, trace))
    return EXIT_OK


def seed_int(text: str) -> int:
    """argparse type of a seed: numpy's generators take only non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be a non-negative integer, got {value}")
    return value


# The train settings, each one flag and one config-file key, with TrainConfig's
# defaults: widths as width x depth. A default's type parses its flag and key,
# except the seed's.
_TRAIN_DEFAULTS = {key: val for key, val in asdict(TrainConfig()).items() if key != "widths"}
_TRAIN_DEFAULTS.update(width=TrainConfig.widths[0], depth=len(TrainConfig.widths))
_TRAIN_TYPES = {key: seed_int if key == "seed" else type(val) for key, val in _TRAIN_DEFAULTS.items()}


def _read_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _TRAIN_DEFAULTS:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _TRAIN_TYPES[key](val.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return values


def _train_config(args) -> TrainConfig:
    """The TrainConfig of the train flags (train and bench-gen share them).

    Defaults, then ``--config`` file values, then the flags given: the train
    flags default to SUPPRESS, so ``args`` holds only those that were given.
    """
    values = dict(_TRAIN_DEFAULTS)
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    values.update(_given(args, *values))
    widths = (values.pop("width"),) * values.pop("depth")
    return TrainConfig(widths=widths, **values)


def cmd_train(args) -> int:
    dataset = io.read_dataset(args.data)
    cfg = _train_config(args)
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
    study = bench.run_estimator_study(
        seed=args.seed, **_given(args, "n", "d", "t", "k_grid", "replicates")
    )
    _emit(args, _dump(study.to_dict()))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("k,mean_error\n")
            for k, err in zip(study.k_grid, study.mean_errors):
                fh.write(f"{k},{err!r}\n")
    return EXIT_OK


def _dataset(args) -> list:
    return bench.make_synthetic_dataset(
        args.kind, args.items, args.points, args.dim, args.seed,
        **_given(args, "jitter", "radius", "blob_std"),
    )


def cmd_bench_gen(args) -> int:
    report = bench.run_toy_generation(
        _dataset(args),
        _train_config(args),
        _schedule(args),
        seed=args.seed,
        do_train=not args.no_train,
        **_given(args, n_samples="samples", n_reference="reference", n_shuffles="shuffles"),
    )
    _emit(args, _dump(report.to_dict()))
    return EXIT_OK


def cmd_make_data(args) -> int:
    dataset = _dataset(args)
    io.write_dataset(args.out, dataset)
    sys.stdout.write(_dump({"items": len(dataset), "path": str(args.out)}))
    return EXIT_OK


def int_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated list of integers; a bad one is a usage error."""
    return tuple(int(v) for v in text.split(","))


def _add_cloud_pair(p):
    p.add_argument("--x", required=True, help="first point-cloud file")
    p.add_argument("--y", required=True, help="second point-cloud file")
    p.add_argument("--t", type=float, required=True, help="time, > 0")


_SHARED_FLAGS = {
    "seed": dict(type=seed_int, default=0, help="RNG seed for all randomness"),
    "k": dict(type=int, default=argparse.SUPPRESS, help="retained MCMC samples"),
    "elements": dict(help="comma-separated element table for .xyz input"),
}


def _add_common(p, *shared, out_required=False):
    """--out and those of the shared flags --seed, --k, --elements named."""
    p.add_argument(
        "--out", required=out_required,
        help="output path" if out_required else "write data here instead of stdout",
    )
    for name in shared:
        p.add_argument("--" + name, **_SHARED_FLAGS[name])


def _add_schedule_flags(p, horizon=5.0, steps=200, grid="uniform"):
    p.add_argument("--horizon", type=float, default=horizon, help="terminal time T")
    p.add_argument("--steps", type=int, default=steps, help="grid steps")
    p.add_argument("--grid", choices=("uniform", "geometric"), default=grid)
    p.add_argument(
        "--t-end", type=float, default=argparse.SUPPRESS, dest="t_end",
        help="smallest positive grid time for the geometric grid",
    )


def _schedule(args) -> NoiseSchedule:
    if args.grid == "geometric":
        return NoiseSchedule.geometric(args.horizon, args.steps, **_given(args, "t_end"))
    return NoiseSchedule.uniform(args.horizon, args.steps)


def _add_dataset_flags(p):
    p.add_argument("--kind", required=True, choices=bench.DATASET_KINDS)
    p.add_argument("--items", type=int, default=512)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--jitter", type=float, default=argparse.SUPPRESS)
    p.add_argument("--radius", type=float, default=argparse.SUPPRESS)
    p.add_argument("--blob-std", type=float, default=argparse.SUPPRESS, dest="blob_std")


def _add_train_flags(p, skip=()):
    """One flag per train setting not in ``skip``, each defaulting to SUPPRESS."""
    for key, default in _TRAIN_DEFAULTS.items():
        if key not in skip:
            p.add_argument(
                "--" + key.replace("_", "-"), type=_TRAIN_TYPES[key], choices=TRAIN_CHOICES.get(key),
                default=argparse.SUPPRESS, help=f"default {default}",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdiff",
        description="Diffusion on unordered point clouds: kernels, posteriors, scores, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate a log heat kernel")
    _add_cloud_pair(p)
    p.add_argument("--mode", choices=("euclid", "quotient-exact"), default="quotient-exact")
    _add_common(p, "elements")

    p = sub.add_parser("posterior", help="posterior over permutations")
    _add_cloud_pair(p)
    p.add_argument("--mode", choices=("exact", "mcmc"), default="exact")
    p.add_argument("--diagnostics", help="sidecar JSON path for chain diagnostics")
    _add_common(p, "seed", "k", "elements")

    p = sub.add_parser("score", help="permutation-symmetrized score")
    _add_cloud_pair(p)
    p.add_argument("--mode", choices=("exact", "mcmc"), default="exact")
    _add_common(p, "seed", "k", "elements")

    p = sub.add_parser("forward", help="noise a cloud along a schedule")
    p.add_argument("--x", required=True, help="initial cloud file")
    _add_schedule_flags(p)
    p.add_argument("--assignment-trace", action="store_true", dest="assignment_trace")
    _add_common(p, "seed", "elements")

    p = sub.add_parser("reverse", help="integrate the reverse dynamics")
    p.add_argument("--init", required=True, help="terminal-noise cloud file")
    p.add_argument("--score-source", choices=("exact", "mcmc", "model"), default="exact", dest="score_source")
    p.add_argument("--ref", help="reference cloud for exact/mcmc score sources")
    p.add_argument("--checkpoint", help="model checkpoint for --score-source model")
    _add_schedule_flags(p)
    p.add_argument("--assignment-trace", action="store_true", dest="assignment_trace")
    _add_common(p, "seed", "k", "elements")

    p = sub.add_parser("train", help="train the equivariant score network")
    p.add_argument("--data", required=True, help="JSONL dataset path")
    p.add_argument("--config", help="key = value config file; flags given win")
    _add_train_flags(p)
    _add_common(p, out_required=True)

    p = sub.add_parser("sample", help="sample clouds from a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=16)
    _add_schedule_flags(p, steps=256, grid="geometric")
    _add_common(p, "seed")

    p = sub.add_parser("bench-score", help="MCMC-score accuracy study")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--d", type=int, default=argparse.SUPPRESS)
    p.add_argument("--t", type=float, default=argparse.SUPPRESS)
    p.add_argument("--k-grid", type=int_list, default=argparse.SUPPRESS, dest="k_grid")
    p.add_argument("--replicates", type=int, default=argparse.SUPPRESS)
    p.add_argument("--csv", help="optional per-K CSV table")
    _add_common(p, "seed")

    p = sub.add_parser("bench-gen", help="end-to-end toy generation study")
    _add_dataset_flags(p)
    # The schedule's --horizon and the dataset's --seed also set the training's.
    _add_train_flags(p, skip=("horizon", "seed"))
    _add_schedule_flags(p, steps=256, grid="geometric")
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    p.add_argument("--reference", type=int, default=argparse.SUPPRESS)
    p.add_argument("--shuffles", type=int, default=argparse.SUPPRESS)
    p.add_argument("--no-train", action="store_true", dest="no_train")
    _add_common(p, "seed")

    p = sub.add_parser("make-data", help="write a synthetic JSONL dataset")
    _add_dataset_flags(p)
    _add_common(p, "seed", out_required=True)

    return parser


_HANDLERS = {
    "kernel": cmd_kernel,
    "posterior": cmd_posterior,
    "score": cmd_score,
    "forward": cmd_forward,
    "reverse": cmd_reverse,
    "train": cmd_train,
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
    try:
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
