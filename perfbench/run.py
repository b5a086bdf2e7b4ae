"""permdiff benchmark: one workload per call, closed loop, checked outputs.

    python3 perfbench/run.py --workload toy-gen --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One caller issues each operation when the previous one returns. With
``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics from the
span recorder. Lines before it give the run metadata and every metric with
its unit and sample count.

This launcher imports no numpy. It starts the workload in a child process
whose environment lacks the BLAS thread variables, so the package's own
threading default is what gets measured, and whose peak RSS is the
workload's alone. ``setup_s`` is the median time from starting such a
process to its first timed operation, over several processes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # set-up-only processes, besides the measured one
# Headroom beyond --seconds for set-up, the B2 probe and the last round.
GRACE_SECONDS = 120.0


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(argv: list[str], timeout: float):
    """Run one worker; return (seconds until READY, output lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT, env=worker_env(),
        stdout=subprocess.PIPE, text=True,
    )
    lines: list[str] = []
    ready: list[float] = []

    def read():
        for line in proc.stdout:
            if not ready and line.strip() == "READY":
                ready.append(time.perf_counter() - start)
            lines.append(line)

    reader = threading.Thread(target=read)
    reader.start()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        reader.join()
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s")
    reader.join()
    if code != 0 or not ready:
        raise WorkerFailed(f"worker exited with code {code}")
    return ready[0], lines


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: small sizes, and one deliberately failing operation.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads):
        print(f"unknown workload {args.workload!r}; choose from {workloads} or all",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "permdiff" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'permdiff'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return max(run_one(args, workload, wanted) for workload in chosen)


def run_one(args, workload: str, wanted: list[dict]) -> int:
    """Run and report one workload; the report ends with its result line."""
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    if args.inject_failure:
        argv.append("--inject-failure")
    try:
        setups = []
        if not args.trace:
            for _ in range(1 if args.tiny else SETUP_PROBES):
                setups.append(run_worker(argv + ["--setup-only"], GRACE_SECONDS)[0])
        ready, lines = run_worker(argv, args.seconds + GRACE_SECONDS)
        result = json.loads(lines[-1])["result"]
    except (WorkerFailed, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    counts = result["counts"]
    if not args.trace:
        setups.append(ready)
        values["setup_s"] = median(setups)
        counts["setup_s"] = len(setups)
    meta = dict(result["meta"], workload=workload, seed=args.seed, trace=args.trace,
                commit=git_commit())
    print(json.dumps({"meta": meta}))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{attempted} operations, {failed} failed {result['reasons']}, "
          f"correct={result['correct']}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for reason, (hits, checks) in result["defects"].items():
        print(f"  known defect {reason}: {hits} of {checks} checks (not counted as failed)")

    metrics, missing = {}, list(result["missing"])
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in values:
            missing.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  (n={counts[name]})" if name in counts else ""
        if name == "query_ms_tail" and counts.get("query_ms_tail_percentile"):
            note = f"  (p{counts['query_ms_tail_percentile']:g}, n={counts[name]})"
        print(f"  {name} = {values[name]:.6g} {unit}{note}")
    for name, m in result["extras"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  (n={counts[name]}, not bounded)")
    for name in missing:
        print(f"  missing: {name}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
