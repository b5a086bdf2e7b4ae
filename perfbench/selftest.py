"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that span self times are non-negative and inside their parents, that a
seed always generates the same inputs, that an injected failing operation is
counted, that the B2 probe uses criterion 7's data and its divergence is
reported apart from failed operations, that the oracle gives the closed-form
kernel, and that the benchmark refuses to run without the package source.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["meta"], json.loads(lines[-1]), proc.stdout


def check_output(workload: str, trace: int, meta, last, stdout) -> None:
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    label = f"{workload} trace={trace}"
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(isinstance(last["attempted"], int) and last["attempted"] >= 1
          and isinstance(last["failed"], int), f"{label}: attempted and failed are counts")
    for m in wanted:
        got = last["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"] and math.isfinite(got["value"])
              and f"  {m['name']} = " in stdout and f" {m['unit']}" in stdout,
              f"{label}: {m['name']} printed in {m['unit']}")
    check(meta["openblas"]["threads"] is not None and meta["nproc"] >= 1,
          f"{label}: metadata has nproc and the OpenBLAS thread count")


def main() -> int:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    from oracle import Oracle
    from spans import check_spans
    from worker import jittered_template

    value = Oracle().solve(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), 0.5).log_kernel
    check(abs(value - math.log((1.0 + math.exp(-1.0)) / (2.0 * math.pi))) < 1e-12,
          "oracle: closed-form two-point kernel")

    from permdiff.bench import make_synthetic_dataset

    pkg = np.stack([c.points for c in make_synthetic_dataset(
        "jittered-template", 512, 3, 2, seed=42, jitter=0.05)])
    check(np.array_equal(pkg, jittered_template(42, 512, 3)),
          "B2 probe data equals criterion 7's dataset")

    digests = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            proc = bench(name, 3, trace)
            check(proc.returncode == 0, f"{name} trace={trace}: exit code 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            meta, last, stdout = parse(proc)
            check_output(name, trace, meta, last, stdout)
            digests.setdefault(name, set()).add(meta["inputs_sha256"])
            if trace == 0:
                digests[name, "result"] = last
                if name == "toy-gen":
                    check(last["failed"] == 0 and last["correct"]
                          and "known defect b2-probe-diverged: 1 of 1 checks" in stdout,
                          "toy-gen: the B2 probe's divergence is reported apart from failed")
            else:
                spans = json.loads((OUT / f"spans-{name}.json").read_text())["spans"]
                problems = check_spans(spans)
                check(bool(spans) and not problems,
                      f"{name}: {len(spans)} spans, self times >= 0 and inside parents")
                for p in problems[:5]:
                    print("    ", p)
        check(len(digests.get(name, ())) == 1, f"{name}: same seed, byte-identical inputs")

    proc = bench("toy-gen", 4, 0)
    other = parse(proc)[0]["inputs_sha256"] if proc.returncode == 0 else None
    check(other is not None and other not in digests.get("toy-gen", ()),
          "toy-gen: another seed, other inputs")

    base = digests.get(("toy-gen", "result"))
    proc = bench("toy-gen", 3, 0, "--inject-failure")
    if base is not None and proc.returncode == 0:
        _, inj, _ = parse(proc)
        check(inj["attempted"] == base["attempted"] + 1 and inj["failed"] == base["failed"] + 1
              and inj["correct"] is False,
              f"injected failure counted: {base['failed']}/{base['attempted']} -> "
              f"{inj['failed']}/{inj['attempted']}, correct={inj['correct']}")
    else:
        check(False, "injected-failure run")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("toy-gen", 3, 0, cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the package source: exit code {proc.returncode}, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
