"""The benchmark's traced run still finds every entry point it wraps.

perfbench/spans.py swaps timing wrappers into the package at the names its
``SITES`` table lists, and perfbench/worker.py's ``TargetCapture`` wraps the
batch-target function where ``score_model`` looks it up. A name the package
no longer has is reported as missing and its per-layer metrics read 0, so a
deletion or rename in the package must fail here first. The benchmark files
are parsed, not imported, so that no test writes under perfbench/.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_constant(path: Path, name: str, owner: str | None = None):
    """The literal value assigned to ``name`` at module level, or in class ``owner``."""
    body = ast.parse(path.read_text()).body
    if owner is not None:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner).body
    for node in body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path}")


def _resolves(module_name: str, attr: str) -> bool:
    """Whether spans.Recorder.install would find ``attr`` (dotted) in permdiff.<module_name>."""
    owner = importlib.import_module(f"permdiff.{module_name}")
    *owner_path, leaf = attr.split(".")
    for part in owner_path:
        owner = getattr(owner, part, None)
    return owner is not None and callable(getattr(owner, leaf, None))


SITES = _module_constant(PERFBENCH / "spans.py", "SITES")


@pytest.mark.parametrize("name", sorted(SITES))
def test_every_span_resolves_at_one_of_its_sites(name):
    assert any(_resolves(module, attr) for module, attr in SITES[name]), SITES[name]


def test_target_capture_finds_the_batch_target_function():
    attr = _module_constant(PERFBENCH / "worker.py", "NAME", owner="TargetCapture")
    assert attr == "ou_conditional_scores_batch"
    assert _resolves("score_model", attr)
