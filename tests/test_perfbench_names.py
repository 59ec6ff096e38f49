"""Every qbell function that the benchmark's traced run wraps exists.

perfbench/spans.py looks each name up with getattr when a traced run
starts, so a renamed or deleted function would crash that run, and
perfbench/workloads.py counts the verify battery's checks.  Both files
are read with ast here: they are neither imported nor edited.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _literal(name, path=SPANS):
    """The literal value assigned to the module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path.name}")


def test_traced_functions_exist():
    traced = _literal("TRACED")
    assert traced
    for module, names in traced.items():
        qbell_module = importlib.import_module(f"qbell.{module}")
        for name in names:
            assert callable(getattr(qbell_module, name, None)), f"qbell.{module}.{name}"


def test_traced_verify_checks_exist():
    verify = importlib.import_module("qbell.verify")
    checks = _literal("VERIFY_CHECKS")
    assert checks
    for name in checks:
        assert callable(getattr(verify, f"check_{name}", None)), f"qbell.verify.check_{name}"
    # INCLUSIVE adds the battery itself
    assert '"verify.run_all"' in SPANS.read_text()
    assert callable(getattr(verify, "run_all", None))


def test_battery_matches_the_benchmark():
    # the traced run names each check, and the oracle workload counts
    # them; workloads.py is read with ast too
    verify = importlib.import_module("qbell.verify")
    names = [r.name for r in verify.run_all()]
    assert names == _literal("VERIFY_CHECKS")
    assert len(names) == _literal("ORACLE_CHECKS", WORKLOADS)
