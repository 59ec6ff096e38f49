"""Every qbell function that the benchmark's traced run wraps exists.

perfbench/spans.py looks each name up with getattr when a traced run
starts, so a renamed or deleted function would crash that run.  The file
is read with ast here: it is neither imported nor edited.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _literal(name):
    """The literal value assigned to the module-level ``name`` in spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {SPANS.name}")


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
