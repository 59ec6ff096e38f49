"""The benchmark's own quick tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's test suite.  The tests
check the references at known limits, that the span wrappers restore
every binding they patch, that BENCHMARK.json lists exactly the metrics
run.py prints, and that every workload passes a smoke run (one round,
all checks on) in both modes.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import references as ref
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_bell_values_at_zero_overlap(index):
    qb = ref.quasi_bell(index, 0.0)
    assert qb["normalization"] == pytest.approx(2**-0.5, abs=1e-15)
    assert qb["spectrum"] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert qb["entropy"] == pytest.approx(1.0, abs=1e-15)
    assert qb["concurrence"] == pytest.approx(1.0, abs=1e-15)


def test_werner_spectrum_at_zero_overlap():
    assert ref.quasi_werner_spectrum(0.7, 0.0) == pytest.approx([0.7, 0.1, 0.1, 0.1], abs=1e-15)


def test_lossless_overlap_at_beta_alpha_is_one():
    for alpha in (0.05, 0.7, 2.5):
        assert ref.family_overlap(alpha, 1.0, alpha) == pytest.approx(1.0, abs=1e-15)
        f, is_max = ref.sweep_point(alpha, 1.0, alpha)
        assert is_max and f == pytest.approx(1.0, abs=1e-15)


def test_bell_state_fef_is_one():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2.0)
    assert ref.fef_magic(np.outer(phi_plus, phi_plus)) == pytest.approx(1.0, abs=1e-15)
    assert ref.fef_magic(np.diag([1.0, 0, 0, 0])) == pytest.approx(0.5, abs=1e-15)
    assert ref.fef_magic(ref.quasi_werner_density(0.8, 0.0)) == pytest.approx(0.8, abs=1e-14)


def test_reference_maximizer_is_the_peak():
    alpha, eta = 1.3, 0.4
    peak = alpha * (1 + eta**0.5) / 2
    assert ref.sweep_point(alpha, eta, peak)[1]
    assert not ref.sweep_point(alpha, eta, peak * 1.001)[1]


def test_references_never_import_qbell():
    code = "import sys, calib, references, workloads; print('qbell' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    assert out.stdout.strip() == "False"


def test_wrappers_restore_every_binding():
    sys.path.insert(0, SRC)
    try:
        import qbell
        from qbell import cli, verify, werner  # noqa: F401  (every module loaded)
    finally:
        sys.path.remove(SRC)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qbell"]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = spans.Tracer()
    targets = [f"{m}.{f}" for m, names in spans.TRACED.items() for f in names]
    tracer.install(qbell, targets + spans.INCLUSIVE)
    try:
        # werner binds its own copy of states.embed_qubit
        assert werner.embed_qubit is not before[("qbell.werner", "embed_qubit")]
        assert werner.embed_qubit is qbell.states.embed_qubit
        with tracer.span("op", op=0):
            werner.build_quasi_werner(werner.QuasiWerner(0.6, 0.3))
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    totals, per_op = tracer.summary()
    assert totals["states.embed_qubit"][0] == 4
    wall, own = per_op[0]
    assert own == pytest.approx(wall, rel=1e-9)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in spans.per_layer_metrics()]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in spans.per_layer_metrics()]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "latency_p50_ms", "ops_per_s", "peak_rss_mb", "setup_s",
    }


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-cold", "sweep", "oracle", "reports"])
def test_smoke(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    # the wide-amplitude sweep grid is the one operation kept failing
    assert result["failed"] == (1 if workload == "sweep" else 0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
