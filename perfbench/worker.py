"""One benchmark process: import qbell, warm up, run the operations.

Usage (started by run.py, never by hand):
    python3 perfbench/worker.py <workload> <trace 0|1>

Protocol on stdin/stdout: after ``import qbell`` and the workload's
warm-up calls the worker prints ``ready``; run.py times set-up up to
that line.  It then reads one JSON job line (operations, time budget,
round limit) and prints one JSON result line.  Each operation is timed
on its own, whatever its outcome; outputs go back to run.py, which
checks them against the references.
"""

import contextlib
import io
import json
import os
import sys
import time

WORKLOAD, TRACE = sys.argv[1], sys.argv[2] == "1"
if os.environ.get("OPENBLAS_NUM_THREADS") != "1" or os.environ.get("OMP_NUM_THREADS") != "1":
    sys.exit("worker.py expects the BLAS and OpenMP pools pinned to one thread")

_t0 = time.perf_counter()
_modules_before = len(sys.modules)
import qbell  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
IMPORT_MODULES = len(sys.modules) - _modules_before

from qbell import coherent, decoherence, measures, states, verify, werner  # noqa: E402


def run_sweep(op):
    """One decohere computation: figure1_sweep, then eof_lower_bound per point."""
    try:
        points = decoherence.figure1_sweep(op["alphas"], op["etas"])
        error = None
    except decoherence.SweepError as exc:
        points, error = exc.points, f"SweepError: {len(exc.failures)} point(s) failed"
    rows = [
        [p.alpha, p.eta, p.fraction, p.beta_star, measures.eof_lower_bound(p.fraction)]
        for p in points
    ]
    return {"rows": rows, "error": error}


def run_report(op):
    """Full analysis of one (F, kappa, alpha, eta) point."""
    index, kappa, alpha, eta = op["index"], op["kappa"], op["alpha"], op["eta"]
    qb = states.QuasiBell(index, kappa)
    out = {
        "normalization": states.normalization_constant(index, kappa),
        "spectrum": list(states.reduced_spectrum(qb)),
        "entropy": states.entropy_of_entanglement(qb),
        "concurrence": measures.concurrence_pure(states.embed_qubit(qb)),
    }
    spec = werner.QuasiWerner(op["fidelity"], kappa)
    rho = werner.build_quasi_werner(spec)
    out["werner_spectrum"] = list(werner.quasi_werner_spectrum(spec))
    out["werner_fef"] = measures.fully_entangled_fraction(rho)
    out["werner_eof"] = measures.eof_wootters(rho)
    out["werner_eof_lb"] = measures.eof_lower_bound(out["werner_fef"])
    lossy = decoherence.apply_loss(alpha, decoherence.LossChannel(eta))
    out["loss_fef"] = decoherence.diagnostic_fef(lossy)
    out["loss_eof"] = measures.eof_wootters(lossy.matrix)
    out["loss_matrix"] = lossy.matrix
    cqb = coherent.CoherentQuasiBell(index, alpha)
    out["mean_photons"] = list(coherent.mean_photon_numbers(cqb))
    out["coherent_spectrum"] = list(coherent.coherent_spectrum(cqb))
    out["asymmetric_spectrum"] = list(
        coherent.asymmetric_spectrum(alpha, eta**0.5 * alpha, 2 if index in (1, 2) else 4)
    )
    zeta = op["zeta"]
    point = coherent.CharFuncPoint(complex(zeta[0], zeta[1]), complex(zeta[2], zeta[3]))
    out["charfunc"] = coherent.characteristic_function(cqb, point)
    out["witness"] = coherent.gaussianity_witness(cqb)
    return out


def run_battery(op):
    return {"checks": [[r.name, r.deviation, r.tolerance] for r in verify.run_all()]}


def run_cli(op):
    """``qbell <argv>`` in process, for the traced run of cli-cold."""
    from qbell import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


RUNNERS = {"sweep": run_sweep, "reports": run_report, "oracle": run_battery, "cli-cold": run_cli}

# Fixed, seed-independent warm-up calls: they touch each code path once
# so that lazy set-up is paid, and counted, in setup_s.
WARMUPS = {
    "sweep": lambda: run_sweep({"alphas": [0.05, 0.5, 1.0, 3.0], "etas": [0.9, 0.1]}),
    "reports": lambda: run_report(
        {"index": 2, "kappa": 0.3, "alpha": 1.0, "eta": 0.5, "fidelity": 0.7, "zeta": [0.1, 0.2, -0.3, 0.4]}
    ),
    "oracle": lambda: run_battery({}),
    "cli-cold": lambda: None,
}


def run_one(runner, op):
    try:
        return runner(op)
    except Exception as exc:  # an operation that raises is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def to_json(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if hasattr(value, "tolist"):
        return to_json(value.tolist())
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def timed_rounds(runner, ops, budget_s, max_rounds):
    """Whole rounds of ``ops`` until ``budget_s`` of wall time has passed
    (at least one round, at most ``max_rounds``).  Each operation is
    bracketed by calibration units; a record is [input, seconds,
    output, mean seconds of the two units].  Returns the records and
    the loop's wall time."""
    # imported after ``ready``, so that set-up does not pay for the
    # unit's numpy and scipy imports
    import calib

    records = []
    begin = time.perf_counter()
    rounds = 0
    before = calib.measure()
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            out = run_one(runner, op)
            secs = time.perf_counter() - t0
            after = calib.measure()
            records.append([i, secs, out, 0.5 * (before + after)])
            before = after
        rounds += 1
        elapsed = time.perf_counter() - begin
        if rounds >= max_rounds or elapsed >= budget_s:
            return records, elapsed


def traced_round(runner, ops, trace_path):
    """One round under the span wrappers; returns records and the
    per-layer metrics."""
    import spans

    if WORKLOAD == "cli-cold":
        # imported here so that the first traced operation does not pay for it
        from qbell import cli  # noqa: F401
    tracer = spans.Tracer()
    targets = [f"{m}.{f}" for m, names in spans.TRACED.items() for f in names]
    tracer.install(qbell, targets + spans.INCLUSIVE)
    records = []
    try:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            with tracer.span("op", op=i):
                if WORKLOAD == "cli-cold":
                    with tracer.span(f"cli.main.{op['command']}"):
                        out = run_one(runner, op)
                else:
                    out = run_one(runner, op)
            records.append([i, time.perf_counter() - t0, out, None])
    finally:
        tracer.uninstall()
    totals, per_op = tracer.summary()
    n_ops = len(ops)
    metrics = {"import.qbell_s": IMPORT_S, "import.modules": IMPORT_MODULES}
    for name, _ in spans.per_layer_metrics():
        if name in metrics:
            continue
        base, _, field = name.rpartition(".")
        row = totals.get(base, [0, 0.0, 0.0, 0])
        if field == "calls":
            metrics[name] = row[0] / n_ops
        elif field == "self_ms":
            metrics[name] = 1e3 * row[2] / n_ops
        elif field == "ms" and base.startswith("cli.main."):
            metrics[name] = 1e3 * row[1] / row[0] if row[0] else 0.0
        elif field == "ms":
            metrics[name] = 1e3 * row[1] / n_ops
    points = tracer.finished_sweep_points()
    calls = totals.get("decoherence.fraction_over_family", [0])[0]
    metrics["decoherence.fraction_over_family.calls_per_point"] = calls / points if points else 0.0
    self_sum_gap = max(abs(own - wall) / wall for wall, own in per_op.values())
    tracer.write(trace_path)
    return records, {
        "metrics": metrics,
        "op_wall_ms": [1e3 * wall for _, (wall, _) in sorted(per_op.items())],
        "self_sum_gap": self_sum_gap,
        "spans": len(tracer.start),
    }


def peak_rss_kb():
    """This process's own peak RSS (VmHWM).  Not ru_maxrss: Linux carries
    the spawning parent's peak over into it across exec."""
    with open("/proc/self/status") as handle:
        return int(next(line.split()[1] for line in handle if line.startswith("VmHWM:")))


def main():
    runner = RUNNERS[WORKLOAD]
    WARMUPS[WORKLOAD]()
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    result = {}
    records, result["loop_s"] = [], 0.0
    if TRACE:
        records, result["trace"] = traced_round(runner, job["ops"], job["trace_path"])
    elif job["ops"]:
        records, result["loop_s"] = timed_rounds(runner, job["ops"], job["budget_s"], job["max_rounds"])
    result["maxrss_kb"] = peak_rss_kb()
    result["records"] = records
    # checked after the timed loop and after the peak-RSS reading, so
    # their seeded inputs cannot grow the splitter-block cache being measured
    result["probes"] = [
        verify.family_overlap_curve(p["alpha"], p["eta"], p["betas"])
        for p in job.get("probes", [])
    ]
    sys.stdout.write(json.dumps(to_json(result)) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
