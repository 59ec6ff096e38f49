"""qbell benchmark: one command, four workloads, a traced per-layer mode.

    python3 perfbench/run.py --workload <cli-cold|sweep|oracle|reports>
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout; qbell is taken from ./src.  This
process never imports qbell.  It makes the seeded inputs and their
references, starts one worker process at a time (perfbench/worker.py,
or for cli-cold one ``python -m qbell.cli`` process per operation),
checks every output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported, here and in every child

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUPS = 3  # fresh interpreters per run; setup_s is their median


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("QBELL_TRUNCATION", None)  # the oracle runs with its default truncations
    return env


# One fresh ``python -m qbell.cli`` process, as ``-m`` runs it, except
# that at exit it writes its own peak RSS (VmHWM, in kB) to the file named
# by PERFBENCH_PEAK_FILE.  The ru_maxrss that wait4 returns is no use:
# Linux carries the spawning parent's peak over into the child across
# exec, and this process, with numpy and mpmath loaded, can be larger
# than a qbell.cli process.
CLI_SHIM = """\
import atexit, os, runpy

def _write_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_FILE"], "w") as out:
        out.write(kb)

atexit.register(_write_peak)
runpy.run_module("qbell.cli", run_name="__main__", alter_sys=True)
"""
PEAK_FILE = os.path.join(OUT, "cli-peak-kb")


def start_worker(workload, trace):
    """Start a worker and time it from launch to its ``ready`` line.
    Returns the process and [seconds, mean seconds of the calibration
    units run just before the launch and just after ``ready``]."""
    before = calib.measure()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(int(trace))],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} did not start (exit {proc.returncode})")
    return proc, [setup_s, 0.5 * (before + calib.measure())]


def finish_worker(proc, job):
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_cli_process(op):
    """One cold ``python -m qbell.cli`` process: wall time, output, peak
    RSS in kB."""
    if os.path.exists(PEAK_FILE):
        os.remove(PEAK_FILE)  # left by an interrupted run
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI_SHIM, *op["argv"]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=dict(child_env(), PERFBENCH_PEAK_FILE=PEAK_FILE),
        text=True,
    )
    try:
        stdout, stderr = proc.communicate()
    finally:
        proc.wait()
    seconds = time.perf_counter() - t0
    if not os.path.exists(PEAK_FILE):
        raise BenchError(f"qbell.cli {' '.join(op['argv'])} wrote no peak RSS")
    with open(PEAK_FILE) as handle:
        peak_kb = int(handle.read())
    os.remove(PEAK_FILE)
    return seconds, {"code": proc.returncode, "stdout": stdout, "stderr": stderr}, peak_kb


def attach_csv(op, output):
    """Move the CSV a decohere command wrote into its output record."""
    if op["command"] != "decohere":
        return
    path = os.path.join(ROOT, workloads.DECOHERE_OUTPUT)
    if os.path.exists(path):
        with open(path) as handle:
            output["csv"] = handle.read()
        os.remove(path)
    else:
        output["csv"] = ""


def measure(workload, ops, seconds, trace, smoke, seed):
    """Run the workload; returns (records, setup samples, peak RSS KB,
    probe values, trace summary)."""
    records, setups, peak_kb = [], [], 0
    probes = workloads.oracle_probes(seed) if workload == "oracle" else []
    if trace:
        proc, setup_s = start_worker(workload, True)
        path = os.path.join(OUT, f"trace-{workload}.json.gz")
        result = finish_worker(proc, {"ops": ops, "trace_path": path, "probes": probes})
        if workload == "cli-cold":
            # one decohere per round, so the file holds its CSV
            for i, _, out, _ in result["records"]:
                attach_csv(ops[i], out)
        return result["records"], [setup_s], result["maxrss_kb"], result["probes"], result["trace"]
    n_setups = 1 if smoke else SETUPS
    max_rounds = 1 if smoke else 10**6
    if workload == "cli-cold":
        for _ in range(n_setups):
            proc, setup_s = start_worker(workload, False)
            finish_worker(proc, {"ops": []})
            setups.append(setup_s)
        begin, rounds = time.perf_counter(), 0
        before = calib.measure()
        while rounds < max_rounds and (rounds == 0 or time.perf_counter() - begin < seconds):
            for i, op in enumerate(ops):
                secs, output, rss = run_cli_process(op)
                after = calib.measure()
                attach_csv(op, output)
                records.append([i, secs, output, 0.5 * (before + after)])
                before = after
                peak_kb = max(peak_kb, rss)
            rounds += 1
        return records, setups, peak_kb, [], None
    timed, result = 0.0, None
    for k in range(n_setups):
        proc, setup_s = start_worker(workload, False)
        setups.append(setup_s)
        # spread what is left of the budget over the remaining workers
        job = {
            "ops": ops,
            "budget_s": max(0.0, seconds - timed) / (n_setups - k),
            "max_rounds": max_rounds,
            "probes": probes if k == n_setups - 1 else [],
        }
        result = finish_worker(proc, job)
        records += result["records"]
        timed += result["loop_s"]
        peak_kb = max(peak_kb, result["maxrss_kb"])
    return records, setups, peak_kb, result["probes"], None


def evaluate(workload, ops, references, records):
    """Check every output; returns (failed count, unexpected problems,
    notes on the expected failures)."""
    check = workloads.WORKLOADS[workload][2]
    verdicts = {}
    failed, unexpected, expected = 0, [], {}
    for i, _, out, _ in records:
        key = (i, json.dumps(out, sort_keys=True))
        if key not in verdicts:
            if set(out) == {"error"}:
                verdicts[key] = [out["error"]]
            else:
                verdicts[key] = check(ops[i], out, references[i])
        problems = verdicts[key]
        if not problems:
            continue
        failed += 1
        if ops[i].get("kind") == "wide":
            expected[i] = problems
        else:
            unexpected.append(f"operation {i}: " + "; ".join(problems[:3]))
    return failed, unexpected, expected


def normalized(secs, unit_s):
    """Seconds on a host of reference speed (calib.py)."""
    return secs / unit_s * calib.REFERENCE_MS * 1e-3


def summarize(records, setups, peak_kb):
    """End-to-end metrics from normalized times.  Latency is the median
    over distinct inputs of each input's median repeat (README: The
    estimator)."""
    repeats = {}
    for i, secs, _, unit_s in records:
        repeats.setdefault(i, []).append(normalized(secs, unit_s))
    typical = [statistics.median(times) for times in repeats.values()]
    return {
        "latency_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
        "ops_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(normalized(*s) for s in setups), "unit": "s"},
    }


def raw_line(records, setups):
    """The same medians without normalization (printed, not part of the
    result)."""
    return (
        f"raw wall time: operation median {1e3 * statistics.median(r[1] for r in records):.3f} ms, "
        f"set-up median {statistics.median(s[0] for s in setups):.4f} s, "
        f"calibration unit median {1e3 * statistics.median(r[3] for r in records):.3f} ms"
    )


def tail_line(records):
    """The highest percentile with at least ten samples beyond it, for
    runs of 40 operations or more, from normalized times (printed, not
    part of the result)."""
    times = sorted(normalized(secs, unit_s) for _, secs, _, unit_s in records)
    n = len(times)
    if n < 40:
        return f"latency_tail_ms: not reported ({n} operations < 40)"
    return (
        f"latency_tail_ms: {1e3 * times[n - 11]:.3f} ms "
        f"(p{100.0 * (n - 10) / n:.1f} of {n} operations)"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round in one worker, all checks on")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qbell", "__init__.py")):
        raise BenchError(f"no qbell sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)

    make_ops, make_reference, _ = workloads.WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    references = [make_reference(op) for op in ops]
    records, setups, peak_kb, probe_values, trace = measure(
        args.workload, ops, args.seconds, bool(args.trace), args.smoke, args.seed
    )
    failed, unexpected, expected = evaluate(args.workload, ops, references, records)
    if args.workload == "oracle":
        unexpected += workloads.check_oracle_probes(workloads.oracle_probes(args.seed), probe_values)
    if trace is not None and trace["self_sum_gap"] > 1e-6:
        unexpected.append(f"self times miss the traced wall time by {trace['self_sum_gap']:.2e}")

    for i, problems in sorted(expected.items()):
        print(f"expected failure, operation {i} ({len(problems)} problems): " + "; ".join(problems[:3]))
    for line in unexpected:
        print(f"UNEXPECTED: {line}")
    if trace is not None:
        walls = trace["op_wall_ms"]
        print(f"traced {len(walls)} operations, {trace['spans']} spans, "
              f"median traced wall {statistics.median(walls):.3f} ms")
        units = dict(spans.per_layer_metrics())
        metrics = {name: {"value": trace["metrics"][name], "unit": units[name]} for name in units}
    else:
        metrics = summarize(records, setups, peak_kb)
        print(raw_line(records, setups))
        print(tail_line(records))
    with open(os.path.join(OUT, f"times-{args.workload}-{args.trace}.json"), "w") as handle:
        json.dump({"setups": setups, "times": [[i, s, u] for i, s, _, u in records]}, handle)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
