"""Workload definitions on the benchmark's side: seeded inputs, their
references and the checks on qbell's outputs.

This module never imports qbell; the calls into qbell live in
worker.py.  Each workload's ``ops(seed)`` gives the list of distinct
operations of one round.  A run repeats whole rounds, so every run
attempts the same operations in the same proportions.
"""

import json
import math
import random

import numpy as np

import references as ref

WIDE_ALPHAS = [5.0 + 25.0 * i / 59 for i in range(60)]
WIDE_ETAS = [0.9, 0.7, 0.5, 0.3, 0.1]
SWEEP_NARROW_PER_ROUND = 5
REPORTS_PER_ROUND = 16
ETA_GRID = [round(0.05 * k, 2) for k in range(1, 20)]

REL_TOL = 1e-9
ABS_TOL = 1e-10


def _close(got, want, rel=REL_TOL, abs_tol=ABS_TOL):
    return abs(got - want) <= max(abs_tol, rel * abs(want))


# -- sweep ---------------------------------------------------------------


def sweep_ops(seed):
    """Seeded 60-alpha x 5-eta grids with alpha in [0.05, 3], then the
    one wide grid, alpha in [5, 30], which fails on every run (see the
    README)."""
    rng = random.Random(f"sweep-{seed}")
    ops = []
    for _ in range(SWEEP_NARROW_PER_ROUND):
        alphas = [0.05] + sorted(rng.uniform(0.05, 3.0) for _ in range(59))
        etas = sorted(rng.sample(ETA_GRID, 5), reverse=True)
        ops.append({"kind": "narrow", "alphas": alphas, "etas": etas})
    ops.append({"kind": "wide", "alphas": WIDE_ALPHAS, "etas": WIDE_ETAS})
    return ops


def sweep_reference(op):
    """Nothing to precompute: the references depend on qbell's beta*."""
    return None


def _sweep_grid(alphas, etas):
    """Points in figure1_sweep order: eta descending, alpha ascending."""
    return [(a, e) for e in sorted(set(etas), reverse=True) for a in sorted(set(alphas))]


def check_sweep_rows(rows):
    """Problems found in sweep rows (alpha, eta, f, beta_star, eof_lb)."""
    problems = []
    by_point = {}
    for alpha, eta, f, beta, eof_lb in rows:
        f_ref, is_max = ref.sweep_point(alpha, eta, beta)
        if not _close(f, f_ref):
            problems.append(f"f({alpha:.4g}, {eta}) = {f} but reference {f_ref:.6g}")
        if not is_max:
            problems.append(f"beta* = {beta} is not the maximizer at ({alpha:.4g}, {eta})")
        if not _close(eof_lb, ref.eof_lower_bound(f)):
            problems.append(f"eof_lower_bound({f}) = {eof_lb}")
        by_point[(alpha, eta)] = f
    alphas = sorted({a for a, _ in by_point})
    etas = sorted({e for _, e in by_point}, reverse=True)
    for alpha in alphas:
        curve = [by_point[(alpha, e)] for e in etas if (alpha, e) in by_point]
        if any(a <= b for a, b in zip(curve, curve[1:])):
            problems.append(f"curves not strictly ordered by eta at alpha {alpha:.4g}")
    for eta in etas:
        # the paper's robustness claim: at small amplitude the overlap
        # beats the biphoton fraction eta
        if (0.05, eta) in by_point and by_point[(0.05, eta)] <= eta:
            problems.append(f"f <= eta at alpha 0.05 (eta {eta})")
    return problems


def check_sweep(op, output, reference):
    rows = output["rows"]
    problems = check_sweep_rows(rows)
    grid = _sweep_grid(op["alphas"], op["etas"])
    if [(r[0], r[1]) for r in rows] != grid[: len(rows)]:
        problems.append("sweep points out of order")
    if output.get("error"):
        problems.insert(0, output["error"])
    elif len(rows) != len(grid):
        problems.append("missing sweep points")
    return problems


# -- reports -------------------------------------------------------------


# The cost of diagnostic_fef's maximizer grows several-fold toward large
# alpha and small eta, so the loss points are stratified: point k has
# alpha in the k-th of 16 equal cells of [0.2, 2.5] and eta in cell
# ETA_CELLS[k] of [0.05, 0.95], a fixed permutation.  Every seed then
# gets the same mix of cheap and costly points, jittered within their
# cells; 16 points per round keep the seed-to-seed change of that mix
# below the run-to-run noise.
ETA_CELLS = [(5 * k + 3) % REPORTS_PER_ROUND for k in range(REPORTS_PER_ROUND)]


def reports_ops(seed):
    """Seeded (F, kappa, alpha, eta) points with a state index and a
    phase-space point for the characteristic function."""
    rng = random.Random(f"reports-{seed}")
    ops = []
    for k in range(REPORTS_PER_ROUND):
        ops.append(
            {
                "fidelity": rng.uniform(0.0, 1.0),
                "kappa": rng.uniform(0.0, 0.95),
                "alpha": 0.2 + 2.3 * (k + rng.random()) / REPORTS_PER_ROUND,
                "eta": 0.05 + 0.9 * (ETA_CELLS[k] + rng.random()) / REPORTS_PER_ROUND,
                "index": rng.choice([1, 2, 3, 4]),
                "zeta": [rng.uniform(-1.5, 1.5) for _ in range(4)],
            }
        )
    return ops


def reports_reference(op):
    alpha, eta, index = op["alpha"], op["eta"], op["index"]
    za = complex(op["zeta"][0], op["zeta"][1])
    zb = complex(op["zeta"][2], op["zeta"][3])
    werner_rho = ref.quasi_werner_density(op["fidelity"], op["kappa"])
    loss_rho = ref.decohered_density(alpha, eta)
    return {
        "quasi_bell": ref.quasi_bell(index, op["kappa"]),
        "werner_spectrum": ref.quasi_werner_spectrum(op["fidelity"], op["kappa"]),
        "werner_fef": ref.fef_magic(werner_rho),
        "loss_fef": ref.fef_magic(loss_rho),
        "loss_spectrum": sorted(np.linalg.eigvalsh(loss_rho)),
        "coherent": ref.coherent_state(index, alpha),
        "asymmetric": ref.coherent_state(2 if index in (1, 2) else 4, alpha, math.sqrt(eta) * alpha),
        "charfunc": ref.characteristic_function(index, alpha, za, zb),
    }


def check_reports(op, out, want):
    problems = []

    def close(label, got, expect, rel=REL_TOL, abs_tol=ABS_TOL):
        got, expect = np.atleast_1d(got), np.atleast_1d(expect)
        if got.shape != expect.shape or not all(
            _close(g, w, rel, abs_tol) for g, w in zip(got, expect)
        ):
            problems.append(f"{label} = {got.tolist()} but reference {expect.tolist()}")

    qb = want["quasi_bell"]
    close("normalization", out["normalization"], qb["normalization"])
    close("reduced_spectrum", out["spectrum"], qb["spectrum"])
    close("entropy", out["entropy"], qb["entropy"])
    close("concurrence", out["concurrence"], qb["concurrence"])
    close("werner spectrum", out["werner_spectrum"], want["werner_spectrum"])
    # the fraction comes from an iterative maximizer stopped at ftol 1e-12
    close("werner fef", out["werner_fef"], want["werner_fef"], rel=1e-8, abs_tol=1e-8)
    close("loss fef", out["loss_fef"], want["loss_fef"], rel=1e-8, abs_tol=1e-8)
    loss_rho = np.array([[complex(*z) for z in row] for row in out["loss_matrix"]])
    close("loss spectrum", np.linalg.eigvalsh(loss_rho), want["loss_spectrum"], abs_tol=1e-12)
    if out["werner_fef"] < op["fidelity"] - 1e-12:
        problems.append(f"fully_entangled_fraction {out['werner_fef']} < F {op['fidelity']}")
    close("eof_lower_bound", out["werner_eof_lb"], ref.eof_lower_bound(out["werner_fef"]))
    for label in ("werner", "loss"):
        if out[f"{label}_eof"] < ref.eof_lower_bound(out[f"{label}_fef"]) - 1e-12:
            problems.append(f"{label} eof_wootters below eof_lower_bound(fef)")
    co = want["coherent"]
    close("mean_photon_numbers", out["mean_photons"], co["mean_photons"])
    close("coherent_spectrum", out["coherent_spectrum"], co["spectrum"])
    close("asymmetric_spectrum", out["asymmetric_spectrum"], want["asymmetric"]["spectrum"])
    got = complex(*out["charfunc"])
    if abs(got - want["charfunc"]) > ABS_TOL:
        problems.append(f"characteristic_function = {got} but reference {want['charfunc']}")
    if not out["witness"] > 0.0:
        problems.append(f"gaussianity_witness = {out['witness']} is not > 0")
    return problems


# -- oracle --------------------------------------------------------------

ORACLE_CHECKS = 14


def oracle_ops(seed):
    """One operation kind: the default verify.run_all() battery."""
    return [{}]


def oracle_probes(seed):
    """Seeded (alpha, eta, betas) points at which family_overlap_curve is
    compared with the mpmath overlap after the timed loop."""
    rng = random.Random(f"oracle-{seed}")
    probes = []
    for _ in range(3):
        alpha = rng.uniform(0.3, 2.5)
        probes.append(
            {
                "alpha": alpha,
                "eta": rng.uniform(0.1, 0.9),
                "betas": sorted(rng.uniform(0.25 * alpha, 1.75 * alpha) for _ in range(3)),
            }
        )
    return probes


def check_oracle(op, output, reference):
    results = output["checks"]
    problems = []
    if len(results) != ORACLE_CHECKS or len({r[0] for r in results}) != ORACLE_CHECKS:
        problems.append(f"expected {ORACLE_CHECKS} distinct checks, got {len(results)}")
    problems += [f"{name}: deviation {dev:.3e} > {tol:.1e}" for name, dev, tol in results if not dev <= tol]
    return problems


def check_oracle_probes(probes, values):
    problems = []
    for probe, got in zip(probes, values):
        for beta, value in zip(probe["betas"], got):
            want = ref.family_overlap(probe["alpha"], probe["eta"], beta)
            if abs(value - want) > 1e-9:
                problems.append(
                    f"family_overlap_curve({probe['alpha']:.4g}, {probe['eta']:.4g}, "
                    f"{beta:.4g}) = {value} but reference {want}"
                )
    if len(values) != len(probes):
        problems.append("missing family_overlap_curve probes")
    return problems


# -- cli-cold ------------------------------------------------------------

DECOHERE_OUTPUT = "perfbench/out/decohere.csv"


def cli_ops(seed):
    """One fresh `python -m qbell.cli` process per operation, cycling
    through five subcommands with seeded arguments."""
    rng = random.Random(f"cli-{seed}")
    alpha = rng.uniform(0.1, 2.5)
    index = rng.choice([1, 2, 3, 4])
    fidelity, kappa = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.95)
    c_alpha, c_index = rng.uniform(0.2, 2.0), rng.choice([1, 2, 3, 4])
    zeta = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    return [
        {"command": "help", "argv": ["--help"]},
        {"command": "measures", "argv": ["measures", "--alpha", repr(alpha), "--index", str(index)]},
        {"command": "werner", "argv": ["werner", "-F", repr(fidelity), "--kappa", repr(kappa)]},
        {"command": "decohere", "argv": ["decohere", "-o", DECOHERE_OUTPUT]},
        {
            "command": "charfunc",
            "argv": [
                "charfunc", "--alpha", repr(c_alpha), "--index", str(c_index),
                "--zeta-a-re", repr(zeta[0]), "--zeta-a-im", repr(zeta[1]),
                "--zeta-b-re", repr(zeta[2]), "--zeta-b-im", repr(zeta[3]),
                "--witness",
            ],
        },
    ]


def _arg(argv, flag):
    return float(argv[argv.index(flag) + 1])


def cli_reference(op):
    argv = op["argv"]
    if op["command"] == "measures":
        alpha, index = _arg(argv, "--alpha"), int(_arg(argv, "--index"))
        kappa = ref.kappa_of_alpha(alpha)
        return {"kappa": kappa, **ref.quasi_bell(index, kappa), **ref.coherent_state(index, alpha)}
    if op["command"] == "werner":
        f, kappa = _arg(argv, "-F"), _arg(argv, "--kappa")
        return {
            "eigenvalues": ref.quasi_werner_spectrum(f, kappa),
            "fraction": ref.quasi_werner_fraction(f, kappa),
        }
    if op["command"] == "charfunc":
        za = complex(_arg(argv, "--zeta-a-re"), _arg(argv, "--zeta-a-im"))
        zb = complex(_arg(argv, "--zeta-b-re"), _arg(argv, "--zeta-b-im"))
        return {"value": ref.characteristic_function(int(_arg(argv, "--index")), _arg(argv, "--alpha"), za, zb)}
    return None


def check_cli(op, output, want):
    """``output`` holds the exit code, stdout and, for decohere, the
    CSV the command wrote."""
    if output["code"] != 0:
        return [f"exit code {output['code']}: {output['stderr'][-300:]}"]
    command = op["command"]
    if command == "help":
        text = output["stdout"]
        missing = [c for c in ("usage: qbell", "measures", "werner", "decohere", "charfunc", "verify") if c not in text]
        return [f"--help lacks {m!r}" for m in missing]
    if command == "decohere":
        lines = output["csv"].splitlines()
        if not lines or lines[0] != "alpha,eta,f,beta_star,eof_lower_bound":
            return ["decohere CSV header is wrong"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        problems = check_sweep_rows(rows)
        grid = _sweep_grid(np.linspace(0.05, 3.0, 60), [0.9, 0.7, 0.5, 0.3, 0.1])
        # the CSV carries 12 significant digits
        if len(rows) != len(grid) or not np.allclose([r[:2] for r in rows], grid, rtol=1e-11):
            problems.append("decohere CSV does not hold the default 60 x 5 grid")
        return problems
    report = json.loads(output["stdout"])
    problems = []

    def close(label, got, expect):
        got, expect = np.atleast_1d(got), np.atleast_1d(expect)
        if got.shape != expect.shape or not all(_close(g, w) for g, w in zip(got, expect)):
            problems.append(f"{label} = {got.tolist()} but reference {expect.tolist()}")

    if command == "measures":
        close("kappa", report["kappa"], want["kappa"])
        close("normalization", report["normalization"], want["normalization"])
        close("spectrum", report["spectrum"], want["spectrum"])
        close("entropy", report["entropy"], want["entropy"])
        close("concurrence", report["concurrence"], want["concurrence"])
        close("mean photons", [report["mean_photon_a"], report["mean_photon_b"]], want["mean_photons"])
    elif command == "werner":
        close("eigenvalues", report["eigenvalues"], want["eigenvalues"])
        close("entangled_fraction", report["entangled_fraction"], want["fraction"])
        close("eof_lower_bound", report["eof_lower_bound"], ref.eof_lower_bound(want["fraction"]))
        if report["eof_wootters"] < report["eof_lower_bound"] - 1e-12:
            problems.append("eof_wootters below eof_lower_bound")
    elif command == "charfunc":
        got = complex(report["real"], report["imag"])
        if abs(got - want["value"]) > ABS_TOL:
            problems.append(f"characteristic function {got} but reference {want['value']}")
        if not report["gaussianity_residual"] > 0.0:
            problems.append("gaussianity residual is not > 0")
    return problems


WORKLOADS = {
    "cli-cold": (cli_ops, cli_reference, check_cli),
    "sweep": (sweep_ops, sweep_reference, check_sweep),
    "oracle": (oracle_ops, lambda op: None, check_oracle),
    "reports": (reports_ops, reports_reference, check_reports),
}
