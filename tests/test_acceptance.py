"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failed assertion marks the criterion FAIL).
"""

import subprocess
import sys

import numpy as np

from qbell import coherent, decoherence, fock, measures, states, verify, werner
from qbell.decoherence import LossChannel


def _report(label, detail):
    print(f"PASS  {label}: {detail}")


def test_criterion_1_maximal_entanglement_invariance():
    worst = 0.0
    for kappa in np.linspace(0.0, 0.999, 50):
        for index in (2, 4):
            ent = states.entropy_of_entanglement(states.QuasiBell(index, kappa))
            worst = max(worst, abs(ent - 1.0))
    assert worst <= 1e-12
    _report("criterion 1 (unit entropy, indices 2 and 4)", f"max |E-1| = {worst:.2e}")


def test_criterion_2_spectrum_equivalence():
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 3.0):
        kappa = coherent.overlap_of_amplitude(alpha)
        for index in (1, 2, 3, 4):
            closed = states.reduced_spectrum(states.QuasiBell(index, kappa))
            vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(index, alpha))
            numeric = np.sort(
                np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,)))
            )[::-1][:2]
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst <= 1e-9
    _report("criterion 2 (closed-form vs Fock spectra)", f"max dev = {worst:.2e}")


def test_criterion_3_quasi_werner_eigenvalues():
    worst = 0.0
    worst_sum = 0.0
    for fid in np.linspace(0.0, 1.0, 10):
        for kappa in np.linspace(0.0, 0.95, 10):
            spec = werner.QuasiWerner(fid, kappa)
            closed = werner.quasi_werner_spectrum(spec)
            numeric = np.sort(np.linalg.eigvalsh(werner.build_quasi_werner(spec)))[::-1]
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
            worst_sum = max(worst_sum, abs(closed.sum() - 1.0))
    assert worst <= 1e-10
    assert worst_sum <= 1e-15  # exact up to final rounding
    _report(
        "criterion 3 (quasi-Werner eigenvalues)",
        f"max dev = {worst:.2e}, max |sum-1| = {worst_sum:.2e}",
    )


def test_criterion_4_bound_consistency():
    worst_violation = -np.inf
    for fid in np.linspace(0.0, 1.0, 10):
        for kappa in np.linspace(0.0, 0.95, 10):
            spec = werner.QuasiWerner(fid, kappa)
            eof = measures.eof_wootters(werner.build_quasi_werner(spec))
            worst_violation = max(
                worst_violation, measures.eof_lower_bound(fid) - eof
            )
    assert worst_violation <= 1e-9
    worst_eq = 0.0
    for fid in np.linspace(0.5, 1.0, 11):
        eof = measures.eof_wootters(
            werner.build_quasi_werner(werner.QuasiWerner(fid, 0.0))
        )
        worst_eq = max(worst_eq, abs(eof - measures.eof_lower_bound(fid)))
    assert worst_eq <= 1e-9
    _report(
        "criterion 4 (formation bound)",
        f"max bound excess = {worst_violation:.2e}, max eq. dev = {worst_eq:.2e}",
    )


def test_criterion_5_decoherence_formula():
    worst = 0.0
    count = 0
    for alpha in (0.1, 0.5, 1.0, 2.0, 3.0):
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            state = decoherence.apply_loss(alpha, LossChannel(eta))
            betas = np.linspace(0.1, 2.0 * alpha, 20)
            closed = np.array(
                [decoherence.fraction_over_family(state, b) for b in betas]
            )
            numeric = verify.family_overlap_curve(alpha, eta, betas)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
            count += len(betas)
    assert count >= 500
    assert worst <= 1e-9
    _report(
        "criterion 5 (overlap formula vs Fock oracle)",
        f"max dev = {worst:.2e} over {count} points",
    )


def test_criterion_6_maximizer():
    # beta* against the closed-form search and against the Fock oracle's
    # peak: the vertex of the parabola through the oracle overlaps at
    # beta*(1 - h), beta* and beta*(1 + h), relative to beta*
    h = 3e-5
    worst_rel = worst_vertex = 0.0
    for alpha in np.linspace(0.3, 3.0, 10):
        for eta in np.linspace(0.1, 0.9, 9):
            channel = LossChannel(eta)
            beta_star, _ = decoherence.optimal_beta(alpha, channel)
            beta_num, _ = decoherence.search_optimal_beta(alpha, eta)
            worst_rel = max(worst_rel, abs(beta_num - beta_star) / beta_star)
            low, mid, high = verify.family_overlap_curve(
                alpha, eta, beta_star * np.array([1.0 - h, 1.0, 1.0 + h])
            )
            vertex = 0.5 * h * (low - high) / (low - 2.0 * mid + high)
            worst_vertex = max(worst_vertex, abs(vertex))
    assert worst_rel <= 1e-6
    assert worst_vertex <= 1e-6
    worst_unit = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 3.0):
        _, f_star = decoherence.optimal_beta(alpha, LossChannel(1.0))
        worst_unit = max(worst_unit, abs(f_star - 1.0))
    assert worst_unit <= 1e-12
    _report(
        "criterion 6 (optimal amplitude)",
        f"max rel dev = {worst_rel:.2e}, Fock vertex = {worst_vertex:.2e}, "
        f"max |f*(eta=1)-1| = {worst_unit:.2e}",
    )


def test_criterion_7_biphoton_comparison():
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 0.0):
        assert decoherence.biphoton_fraction(LossChannel(eta)) == eta
    margins = []
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        _, f_star = decoherence.optimal_beta(0.1, LossChannel(eta))
        margins.append(f_star - eta)
        assert f_star > eta
    _report(
        "criterion 7 (biphoton comparison)",
        f"min margin of f*(0.1, eta) over eta = {min(margins):.3f}",
    )


def test_criterion_8_figure_shape():
    alphas = np.linspace(0.05, 3.0, 60)
    etas = (0.9, 0.7, 0.5, 0.3, 0.1)
    points = decoherence.figure1_sweep(alphas, etas)
    assert len(points) == 300
    curves = {e: [p.fraction for p in points if p.eta == e] for e in etas}
    ordered = sorted(etas, reverse=True)
    for high, low in zip(ordered, ordered[1:]):
        assert all(h > l for h, l in zip(curves[high], curves[low]))
    for curve in curves.values():
        assert all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))
    _report(
        "criterion 8 (sweep shape)",
        "f* strictly increasing in eta and non-increasing in alpha at 300 points",
    )


def test_criterion_9_characteristic_functions(log_fit_residual):
    p0 = coherent.CharFuncPoint(0.0, 0.0)
    worst_norm = 0.0
    for alpha in (0.5, 1.0):
        for index in (1, 2, 3, 4):
            value = coherent.characteristic_function(
                coherent.CoherentQuasiBell(index, alpha), p0
            )
            worst_norm = max(worst_norm, abs(value - 1.0))
    assert worst_norm <= 1e-12

    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(50):
        index = int(rng.integers(1, 5))
        alpha = float(rng.choice([0.5, 1.0]))
        state = coherent.CoherentQuasiBell(index, alpha)
        vec = fock.quasi_bell_fock(state)
        za, zb = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        point = coherent.CharFuncPoint(za, zb)
        worst = max(
            worst,
            abs(
                coherent.characteristic_function(state, point)
                - fock.operator_trace_charfunc(vec, point)
            ),
        )
    assert worst <= 1e-8

    n = fock.adequate_truncation(0.7)
    control = np.outer(fock.coherent_vector(0.7, n), fock.coherent_vector(0.3, n))
    control_res = log_fit_residual(lambda p: fock.operator_trace_charfunc(control, p))
    assert control_res <= 1e-9
    cat_res = coherent.gaussianity_witness(coherent.CoherentQuasiBell(2, 1.0))
    assert cat_res > 1e-3
    _report(
        "criterion 9 (characteristic functions)",
        f"max oracle dev = {worst:.2e}, control residual = {control_res:.1e}, "
        f"cat residual = {cat_res:.3f}",
    )


def test_criterion_10_asymmetric_amplitudes():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 2.2))
        beta = float(rng.uniform(0.2, 2.2))
        closed = coherent.asymmetric_spectrum(alpha, beta, 2)
        vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, alpha, beta))
        numeric = np.sort(
            np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,)))
        )[::-1][:2]
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst <= 1e-10

    betas = np.arange(0.5, 1.5, 1e-3)
    entropies = [
        measures.binary_entropy(coherent.asymmetric_spectrum(1.0, b, 2)[0])
        for b in betas
    ]
    argmax = betas[int(np.argmax(entropies))]
    assert abs(argmax - 1.0) <= 1e-3 + 1e-12
    _report(
        "criterion 10 (asymmetric amplitudes)",
        f"max dev = {worst:.2e}, entropy argmax at beta = {argmax:.4f}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "decohere", "--output", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(
        "criterion 11 (CLI determinism)",
        f"two default sweeps byte-identical ({out1.stat().st_size} bytes)",
    )
