import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qbell import coherent, decoherence, fock, verify


def test_adequate_truncation_rule():
    assert fock.adequate_truncation(0.0) == 30
    assert fock.adequate_truncation(3.0) == 61
    with pytest.raises(fock.TruncationError):
        fock.coherent_vector(1.0, 5)


def test_coherent_vector():
    vac = fock.coherent_vector(0.0, 30)
    assert vac[0] == 1.0 and np.all(vac[1:] == 0.0)
    vec = fock.coherent_vector(1.0, 40)
    assert abs(np.vdot(vec, vec).real - 1.0) < 1e-14
    overlap = np.vdot(vec, fock.coherent_vector(-1.0, 40)).real
    assert abs(overlap - np.exp(-2.0)) < 1e-12
    big = fock.coherent_vector(3.0, 61)
    mean = np.sum(np.arange(62) * np.abs(big) ** 2)
    assert abs(mean - 9.0) < 1e-9


def test_quasi_bell_fock_norm_and_spectra():
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, 1.0))
    lam = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1][:2]
    assert np.allclose(lam, [0.5, 0.5], atol=1e-10)
    kappa = np.exp(-2.0)
    denom = 2 * (1 + kappa**2)
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(1, 1.0))
    lam = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1][:2]
    assert np.allclose(
        lam, [(1 + kappa) ** 2 / denom, (1 - kappa) ** 2 / denom], atol=1e-10
    )
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(4, 0.3))
    entropy = fock.von_neumann_entropy(fock.partial_trace(vec, keep=(0,)))
    assert abs(entropy - 1.0) < 1e-9


def test_beam_splitter_coherent_rule():
    n = fock.adequate_truncation(1.0)
    vac = np.zeros(n + 1, dtype=complex)
    vac[0] = 1.0
    out = fock.beam_splitter(np.outer(fock.coherent_vector(1.0, n), vac), 0.5)
    target = np.outer(
        fock.coherent_vector(np.sqrt(0.5), n), fock.coherent_vector(np.sqrt(0.5), n)
    )
    assert abs(np.vdot(target, out)) ** 2 >= 1.0 - 1e-9
    # vacuum is a fixed point
    out = fock.beam_splitter(np.outer(vac, vac), 0.3)
    assert abs(out[0, 0] - 1.0) < 1e-14
    assert np.linalg.norm(out.ravel()[1:]) < 1e-14


def test_beam_splitter_unitary():
    rng = np.random.default_rng(3)
    vec = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    vec /= np.linalg.norm(vec)
    for eta in (0.0, 0.37, 1.0):
        out = fock.beam_splitter(vec, eta, check_tail=False)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_beam_splitter_tail_error():
    n = 12
    vac = np.zeros(n + 1, dtype=complex)
    vac[0] = 1.0
    # |3> cut to 13 levels, below the adequacy rule: alpha^n / sqrt(n!)
    levels = np.arange(n + 1)
    amps = 3.0**levels / np.sqrt([math.factorial(k) for k in levels])
    state = np.outer(amps / np.linalg.norm(amps), vac)
    with pytest.raises(fock.TruncationError):
        fock.beam_splitter(state, 0.5)


def test_partial_trace_product_state():
    vec = np.outer(fock.coherent_vector(1.0, 40), fock.coherent_vector(0.5, 40))
    rho = fock.partial_trace(vec, keep=(0,))
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    assert fock.von_neumann_entropy(rho) < 1e-9


def test_partial_trace_density_input():
    # the reduced state of the pure vector equals the partial trace of
    # its full two-mode density, taken here by np.trace over mode B
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, 0.8), 40)
    rho_full = np.outer(vec.ravel(), vec.ravel().conj())
    from_density = np.trace(rho_full.reshape((41,) * 4), axis1=1, axis2=3)
    from_vector = fock.partial_trace(vec, keep=(0,))
    assert np.max(np.abs(from_density - from_vector)) < 1e-12


def test_partial_trace_schmidt_symmetry():
    rng = np.random.default_rng(14)
    vec = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    vec /= np.linalg.norm(vec)
    lam_a = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1]
    lam_b = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(1,))))[::-1]
    assert np.max(np.abs(lam_a - lam_b)) < 1e-10


def test_von_neumann_entropy():
    pure = np.zeros((5, 5), dtype=complex)
    pure[0, 0] = 1.0
    assert fock.von_neumann_entropy(pure) == 0.0
    mixed = np.zeros((5, 5), dtype=complex)
    mixed[0, 0] = mixed[1, 1] = 0.5
    assert abs(fock.von_neumann_entropy(mixed) - 1.0) < 1e-14


def test_charfunc_trace_normalization_and_gaussian_identity():
    n = fock.adequate_truncation(1.0)
    vec = np.outer(fock.coherent_vector(1.0, n), fock.coherent_vector(0.4, n))
    assert abs(fock.operator_trace_charfunc(vec, coherent.CharFuncPoint(0, 0)) - 1.0) < 1e-12
    rng = np.random.default_rng(15)
    for _ in range(10):
        za, zb = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        numeric = fock.operator_trace_charfunc(vec, coherent.CharFuncPoint(za, zb))
        closed = (
            np.exp(za * 1.0 - np.conj(za) * 1.0 - 0.5 * abs(za) ** 2)
            * np.exp(zb * 0.4 - np.conj(zb) * 0.4 - 0.5 * abs(zb) ** 2)
        )
        assert abs(numeric - closed) < 1e-8


def test_truncation_convergence():
    # doubling the truncation moves nothing by more than 1e-10
    state = coherent.CoherentQuasiBell(1, 1.5)
    n = fock.adequate_truncation(1.5)
    lam = {}
    for trunc in (n, 2 * n):
        vec = fock.quasi_bell_fock(state, trunc)
        lam[trunc] = np.sort(
            np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,)))
        )[::-1][:2]
    assert np.max(np.abs(lam[n] - lam[2 * n])) < 1e-10
    overlap = {
        trunc: np.vdot(
            fock.coherent_vector(1.5, trunc), fock.coherent_vector(-1.5, trunc)
        ).real
        for trunc in (n, 2 * n)
    }
    assert abs(overlap[n] - overlap[2 * n]) < 1e-10


def test_densities_are_physical():
    for index in (1, 2, 3, 4):
        vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(index, 2.0))
        rho = fock.partial_trace(vec, keep=(1,))
        lam = np.linalg.eigvalsh(rho)
        assert lam.min() > -1e-10
        assert 1.0 - 1e-10 <= np.trace(rho).real <= 1.0 + 1e-12


def test_splitter_cache_is_bounded():
    info = fock._splitter_block.cache_info
    assert info().maxsize is not None
    verify.run_all()
    for eta in np.linspace(0.05, 0.95, 60):
        verify.family_overlap_curve(3.0, float(eta), [2.0])
    assert info().currsize <= info().maxsize


def test_displacement_matches_direct_exponential():
    for size in (21, 37):
        ladder = np.diag(np.sqrt(np.arange(1, size)), k=1)
        for zeta in (0.0, 0.7, -1.2, 0.9j, 1.1 - 0.4j):
            direct = fock._expm_antihermitian(zeta * ladder.T - np.conj(zeta) * ladder)
            rotated = fock._displacement(zeta, size)
            assert np.max(np.abs(rotated - direct)) < 1e-13
            unit = rotated.conj().T @ rotated
            assert np.max(np.abs(unit - np.eye(size))) < 1e-13


def test_displacement_cache_is_bounded():
    info = fock._displacement_eigensystem.cache_info
    assert info().maxsize is not None
    for size in range(2, 2 + 2 * info().maxsize):
        fock._displacement(0.3 + 0.2j, size)
    assert info().currsize <= info().maxsize


def test_loss_purity_frobenius_equals_trace():
    # the battery's loss amplitude
    alpha, eta, n = 1.0, 0.5, fock.adequate_truncation(1.0)
    rho = fock.partial_trace(verify.lossy_pair_fock(alpha, eta, n), keep=(0, 1))
    by_trace = np.trace(rho @ rho).real
    assert abs(np.vdot(rho, rho).real - by_trace) < 1e-13
    closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
    closed = np.trace(closed_rho @ closed_rho).real
    deviation = verify.check_loss_purity(n).deviation
    assert abs(deviation - abs(by_trace - closed)) < 1e-13


def test_family_overlap_curve_matches_einsum():
    alpha, eta = 1.0, 0.3
    betas = np.linspace(0.25, 1.75, 7)
    n = fock.adequate_truncation(betas.max())
    psi = verify.lossy_pair_fock(alpha, eta, n)
    reference = [
        np.sum(np.abs(np.einsum(
            "ab,abe->e",
            fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, beta), n).conj(),
            psi,
        )) ** 2)
        for beta in betas
    ]
    curve = verify.family_overlap_curve(alpha, eta, betas, n)
    assert np.max(np.abs(curve - reference)) < 1e-14


def test_fock_imports_only_stdlib_and_numpy():
    # the oracle's independence: nothing from the closed-form modules
    tree = ast.parse(Path(fock.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in fock"
            roots.add(node.module.split(".")[0])
    assert roots, "no imports found"
    assert "qbell" not in roots
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots
