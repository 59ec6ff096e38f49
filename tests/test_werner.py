import numpy as np
import pytest

from qbell import measures, states, werner

E2 = float(np.exp(-2.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        werner.QuasiWerner(1.2, 0.0)
    with pytest.raises(ValueError):
        werner.QuasiWerner(0.5, 1.0)
    # NaN fails every comparison, so it must fail the [0, 1] check
    with pytest.raises(ValueError, match="mixture weight"):
        werner.QuasiWerner(float("nan"), 0.1)


def test_build_pure_limit():
    rho = werner.build_quasi_werner(werner.QuasiWerner(1.0, 0.37))
    singlet = states.embed_qubit(states.QuasiBell(2, 0.37))
    assert np.allclose(rho, np.outer(singlet, singlet.conj()), atol=1e-12)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_build_standard_werner_at_zero_overlap():
    fid = 0.63
    rho = werner.build_quasi_werner(werner.QuasiWerner(fid, 0.0))
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    expected = fid * np.outer(singlet, singlet.conj()) + (1 - fid) / 3 * (
        np.eye(4) - np.outer(singlet, singlet.conj())
    )
    assert np.allclose(rho, expected, atol=1e-12)


def test_build_is_valid_density():
    rho = werner.build_quasi_werner(werner.QuasiWerner(0.7, E2))
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.all(np.linalg.eigvalsh(rho) > -1e-12)


def quasi_werner_gram(spec):
    """Weighted Gram matrix of the mixture: diagonal of mixture weights
    with the (1,3) overlap entry (1-F) D / 3."""
    w = (1.0 - spec.fidelity) / 3.0
    g = np.diag([w, spec.fidelity, w, w])
    g[0, 2] = g[2, 0] = w * states.gram_off_diagonal(spec.kappa)
    return g


def test_gram():
    g = quasi_werner_gram(werner.QuasiWerner(1.0, 0.3))
    assert np.allclose(g, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-15)
    g = quasi_werner_gram(werner.QuasiWerner(0.7, E2))
    assert g[0, 2] == pytest.approx(0.1 * 0.2658022288340797, abs=1e-12)
    g = quasi_werner_gram(werner.QuasiWerner(0.0, 0.0))
    assert np.allclose(g, np.diag([1 / 3, 0.0, 1 / 3, 1 / 3]), atol=1e-15)
    # the mixture and its weighted Gram matrix share their spectrum
    for spec in (werner.QuasiWerner(0.7, E2), werner.QuasiWerner(0.2, 0.9)):
        gram = np.sort(np.linalg.eigvalsh(quasi_werner_gram(spec)))[::-1]
        assert np.allclose(gram, werner.quasi_werner_spectrum(spec), rtol=0, atol=1e-15)


def test_spectrum_examples():
    lam = werner.quasi_werner_spectrum(werner.QuasiWerner(0.7, E2))
    assert np.allclose(
        lam, [0.7, 0.126580222883408, 0.1, 0.07341977711659203], atol=1e-12
    )
    assert np.allclose(
        werner.quasi_werner_spectrum(werner.QuasiWerner(1.0, 0.4)), [1, 0, 0, 0]
    )
    assert np.allclose(
        werner.quasi_werner_spectrum(werner.QuasiWerner(0.25, 0.0)), [0.25] * 4
    )


def test_spectrum_matches_diagonalization_on_grid():
    worst = 0.0
    for fid in np.linspace(0.0, 1.0, 10):
        for kappa in np.linspace(0.0, 0.95, 10):
            spec = werner.QuasiWerner(fid, kappa)
            closed = werner.quasi_werner_spectrum(spec)
            numeric = np.sort(np.linalg.eigvalsh(werner.build_quasi_werner(spec)))[::-1]
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
            assert abs(closed.sum() - 1.0) < 1e-15
    assert worst < 1e-10


def test_fraction():
    # <B2|rho|B2> = F: |B2> is orthogonal to the other three components
    for fid in (0.0, 0.3, 0.9, 1.0):
        for kappa in (0.0, 0.2, E2, 0.9):
            rho = werner.build_quasi_werner(werner.QuasiWerner(fid, kappa))
            b2 = states.embed_qubit(states.QuasiBell(2, kappa))
            assert np.vdot(b2, rho @ b2).real == pytest.approx(fid, abs=1e-15)
    # the numerical fully entangled fraction can only match or beat the
    # overlap with the antisymmetric state; equality is not asserted
    spec = werner.QuasiWerner(0.7, 0.5)
    rho = werner.build_quasi_werner(spec)
    assert measures.fully_entangled_fraction(rho) >= 0.7 - 1e-9


def test_eof_bound_over_grid():
    for fid in np.linspace(0.0, 1.0, 10):
        for kappa in np.linspace(0.0, 0.95, 10):
            spec = werner.QuasiWerner(fid, kappa)
            eof = measures.eof_wootters(werner.build_quasi_werner(spec))
            assert eof >= measures.eof_lower_bound(fid) - 1e-9


def test_standard_werner_eof_at_zero_overlap():
    for fid in np.linspace(0.5, 1.0, 11):
        spec = werner.QuasiWerner(fid, 0.0)
        eof = measures.eof_wootters(werner.build_quasi_werner(spec))
        assert abs(eof - measures.eof_lower_bound(fid)) < 1e-9
