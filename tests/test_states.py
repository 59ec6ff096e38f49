import ast
from pathlib import Path

import numpy as np
import pytest

from qbell import states

E2 = float(np.exp(-2.0))


def test_normalization_values():
    assert states.normalization_constant(2, 0.0) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-12
    )
    # unit norm of the explicit superposition at alpha = 1 (kappa = e^-2)
    assert states.normalization_constant(2, E2) == pytest.approx(
        0.7136726701940372, abs=1e-12
    )
    assert states.normalization_constant(1, 0.5) == pytest.approx(
        1.0 / np.sqrt(2.5), abs=1e-12
    )
    assert states.normalization_constant(1, 0.3) == states.normalization_constant(3, 0.3)
    assert states.normalization_constant(2, 0.3) == states.normalization_constant(4, 0.3)


def test_kappa_domain():
    with pytest.raises(ValueError):
        states.normalization_constant(2, 1.0)
    with pytest.raises(ValueError):
        states.normalization_constant(2, -0.1)
    with pytest.raises(ValueError):
        states.check_kappa(0.3 + 0.1j)
    with pytest.raises(ValueError):
        states.QuasiBell(5, 0.2)


def test_gram_matrix():
    assert np.allclose(states.gram_matrix(0.0), np.eye(4), atol=1e-15)
    g = states.gram_matrix(E2)
    assert g[0, 2] == pytest.approx(0.2658022288340797, abs=1e-12)
    assert states.gram_off_diagonal(0.5) == pytest.approx(0.8, abs=1e-15)
    # symmetric, unit diagonal, single overlapping pair
    assert np.allclose(g, g.T)
    assert np.allclose(np.diag(g), 1.0)
    mask = np.ones((4, 4), dtype=bool)
    mask[np.diag_indices(4)] = False
    mask[0, 2] = mask[2, 0] = False
    assert np.all(g[mask] == 0.0)


def test_gram_monotone_in_kappa():
    kappas = np.linspace(0.0, 0.999, 200)
    d = [states.gram_off_diagonal(k) for k in kappas]
    assert all(b > a for a, b in zip(d, d[1:]))


def test_reduced_spectrum():
    assert np.allclose(
        states.reduced_spectrum(states.QuasiBell(2, 0.73)), [0.5, 0.5], atol=0
    )
    assert np.allclose(
        states.reduced_spectrum(states.QuasiBell(1, 0.5)), [0.9, 0.1], atol=1e-15
    )
    assert np.allclose(
        states.reduced_spectrum(states.QuasiBell(1, 0.0)), [0.5, 0.5], atol=1e-15
    )


def test_spectrum_normalized_entropy_bounded():
    for kappa in np.linspace(0.0, 0.99, 23):
        for index in (1, 2, 3, 4):
            state = states.QuasiBell(index, kappa)
            lam = states.reduced_spectrum(state)
            assert abs(lam.sum() - 1.0) < 1e-12
            assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
            ent = states.entropy_of_entanglement(state)
            assert -1e-12 <= ent <= 1.0 + 1e-12


def test_spectrum_near_unit_overlap():
    for kappa in 1.0 - np.logspace(-16, -1, 61):
        for index in (1, 2, 3, 4):
            state = states.QuasiBell(index, kappa)
            lam = states.reduced_spectrum(state)
            assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
            assert lam.sum() == 1.0
            states.entropy_of_entanglement(state)


def test_entropy_values():
    assert states.entropy_of_entanglement(states.QuasiBell(4, 0.99)) == 1.0
    assert states.entropy_of_entanglement(states.QuasiBell(3, 0.0)) == 1.0
    # matches the numeric partial-trace entropy of the alpha = 1 realization
    assert states.entropy_of_entanglement(states.QuasiBell(1, E2)) == pytest.approx(
        0.9484184662366613, abs=1e-12
    )


def test_entropy_unit_for_antisymmetric_family():
    for kappa in np.linspace(0.0, 0.999, 50):
        for index in (2, 4):
            assert abs(states.entropy_of_entanglement(states.QuasiBell(index, kappa)) - 1.0) < 1e-12


def test_bell_limit():
    # kappa = 0 recovers the standard Bell states
    assert np.allclose(states.gram_matrix(0.0), np.eye(4))
    for index in (1, 2, 3, 4):
        assert states.entropy_of_entanglement(states.QuasiBell(index, 0.0)) == 1.0


def test_embed_qubit_singlet_and_triplet():
    for kappa in (0.0, 0.3, 0.9):
        c = states.embed_qubit(states.QuasiBell(2, kappa))
        assert np.allclose(c, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], atol=1e-12)
        c4 = states.embed_qubit(states.QuasiBell(4, kappa))
        assert np.allclose(c4, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-12)
    c3 = states.embed_qubit(states.QuasiBell(3, 0.0))
    assert np.allclose(c3, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_embed_qubit_normalized_consistent_with_spectrum():
    rng = np.random.default_rng(42)
    for kappa in rng.uniform(0.0, 0.999, 100):
        for index in (1, 2, 3, 4):
            state = states.QuasiBell(index, kappa)
            c = states.embed_qubit(state)
            assert abs(np.linalg.norm(c) - 1.0) < 1e-12
            rho_a = c.reshape(2, 2) @ c.reshape(2, 2).conj().T
            lam = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
            assert np.allclose(lam, states.reduced_spectrum(state), atol=1e-12)


def test_embed_qubit_spectrum_example():
    c = states.embed_qubit(states.QuasiBell(1, 0.5))
    rho_a = c.reshape(2, 2) @ c.reshape(2, 2).conj().T
    lam = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
    assert np.allclose(lam, [0.9, 0.1], atol=1e-12)


def test_only_states_knows_the_even_odd_layout():
    # the term layout has one owner: other modules read a state's terms,
    # normalization and embed_qubit (fock keeps its own sign table apart)
    private = {"_even_odd_terms", "_coefficients", "FORMS"}
    for path in sorted(Path(states.__file__).parent.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a Name, an Attribute, an imported alias or a definition
            name = next((getattr(node, k) for k in ("id", "attr", "name") if hasattr(node, k)), None)
            assert name not in private, f"{path.name}:{getattr(node, 'lineno', '?')} names {name}"
