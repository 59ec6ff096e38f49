import tracemalloc

import numpy as np
import pytest

from qbell import decoherence, fock, measures, verify


def _basis_pair(amplitude, n):
    plus = fock.coherent_vector(amplitude, n) + fock.coherent_vector(-amplitude, n)
    minus = fock.coherent_vector(amplitude, n) - fock.coherent_vector(-amplitude, n)
    return plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)


def test_loss_density_projection_matches_full_density():
    # the battery's loss amplitude
    alpha, n = 1.0, fock.adequate_truncation(1.0)
    worst = 0.0
    for eta in (0.3, 0.7):
        plus_a, minus_a = _basis_pair(alpha, n)
        plus_b, minus_b = _basis_pair(np.sqrt(eta) * alpha, n)
        basis = np.stack(
            [np.kron(a, b) for a in (plus_a, minus_a) for b in (plus_b, minus_b)],
            axis=1,
        )
        rho_ab = fock.partial_trace(verify.lossy_pair_fock(alpha, eta, n), keep=(0, 1))
        reference = basis.conj().T @ rho_ab @ basis
        projected = verify._projected_loss_density(alpha, eta, n)
        assert np.max(np.abs(projected - reference)) < 1e-13
        closed = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        worst = max(worst, np.max(np.abs(reference - closed)))
    assert abs(verify.check_loss_density(n).deviation - worst) < 1e-13


def test_environment_purity_equals_trace():
    alpha, n = 1.0, fock.adequate_truncation(1.0)
    expected = 0.0
    for eta in (0.3, 0.5):
        psi = verify.lossy_pair_fock(alpha, eta, n)
        rho_ab = fock.partial_trace(psi, keep=(0, 1))
        rho_env = fock.partial_trace(psi, keep=(2,))
        by_trace = np.trace(rho_ab @ rho_ab).real
        assert abs(np.vdot(rho_env, rho_env).real - by_trace) < 1e-13
        closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        closed = np.trace(closed_rho @ closed_rho).real
        expected = max(expected, abs(by_trace - closed))
    deviation = verify.check_loss_purity(n).deviation
    assert abs(deviation - expected) < 1e-13


def test_loss_checks_never_form_the_joint_density():
    # one (61^2)-square complex rho_AB alone would take 61^4 * 16 B = 222 MB
    verify.check_loss_density(60)  # fill the splitter and displacement caches
    verify.check_loss_purity(60)
    for check in (verify.check_loss_purity, verify.check_loss_density):
        tracemalloc.start()
        try:
            check(60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6, (check.__name__, peak)


def _counting_search(monkeypatch, transform=lambda beta, f: (beta, f)):
    calls = []
    search = decoherence.search_optimal_beta

    def counted(state):
        calls.append(state)
        return transform(*search(state))

    monkeypatch.setattr(decoherence, "search_optimal_beta", counted)
    return calls


def test_optimal_beta_check_searches_once_per_point(monkeypatch):
    calls = _counting_search(monkeypatch)
    assert verify.check_optimal_beta().passed
    assert len(calls) == 90


def test_optimal_beta_check_keeps_the_overlap_rule(monkeypatch):
    _counting_search(monkeypatch, lambda beta, f: (beta, f * (1.0 + 1e-6)))
    with pytest.raises(measures.MaximizerError):
        verify.check_optimal_beta()


def test_optimal_beta_check_keeps_the_position_rule(monkeypatch):
    _counting_search(monkeypatch, lambda beta, f: (beta * (1.0 + 1e-5), f))
    result = verify.check_optimal_beta()
    assert not result.passed
    assert result.deviation > 1e-6


def test_deviations_are_python_floats():
    results = verify.run_all()
    assert len(results) == 14
    for r in results:
        assert type(r.deviation) is float, r.name
        assert type(r.tolerance) is float, r.name
