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


def test_family_overlap_never_forms_the_three_mode_state():
    alpha, eta, betas = 2.0, 0.5, np.linspace(0.5, 3.5, 7)
    size = fock.adequate_truncation(betas.max()) + 1  # 70
    verify.family_overlap_curve(alpha, eta, betas)  # fill the operator caches
    tracemalloc.start()
    try:
        verify.family_overlap_curve(alpha, eta, betas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex (A, B, E) array alone is 70^3 * 16 B = 5.5 MB
    assert peak < size**3 * 16, peak


def test_zero_loss_amplitude_is_domain_error():
    # the antisymmetric pair vanishes at alpha = 0; named, without the
    # RuntimeWarning of normalizing a zero vector
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero, got 0.0"):
        verify.family_overlap_curve(0.0, 0.5, [1.0])
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero, got 0.0"):
        verify.lossy_pair_fock(0.0, 0.5)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_loss_amplitude_is_domain_error(alpha):
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero"):
        verify.family_overlap_curve(alpha, 0.5, [1.0])
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero"):
        verify.lossy_pair_fock(alpha, 0.5)


@pytest.mark.parametrize("betas", [[], np.array([]), [1.0, float("nan")]])
def test_comparison_amplitudes_are_checked(betas):
    with pytest.raises(ValueError, match="comparison amplitudes must be a nonempty finite list"):
        verify.family_overlap_curve(1.0, 0.5, betas)


def test_negative_loss_amplitude_flips_only_the_sign():
    # |B2(-alpha)> = -|B2(alpha)>, so every overlap is unchanged
    betas = [0.5, 1.0, 1.5]
    for eta in (0.3, 0.8):
        positive = verify.family_overlap_curve(1.0, eta, betas)
        negative = verify.family_overlap_curve(-1.0, eta, betas)
        assert np.max(np.abs(positive - negative)) < 1e-14


def _counting_search(monkeypatch, transform=lambda beta, f: (beta, f)):
    rows = []
    search = decoherence.search_optimal_beta

    def counted(alpha, eta):
        rows.append(np.size(alpha))
        return transform(*search(alpha, eta))

    monkeypatch.setattr(decoherence, "search_optimal_beta", counted)
    return rows


def test_optimal_beta_check_searches_once_per_point(monkeypatch):
    # one batched search over all 90 points
    rows = _counting_search(monkeypatch)
    assert verify.check_optimal_beta().passed
    assert rows == [90]


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
