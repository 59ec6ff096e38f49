import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qbell import coherent, decoherence, fock, states, verify, werner


def _basis_pair(amplitude, n):
    plus = fock.coherent_vector(amplitude, n) + fock.coherent_vector(-amplitude, n)
    minus = fock.coherent_vector(amplitude, n) - fock.coherent_vector(-amplitude, n)
    return plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)


def test_loss_density_projection_matches_full_density(lossy_pair_fock):
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
        rho_ab = fock.partial_trace(lossy_pair_fock(alpha, eta, n), keep=(0, 1))
        reference = basis.conj().T @ rho_ab @ basis
        projected = verify._projected_loss_density(alpha, eta, n)
        assert np.max(np.abs(projected - reference)) < 1e-13
        closed = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        worst = max(worst, np.max(np.abs(reference - closed)))
    assert abs(verify.check_loss_density(n).deviation - worst) < 1e-13


def test_environment_purity_equals_trace(lossy_pair_fock):
    alpha, n = 1.0, fock.adequate_truncation(1.0)
    expected = 0.0
    for eta in (0.3, 0.5):
        psi = lossy_pair_fock(alpha, eta, n)
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
    # one (61^2)-square complex rho_AB alone would take 61^4 * 16 B = 222 MB,
    # and one complex (A, B, E) state 61^3 * 16 B = 3.6 MB: both checks
    # work from the pair's two terms and stay below the smaller
    verify.check_loss_density(60)  # fill the splitter and displacement caches
    verify.check_loss_purity(60)
    for check in (verify.check_loss_purity, verify.check_loss_density):
        tracemalloc.start()
        try:
            check(60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 61**3 * 16, (check.__name__, peak)


def test_quasi_bell_checks_never_form_the_dense_state():
    # the dense build's stacked traces held one (20, 61, 61) complex array
    # per state, 20 * 61^2 * 16 B = 1.2 MB; the product terms stay below it.
    # The mean photon numbers come from 2 x 2 term Grams, below even one
    # (N+1)-square complex density, 62^2 * 16 B.  61 is the smallest
    # truncation the checks' alpha = 3 admits
    checks = (
        (verify.check_char_function, 60, 20 * 61**2 * 16),
        (verify.check_reduced_spectra, 61, 20 * 61**2 * 16),
        (verify.check_mean_photons, 61, 62**2 * 16),
    )
    for check, n, _ in checks:
        check(n)  # fill the displacement and number-level caches
    for check, n, bound in checks:
        tracemalloc.start()
        try:
            check(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (check.__name__, peak)


def test_verify_calls_no_dense_fock_helper():
    # every check works from product terms: the dense helpers serve only
    # the tests and the benchmark's traced run
    dense = {"partial_trace", "quasi_bell_fock", "operator_trace_charfunc", "mean_photon"}
    path = Path(verify.__file__)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "fock" and node.attr in dense), (
                f"verify.py:{node.lineno} calls fock.{node.attr}"
            )


def test_too_small_truncation_is_named_by_the_term_checks():
    for check in (
        verify.check_gram_matrix,
        verify.check_reduced_spectra,
        verify.check_unit_entropy,
        verify.check_mean_photons,
        verify.check_asymmetric_spectra,
        verify.check_char_function,
        verify.check_loss_density,
        verify.check_loss_purity,
        verify.check_family_overlap,
    ):
        with pytest.raises(fock.TruncationError, match="below the adequacy rule"):
            check(20)


def test_check_points_are_a_fixed_lattice(monkeypatch):
    # the char-function points and the unitarity vector come from a fixed
    # Kronecker lattice, not a random number generator
    assert abs(verify._LATTICE_ROOT**5 - verify._LATTICE_ROOT - 1.0) < 1e-14
    points = verify._char_points()
    assert points.shape == (8, 2, 20)
    assert np.array_equal(points, verify._char_points())
    parts = np.stack([points.real, points.imag])
    assert parts.min() >= -1.5 and parts.max() < 1.5
    pairs = points.transpose(0, 2, 1).reshape(-1, 2)
    assert len({(complex(za), complex(zb)) for za, zb in pairs}) == 160
    # the 21-level unitarity vector has a nonzero entry in each of its 41
    # sectors, so the check multiplies all 41 blocks at each of 3 angles
    vectors, blocks = [], []
    beam_splitter, splitter_block = fock.beam_splitter, fock._splitter_block

    def recorded(vec, *args, **kwargs):
        vectors.append(np.array(vec))
        return beam_splitter(vec, *args, **kwargs)

    def counted(*args):
        blocks.append(args)
        return splitter_block(*args)

    monkeypatch.setattr(fock, "beam_splitter", recorded)
    monkeypatch.setattr(fock, "_splitter_block", counted)
    assert verify.check_beam_splitter_unitary().passed
    assert len(vectors) == 3 and all(np.array_equal(v, vectors[0]) for v in vectors)
    sectors = np.add.outer(np.arange(21), np.arange(21))
    assert all(np.any(vectors[0][sectors == n] != 0.0) for n in range(41))
    assert len(blocks) == len(set(blocks)) == 123


def test_battery_imports_no_random_module():
    probe = (
        "import sys\n"
        "from qbell import verify\n"
        "assert all(r.passed for r in verify.run_all())\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_stacked_eigensolves_report_the_per_matrix_maxima():
    dev = 0.0
    for fid in np.linspace(0.0, 1.0, 6):
        for kappa in np.linspace(0.0, 0.9, 6):
            spec = werner.QuasiWerner(fid, kappa)
            numeric = np.sort(np.linalg.eigvalsh(werner.build_quasi_werner(spec)))[::-1]
            dev = max(dev, float(np.max(np.abs(werner.quasi_werner_spectrum(spec) - numeric))))
    assert verify.check_werner_spectrum().deviation == dev
    # each state's 2 x 2 core alone (tests/test_fock.py compares the
    # cores' spectra with the dense partial traces)
    dev = 0.0
    for alpha in verify._ALPHA_GRID:
        for index in (1, 2, 3, 4):
            state = coherent.CoherentQuasiBell(index, alpha)
            core = fock._reduced_core(*fock._quasi_bell_terms(state, None), 0)
            lam = np.sort(np.linalg.eigvalsh(core))[::-1]
            dev = max(dev, float(np.max(np.abs(lam - coherent.coherent_spectrum(state)))))
    assert verify.check_reduced_spectra(None).deviation == dev


def test_gram_check_matches_the_dense_inner_products():
    # the term Grams give the deviation of the dense vectors' vdots
    dev = 0.0
    for alpha in verify._ALPHA_GRID:
        vecs = [fock.quasi_bell_fock(coherent.CoherentQuasiBell(i, alpha)) for i in (1, 2, 3, 4)]
        numeric = np.array([[abs(np.vdot(vi, vj)) for vj in vecs] for vi in vecs])
        closed = states.gram_matrix(coherent.overlap_of_amplitude(alpha))
        dev = max(dev, float(np.max(np.abs(numeric - closed))))
    assert abs(verify.check_gram_matrix(None).deviation - dev) < 1e-14


def _dense_probe_curve(alpha, eta, betas, truncation):
    # the dense build: |-alpha> and its splitter output made directly, and
    # each normalized B2(beta) probe stacked as an (N+1)^2 array
    vac = np.zeros(truncation + 1, dtype=complex)
    vac[0] = 1.0
    plus = fock.coherent_vector(alpha, truncation)
    minus = fock.coherent_vector(-alpha, truncation)
    be_of_minus = fock.beam_splitter(np.outer(minus, vac), eta)
    be_of_plus = fock.beam_splitter(np.outer(plus, vac), eta)
    probes = np.stack([
        fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, beta), truncation).conj()
        for beta in betas
    ])
    weights = (plus @ probes) @ be_of_minus - (minus @ probes) @ be_of_plus
    psi = plus[:, None, None] * be_of_minus - minus[:, None, None] * be_of_plus
    return np.sum(np.abs(weights) ** 2, axis=1) / np.vdot(psi, psi).real


def test_family_overlap_curve_matches_dense_probes():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for eta in (0.0, 0.1, 0.5, 0.9, 1.0):
            betas = np.linspace(0.25 * alpha, 1.75 * alpha, 7)
            n = fock.adequate_truncation(betas.max())
            curve = verify.family_overlap_curve(alpha, eta, betas)
            worst = max(worst, np.max(np.abs(curve - _dense_probe_curve(alpha, eta, betas, n))))
    assert worst < 1e-13


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


def test_loss_checks_take_the_vacuum_kernel(monkeypatch):
    # every loss check sends |alpha>|0> through fock._splitter_on_vacuum,
    # so none of them reaches the general per-sector splitter
    def refuse(*args, **kwargs):
        raise AssertionError("a loss check called fock.beam_splitter")

    monkeypatch.setattr(fock, "beam_splitter", refuse)
    for check in (
        verify.check_beam_splitter_rule,
        verify.check_family_overlap,
        verify.check_loss_density,
        verify.check_loss_purity,
    ):
        assert check(None).passed, check


def test_spectra_checks_take_the_term_cores(monkeypatch):
    # the spectra and entropy checks solve only the 2 x 2 cores of
    # fock._reduced_core, never an (N+1)-square reduced density
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    for check in (
        verify.check_reduced_spectra,
        verify.check_unit_entropy,
        verify.check_asymmetric_spectra,
    ):
        assert check(None).passed, check
    assert shapes
    assert max(shape[-1] for shape in shapes) <= 2, shapes


def _count_calls(monkeypatch, name, check):
    calls = []
    original = getattr(fock, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, name, counted)
    assert check(None).passed
    return calls


def test_oracle_checks_build_each_vector_once(monkeypatch):
    # the beam-splitter rule's 25 (amplitude, truncation) vectors and the
    # family overlap's 21 probes are each built once per battery; the
    # lossy pairs of each loss amplitude take the middle probe's terms,
    # |B2(alpha)> itself, so they add no call
    calls = _count_calls(monkeypatch, "coherent_vector", verify.check_beam_splitter_rule)
    assert len(calls) == len({(float(alpha), n) for alpha, n in calls}) == 25
    calls = _count_calls(monkeypatch, "_quasi_bell_terms", verify.check_family_overlap)
    keys = [(state.index, state.alpha, state.beta, n) for state, n in calls]
    assert len(keys) == len(set(keys)) == 21
    for alpha in (0.5, 1.0, 2.0):
        assert keys.count((2, alpha, alpha, fock.adequate_truncation(1.75 * alpha))) == 1


def test_zero_loss_amplitude_is_domain_error():
    # the antisymmetric pair vanishes at alpha = 0; named, without the
    # RuntimeWarning of normalizing a zero vector
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero, got 0.0"):
        verify.family_overlap_curve(0.0, 0.5, [1.0])
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero, got 0.0"):
        verify._projected_loss_density(0.0, 0.5, 30)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_loss_amplitude_is_domain_error(alpha):
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero"):
        verify.family_overlap_curve(alpha, 0.5, [1.0])
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero"):
        verify._projected_loss_density(alpha, 0.5, 30)


@pytest.mark.parametrize("betas", [[], np.array([]), [1.0, float("nan")]])
def test_comparison_amplitudes_are_checked(betas):
    with pytest.raises(ValueError, match="comparison amplitudes must be a nonempty finite list"):
        verify.family_overlap_curve(1.0, 0.5, betas)


def test_negative_loss_amplitude_flips_only_the_sign():
    # |B2(-alpha)> = -|B2(alpha)>, so every overlap is unchanged; a
    # negative comparison amplitude takes the truncation of its magnitude
    betas = np.array([0.5, 1.0, 1.5, 5.0])
    for eta in (0.3, 0.8):
        positive = verify.family_overlap_curve(1.0, eta, betas)
        negative = verify.family_overlap_curve(-1.0, eta, betas)
        assert np.max(np.abs(positive - negative)) < 1e-14
        flipped = verify.family_overlap_curve(1.0, eta, -betas)
        assert np.max(np.abs(positive - flipped)) < 1e-14


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
    # reported as a failure, not raised: 1e-6 relative is 1e3 times the
    # overlap rule, so 1e-3 on the check's scale
    _counting_search(monkeypatch, lambda beta, f: (beta, f * (1.0 + 1e-6)))
    result = verify.check_optimal_beta()
    assert not result.passed
    assert result.deviation == pytest.approx(1e-3, rel=1e-6)


def test_optimal_beta_check_fails_a_nan_search(monkeypatch):
    _counting_search(monkeypatch, lambda beta, f: (beta, f * np.nan))
    assert not verify.check_optimal_beta().passed


def test_optimal_beta_check_keeps_the_position_rule(monkeypatch):
    _counting_search(monkeypatch, lambda beta, f: (beta * (1.0 + 1e-5), f))
    result = verify.check_optimal_beta()
    assert not result.passed
    assert result.deviation > 1e-6


def test_optimum_rows_are_the_scalar_calls():
    alphas, etas = (
        grid.ravel()
        for grid in np.meshgrid(np.linspace(0.3, 3.0, 10), np.linspace(0.1, 0.9, 9), indexing="ij")
    )
    rng = np.random.default_rng(1501)
    alphas = np.concatenate([alphas, 10.0 ** rng.uniform(-150.0, 3.0, 200)])
    etas = np.concatenate([etas, rng.uniform(0.0, 1.0, 200)])
    beta_star, f_star = decoherence._optimum(alphas, etas)
    for row, (alpha, eta) in enumerate(zip(alphas, etas)):
        beta, f = decoherence.optimal_beta(alpha, decoherence.LossChannel(eta))
        assert beta_star[row] == beta and f_star[row] == f, (alpha, eta)


def test_deviations_are_python_floats():
    results = verify.run_all()
    assert len(results) == 14
    for r in results:
        assert type(r.deviation) is float, r.name
        assert type(r.tolerance) is float, r.name
