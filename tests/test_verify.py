import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qbell import coherent, decoherence, fock, states, verify, werner


def _loss_row(losses, alpha=1.0):
    # the truncation and the lossy pairs of the grid's row at alpha
    row = verify._LOSS_ALPHAS.index(alpha)
    return losses.truncations[row], losses.pairs[row]


def test_loss_density_projection_matches_full_density(lossy_pair_fock, loss_basis):
    # the battery's loss row, alpha = 1 at every grid eta, one projected build
    losses = verify._loss_grid(None)
    alpha, etas = 1.0, verify._LOSS_ETAS
    n, pairs = _loss_row(losses, alpha)
    worst = 0.0
    for eta, projected in zip(etas, verify._projected_loss_densities(alpha, etas, pairs)):
        basis = loss_basis(alpha, eta, n)
        rho_ab = fock.partial_trace(lossy_pair_fock(alpha, eta, n), keep=(0, 1))
        reference = basis.conj().T @ rho_ab @ basis
        assert np.max(np.abs(projected - reference)) < 1e-13
        closed = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        worst = max(worst, np.max(np.abs(reference - closed)))
    assert abs(verify.check_loss_density(losses).deviation - worst) < 1e-13


def test_environment_purity_equals_trace(lossy_pair_fock):
    losses = verify._loss_grid(None)
    alpha = 1.0
    n, _ = _loss_row(losses, alpha)
    expected = 0.0
    for eta in verify._LOSS_ETAS:
        psi = lossy_pair_fock(alpha, eta, n)
        rho_ab = fock.partial_trace(psi, keep=(0, 1))
        rho_env = fock.partial_trace(psi, keep=(2,))
        by_trace = np.einsum("ij,ji->", rho_ab, rho_ab).real  # Tr(rho rho), without the matmul
        assert abs(np.vdot(rho_env, rho_env).real - by_trace) < 1e-13
        closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        closed = np.trace(closed_rho @ closed_rho).real
        expected = max(expected, abs(by_trace - closed))
    deviation = verify.check_loss_purity(losses).deviation
    assert abs(deviation - expected) < 1e-13


def test_loss_checks_never_form_the_joint_density():
    # one (61^2)-square complex rho_AB alone would take 61^4 * 16 B = 222 MB,
    # and one complex (A, B, E) state 61^3 * 16 B = 3.6 MB: both checks
    # work from the pairs' two terms and stay below the smaller.  The grid
    # is built, and the number-level cache filled, before the measurement
    losses = verify._loss_grid(60)
    for check in (verify.check_loss_purity, verify.check_loss_density):
        check(losses)
    for check in (verify.check_loss_purity, verify.check_loss_density):
        tracemalloc.start()
        try:
            check(losses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 61**3 * 16, (check.__name__, peak)


def test_quasi_bell_checks_never_form_the_dense_state():
    # the dense build's stacked traces held one (20, 61, 61) complex array
    # per state, 20 * 61^2 * 16 B = 1.2 MB; the product terms stay below it.
    # The mean photon numbers come from 2 x 2 term Grams, below even one
    # (N+1)-square complex density, 62^2 * 16 B.  61 is the smallest
    # truncation the checks' alpha = 3 admits; the grid checks read a grid
    # built before the measurement.  The battery's grid, the 20 states'
    # terms and Grams, stays below three such densities, where one dense
    # state per grid state would take 20
    grid = verify._state_grid(61)
    checks = (
        (verify.check_char_function, (60,), 20 * 61**2 * 16),
        (verify.check_reduced_spectra, (grid,), 20 * 61**2 * 16),
        (verify.check_mean_photons, (61, grid), 62**2 * 16),
        (verify._state_grid, (61,), 3 * 62**2 * 16),
    )
    for check, args, _ in checks:
        check(*args)  # fill the displacement and number-level caches
    for check, args, bound in checks:
        tracemalloc.start()
        try:
            check(*args)
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
    # every check that takes a truncation, 0 included, and the two grids
    # the other checks read; the mean photon check's unequal pairs take
    # the truncation beside an adequate grid
    grid = verify._state_grid(None)
    for truncation in (0, 20):
        for check in (
            verify._state_grid,
            verify._loss_grid,
            verify.check_coherent_overlap,
            lambda n: verify.check_mean_photons(n, grid),
            verify.check_asymmetric_spectra,
            verify.check_char_function,
            verify.check_beam_splitter_rule,
        ):
            with pytest.raises(fock.TruncationError, match="below the adequacy rule"):
                check(truncation)
    # a loss grid at 65 holds its pairs, and the family probes of
    # 1.75 alpha = 3.5 need 69
    with pytest.raises(fock.TruncationError, match=r"\(69 for amplitude 3\.5\)"):
        verify.check_family_overlap(verify._loss_grid(65))


def test_check_points_are_a_fixed_lattice(monkeypatch):
    # the char-function points come from a fixed Kronecker lattice, not a
    # random number generator
    assert abs(verify._LATTICE_ROOT**5 - verify._LATTICE_ROOT - 1.0) < 1e-14
    points = verify._char_points()
    assert points.shape == (8, 2, 20)
    assert np.array_equal(points, verify._char_points())
    parts = np.stack([points.real, points.imag])
    assert parts.min() >= -1.5 and parts.max() < 1.5
    pairs = points.transpose(0, 2, 1).reshape(-1, 2)
    assert len({(complex(za), complex(zb)) for za, zb in pairs}) == 160
    # the unitarity check's inputs are fixed too: the number states
    # |n>|0>, n = 0..20, at 22 levels, so each sector 0..20 holds one
    # input and no output reaches the boundary, in one vacuum-kernel
    # call at 3 angles
    calls = []
    splitter = fock._splitter_on_vacuum

    def recorded(vecs, etas):
        calls.append((np.array(vecs), tuple(etas)))
        return splitter(vecs, etas)

    monkeypatch.setattr(fock, "_splitter_on_vacuum", recorded)
    assert verify.check_beam_splitter_unitary().passed
    ((vecs, etas),) = calls
    assert np.array_equal(vecs, np.eye(21, 22)) and etas == (0.2, 0.5, 0.8)


def test_unitarity_check_reads_the_vacuum_tables(monkeypatch):
    # the unitarity check reads the vacuum-column tables every loss check
    # reads: one column of one table scaled by 1 + 1e-10 fails it
    tables, theta = fock._vacuum_columns, fock._splitter_angle(0.5)

    def perturbed(angle, size):
        table = tables(angle, size)
        if angle == theta:
            table = np.array(table)
            fock._sector_run(table, 20, 0, 20)[...] *= 1.0 + 1e-10
        return table

    monkeypatch.setattr(fock, "_vacuum_columns", perturbed)
    result = verify.check_beam_splitter_unitary()
    assert not result.passed and result.deviation == pytest.approx(1e-10, rel=1e-4)
    monkeypatch.undo()

    # and a default battery never calls the general per-sector splitter
    def refuse(*args, **kwargs):
        raise AssertionError("the battery called fock.beam_splitter")

    monkeypatch.setattr(fock, "beam_splitter", refuse)
    assert all(r.passed for r in verify.run_all())


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
    # each (amplitude, weight) sqrt(W) G sqrt(W) of the werner check alone,
    # from the grid's Fock Gram G
    grid = verify._state_grid(None)
    dev = 0.0
    for gram, alpha in zip(grid.grams, verify._ALPHA_GRID):
        kappa = coherent.overlap_of_amplitude(alpha)
        for fid in np.linspace(0.0, 1.0, 6):
            root = np.sqrt([(1.0 - fid) / 3.0, fid, (1.0 - fid) / 3.0, (1.0 - fid) / 3.0])
            numeric = np.sort(np.linalg.eigvalsh(root[:, None] * gram * root))[::-1]
            closed = werner.quasi_werner_spectrum(werner.QuasiWerner(fid, kappa))
            dev = max(dev, float(np.max(np.abs(closed - numeric))))
    assert verify.check_werner_spectrum(grid).deviation == dev
    # each state's 2 x 2 core alone, from its stack of one at the grid's
    # truncation (tests/test_fock.py compares the cores' spectra with the
    # dense partial traces)
    n = fock.adequate_truncation(max(verify._ALPHA_GRID))
    dev = 0.0
    for alpha in verify._ALPHA_GRID:
        for index in (1, 2, 3, 4):
            state = coherent.CoherentQuasiBell(index, alpha)
            terms_a, terms_b = fock._quasi_bell_terms((state,), n)
            core = fock._reduced_core(terms_a[0], terms_b[0], 0)
            lam = np.sort(np.linalg.eigvalsh(core))[::-1]
            dev = max(dev, float(np.max(np.abs(lam - coherent.coherent_spectrum(state)))))
    assert verify.check_reduced_spectra(grid).deviation == dev


def test_gram_check_matches_the_dense_inner_products():
    # the term Grams give the deviation of the dense vectors' vdots
    dev = 0.0
    for alpha in verify._ALPHA_GRID:
        vecs = [fock.quasi_bell_fock(coherent.CoherentQuasiBell(i, alpha)) for i in (1, 2, 3, 4)]
        numeric = np.array([[abs(np.vdot(vi, vj)) for vj in vecs] for vi in vecs])
        closed = states.gram_matrix(coherent.overlap_of_amplitude(alpha))
        dev = max(dev, float(np.max(np.abs(numeric - closed))))
    assert abs(verify.check_gram_matrix(verify._state_grid(None)).deviation - dev) < 1e-14


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
    assert verify.check_beam_splitter_rule(None).passed
    losses = verify._loss_grid(None)
    for check in (
        verify.check_loss_density,
        verify.check_loss_purity,
        verify.check_family_overlap,
        verify.check_optimal_beta,
    ):
        assert check(losses).passed, check


def test_spectra_checks_take_the_term_cores(monkeypatch):
    # the spectra and entropy checks solve only the 2 x 2 cores of
    # fock._reduced_core, never an (N+1)-square reduced density
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    grid = verify._state_grid(None)
    assert verify.check_reduced_spectra(grid).passed
    assert verify.check_unit_entropy(grid).passed
    assert verify.check_asymmetric_spectra(None).passed
    assert shapes
    assert max(shape[-1] for shape in shapes) <= 2, shapes


def _count_calls(monkeypatch, name, run):
    # run()'s result, and each call's first argument and the truncation
    # its build used
    calls = []
    original = getattr(fock, name)

    def counted(*args, **kwargs):
        built = original(*args, **kwargs)
        calls.append((args[0], np.shape(built[0])[-1] - 1))
        return built

    monkeypatch.setattr(fock, name, counted)
    result = run()
    monkeypatch.setattr(fock, name, original)
    return result, calls


def _count_splits(monkeypatch):
    # the number of vectors and the transmissivities of each
    # fock._splitter_on_vacuum call from now on
    calls = []
    splitter = fock._splitter_on_vacuum

    def counted(vecs, etas):
        calls.append((len(vecs), tuple(etas)))
        return splitter(vecs, etas)

    monkeypatch.setattr(fock, "_splitter_on_vacuum", counted)
    return calls


def test_oracle_checks_build_each_vector_once(monkeypatch):
    # the beam-splitter rule's 25 (amplitude, truncation) vectors are each
    # built once per battery, one stacked build per amplitude, and sent
    # through the splitter at all five eta in one call per amplitude; no
    # battery check builds a single vector.  The loss grid builds
    # |B2(alpha)> once per amplitude, at the adequacy rule of its largest
    # family probe, 1.75 alpha, and sends its 2 mode-B terms through the
    # splitter at the 3 eta in one call per amplitude; the loss checks
    # read those pairs and build only their probes: the family overlap's
    # 7 and the optimal beta's 9 (beta*(1 + {-h, 0, h}) at each eta) per
    # amplitude, and the loss density's bases, +/-alpha and +/-sqrt(eta)
    # alpha in one build.  With the rule's 5 splitter calls and the
    # unitarity check's one, a battery makes 9
    def refuse(*args, **kwargs):
        raise AssertionError("a check called fock.coherent_vector")

    monkeypatch.setattr(fock, "coherent_vector", refuse)
    splits = _count_splits(monkeypatch)
    rule, calls = _count_calls(
        monkeypatch, "_coherent_vectors", lambda: verify.check_beam_splitter_rule(None)
    )
    assert rule.passed
    assert [len(amplitudes) for amplitudes, _ in calls] == [5] * 5
    keys = {(float(alpha), n) for amplitudes, n in calls for alpha in amplitudes}
    assert len(keys) == 25
    assert splits == [(1, (0.0, 0.25, 0.5, 0.75, 1.0))] * 5
    sizes = [fock.adequate_truncation(1.75 * alpha) for alpha in verify._LOSS_ALPHAS]
    splits.clear()
    losses, calls = _count_calls(monkeypatch, "_quasi_bell_terms", lambda: verify._loss_grid(None))
    assert losses.truncations == tuple(sizes)
    assert [(len(states), n) for states, n in calls] == [(1, n) for n in sizes]
    keys = [(state.index, state.alpha, state.beta) for states, _ in calls for state in states]
    assert keys == [(2, alpha, alpha) for alpha in verify._LOSS_ALPHAS]
    assert splits == [(2, verify._LOSS_ETAS)] * 3

    def refuse_b2(*args):
        raise AssertionError("a loss check built |B2(alpha)>")

    monkeypatch.setattr(verify, "_b2_terms", refuse_b2)
    result, calls = _count_calls(
        monkeypatch, "_quasi_bell_terms", lambda: verify.check_family_overlap(losses)
    )
    assert result.passed
    assert [(len(states), n) for states, n in calls] == [(7, n) for n in sizes]
    keys = [(state.index, state.alpha, state.beta, n) for states, n in calls for state in states]
    assert len(keys) == len(set(keys)) == 21
    result, calls = _count_calls(
        monkeypatch, "_quasi_bell_terms", lambda: verify.check_optimal_beta(losses)
    )
    assert result.passed
    assert [(len(states), n) for states, n in calls] == [(9, n) for n in sizes]
    keys = [(state.index, state.alpha, state.beta, n) for states, n in calls for state in states]
    assert len(keys) == len(set(keys)) == 27
    for check in (verify.check_loss_density, verify.check_loss_purity):
        result, calls = _count_calls(monkeypatch, "_quasi_bell_terms", lambda: check(losses))
        assert result.passed and calls == []
    result, calls = _count_calls(
        monkeypatch, "_coherent_vectors", lambda: verify.check_loss_density(losses)
    )
    assert [(len(amplitudes), n) for amplitudes, n in calls] == [(8, sizes[1])]
    assert len(splits) == 3
    monkeypatch.undo()
    splits = _count_splits(monkeypatch)
    assert all(r.passed for r in verify.run_all())
    assert len(splits) == 9


def test_battery_cache_counts():
    # the counts the fock module docstring and its cache comments give for
    # one default battery in a fresh process: the eigensystems, the vacuum
    # tables (each read by one splitter call), and the number-level and
    # displacement sizes
    counts = {
        fock._number_levels: 8,
        fock._sector_eigensystem: 70,
        fock._vacuum_columns: 37,
        fock._displacement_eigensystem: 2,
    }
    for cache in counts:
        cache.cache_clear()
    assert all(r.passed for r in verify.run_all())
    assert {cache: cache.cache_info().currsize for cache in counts} == counts
    assert fock._vacuum_columns.cache_info().hits == 0


def test_battery_makes_one_closed_form_char_call(monkeypatch):
    # the characteristic-function check takes the closed form of its 8
    # states at their 20 points each in one _displacement_elements call,
    # both modes of every state: 16 rows
    calls = []
    kernel = coherent._displacement_elements

    def counted(amplitudes, zeta):
        calls.append((len(amplitudes), zeta.shape))
        return kernel(amplitudes, zeta)

    monkeypatch.setattr(coherent, "_displacement_elements", counted)
    assert all(r.passed for r in verify.run_all())
    assert calls == [(16, (16, 20))]


def _grid_builds(monkeypatch):
    # every state fock._quasi_bell_terms builds, keyed (index, alpha,
    # beta, truncation)
    keys = []
    build = fock._quasi_bell_terms

    def counted(quasi_bells, truncation=None):
        terms = build(quasi_bells, truncation)
        keys.extend((s.index, s.alpha, s.beta, terms[0].shape[-1] - 1) for s in quasi_bells)
        return terms

    monkeypatch.setattr(fock, "_quasi_bell_terms", counted)
    return keys


def test_battery_builds_each_grid_state_once(monkeypatch):
    # one run_all builds the terms of each of the grid's 20 states once,
    # at the adequacy rule of alpha = 3, and the next battery builds them
    # again: nothing is kept between batteries
    keys = _grid_builds(monkeypatch)
    n = fock.adequate_truncation(3.0)
    grid = [(index, alpha, alpha, n) for alpha in verify._ALPHA_GRID for index in (1, 2, 3, 4)]
    for batteries in (1, 2):
        assert all(r.passed for r in verify.run_all())
        assert [keys.count(key) for key in grid] == [batteries] * 20


def test_werner_check_reads_the_fock_grams(monkeypatch):
    # the numeric side comes from the Fock terms, not the 4 x 4 embedding,
    # and matches the spectrum of the dense vectors' Gram
    def refuse(spec):
        raise AssertionError("the werner check built the embedded mixture")

    monkeypatch.setattr(werner, "build_quasi_werner", refuse)
    keys = _grid_builds(monkeypatch)
    result = verify.check_werner_spectrum(verify._state_grid(None))
    assert result.passed and len(keys) == 20
    dev = 0.0
    for alpha in verify._ALPHA_GRID:
        vecs = [fock.quasi_bell_fock(coherent.CoherentQuasiBell(i, alpha), 61) for i in (1, 2, 3, 4)]
        gram = np.array([[np.vdot(vi, vj) for vj in vecs] for vi in vecs])
        for fid in np.linspace(0.0, 1.0, 6):
            spec = werner.QuasiWerner(fid, coherent.overlap_of_amplitude(alpha))
            root = np.sqrt([(1.0 - fid) / 3.0, fid, (1.0 - fid) / 3.0, (1.0 - fid) / 3.0])
            numeric = np.linalg.eigvalsh(root[:, None] * gram * root)[::-1]
            dev = max(dev, float(np.max(np.abs(numeric - werner.quasi_werner_spectrum(spec)))))
    assert abs(result.deviation - dev) < 1e-14


def test_werner_check_fails_a_perturbed_closed_form(monkeypatch):
    # the closed form with the 1-3 overlap D = 2 kappa / (1 + kappa^2)
    # replaced by kappa is off by up to 0.09 on the grid
    def perturbed(spec):
        w, kappa = (1.0 - spec.fidelity) / 3.0, spec.kappa
        return np.sort([spec.fidelity, w, w * (1.0 + kappa), w * (1.0 - kappa)])[::-1]

    monkeypatch.setattr(werner, "quasi_werner_spectrum", perturbed)
    result = verify.check_werner_spectrum(verify._state_grid(None))
    assert not result.passed and result.deviation > 1e-10


def test_zero_loss_amplitude_is_domain_error():
    # the antisymmetric pair vanishes at alpha = 0; named, without the
    # RuntimeWarning of normalizing a zero vector
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero, got 0.0"):
        verify.family_overlap_curve(0.0, 0.5, [1.0])
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero, got 0.0"):
        verify._b2_terms(0.0, 30)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_loss_amplitude_is_domain_error(alpha):
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero"):
        verify.family_overlap_curve(alpha, 0.5, [1.0])
    with pytest.raises(ValueError, match="loss amplitude must be finite and nonzero"):
        verify._b2_terms(alpha, 30)


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


def _patched_optimum(monkeypatch, transform):
    optimum = decoherence._optimum

    def patched(alpha, eta):
        return transform(*optimum(alpha, eta))

    monkeypatch.setattr(decoherence, "_optimum", patched)


def test_optimal_beta_check_keeps_the_position_rule(monkeypatch):
    # the oracle's peak stays at the true beta*, 1e-5 relative below the
    # shifted one, and the vertex reads that offset
    _patched_optimum(monkeypatch, lambda beta, f: (beta * (1.0 + 1e-5), f))
    result = verify.check_optimal_beta(verify._loss_grid(None))
    assert not result.passed
    assert result.deviation == pytest.approx(1e-5, rel=1e-3)


def test_optimal_beta_check_keeps_the_overlap_rule(monkeypatch):
    # reported as a failure, not raised: 1e-6 relative is 1e3 times the
    # overlap rule, so 1e-3 on the check's scale
    _patched_optimum(monkeypatch, lambda beta, f: (beta, f * (1.0 + 1e-6)))
    result = verify.check_optimal_beta(verify._loss_grid(None))
    assert not result.passed
    assert result.deviation == pytest.approx(1e-3, rel=1e-6)


def test_optimal_beta_check_fails_a_nan_overlap(monkeypatch):
    # a NaN f* never passes: optimal_beta's own finiteness check names it
    _patched_optimum(monkeypatch, lambda beta, f: (beta, f * np.nan))
    with pytest.raises(ValueError, match="family overlap is not finite"):
        verify.check_optimal_beta(verify._loss_grid(None))


def test_verify_never_names_the_search():
    # the maximizer is read from the Fock oracle's overlaps, never from
    # the closed-form kernel's own argmax
    path = Path(verify.__file__)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        assert name not in ("search_optimal_beta", "_family_overlap"), (
            f"verify.py:{node.lineno} names {name}"
        )


def test_battery_passes_without_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the battery called the closed-form search")

    monkeypatch.setattr(decoherence, "search_optimal_beta", refuse)
    results = verify.run_all()
    assert len(results) == 14 and all(r.passed for r in results)
    assert results[12].name == "optimal_beta" and results[12].deviation <= 1e-8


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
