import numpy as np
import pytest

from qbell import coherent, fock, states

E2 = float(np.exp(-2.0))


def test_overlap_of_amplitude():
    assert coherent.overlap_of_amplitude(1.0) == pytest.approx(E2, abs=1e-15)
    assert coherent.overlap_of_amplitude(0.0) == 1.0
    assert coherent.overlap_of_amplitude(6.0) == pytest.approx(0.0, abs=1e-30)
    # Gaussian overlap of the truncated vectors reproduces it
    numeric = np.vdot(fock.coherent_vector(1.0), fock.coherent_vector(-1.0)).real
    assert numeric == pytest.approx(E2, abs=1e-12)
    with pytest.raises(ValueError):
        coherent.overlap_of_amplitude(1.0 + 1j)


def test_state_construction():
    st = coherent.CoherentQuasiBell(2, 1.0)
    assert st.beta == 1.0 and st == coherent.CoherentQuasiBell(2, 1.0, 1.0)
    with pytest.raises(ValueError, match="undefined"):
        coherent.CoherentQuasiBell(2, 0.0)
    # the odd cat state times the vacuum: |-+> in the even/odd basis
    for index in (2, 4):
        odd_cat = coherent.CoherentQuasiBell(index, 1.0, 0.0)
        assert np.array_equal(np.abs(states.embed_qubit(odd_cat)), [0.0, 0.0, 1.0, 0.0])
        assert coherent.mean_photon_numbers(odd_cat)[1] == 0.0
    # unequal amplitudes reach every operation
    asym = coherent.CoherentQuasiBell(2, 1.0, 2.0)
    n_a, n_b = coherent.mean_photon_numbers(asym)
    assert n_a != n_b
    value = coherent.characteristic_function(asym, coherent.CharFuncPoint(0.0, 0.0))
    assert value == pytest.approx(1.0, abs=1e-15)


def test_mean_photon_numbers():
    n_a, n_b = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(1, 1.0))
    assert n_a == n_b == pytest.approx(0.9640275800758168, abs=1e-12)
    n_a, _ = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(2, 1.0))
    assert n_a == pytest.approx(1.0373147207275482, abs=1e-12)
    n_a, _ = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(2, 3.0))
    assert n_a == pytest.approx(9.0, abs=1e-6)


def test_mean_photon_tiny_amplitude():
    # 1 - kappa^2 rounds to 0 here; the limit of indices 2 and 4 is 1/2
    n_a, n_b = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(2, 3e-9))
    assert abs(n_a - 0.5) < 1e-12 and n_a == n_b


def test_mean_photon_matches_oracle():
    for alpha in (0.5, 1.0, 2.0):
        for index in (1, 2, 3, 4):
            state = coherent.CoherentQuasiBell(index, alpha)
            closed = coherent.mean_photon_numbers(state)[0]
            vec = fock.quasi_bell_fock(state)
            numeric = fock.mean_photon(fock.partial_trace(vec, keep=(0,)))
            assert abs(closed - numeric) < 1e-9


def test_mean_photon_ordering():
    for alpha in np.linspace(0.2, 3.0, 15):
        low = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(1, alpha))[0]
        high = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(2, alpha))[0]
        assert low < alpha**2 < high


def test_charfunc_normalization_and_values():
    p0 = coherent.CharFuncPoint(0.0, 0.0)
    for index in (1, 2, 3, 4):
        value = coherent.characteristic_function(
            coherent.CoherentQuasiBell(index, 1.0), p0
        )
        assert value == pytest.approx(1.0, abs=1e-12)
    st2 = coherent.CoherentQuasiBell(2, 1.0)
    value = coherent.characteristic_function(st2, coherent.CharFuncPoint(0.3j, 0.0))
    oracle = fock.operator_trace_charfunc(
        fock.quasi_bell_fock(st2), coherent.CharFuncPoint(0.3j, 0.0)
    )
    assert abs(value - oracle) < 1e-8
    # real arguments on the symmetric-sum state give a real value
    st3 = coherent.CoherentQuasiBell(3, 1.0)
    value = coherent.characteristic_function(st3, coherent.CharFuncPoint(0.5, 0.5))
    assert abs(value.imag) < 1e-10
    oracle = fock.operator_trace_charfunc(
        fock.quasi_bell_fock(st3), coherent.CharFuncPoint(0.5, 0.5)
    )
    assert abs(value - oracle) < 1e-8


def test_charfunc_matches_oracle_random_points():
    rng = np.random.default_rng(21)
    for index in (1, 2, 3, 4):
        state = coherent.CoherentQuasiBell(index, 1.0)
        vec = fock.quasi_bell_fock(state)
        for _ in range(10):
            za, zb = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
            point = coherent.CharFuncPoint(za, zb)
            closed = coherent.characteristic_function(state, point)
            numeric = fock.operator_trace_charfunc(vec, point)
            assert abs(closed - numeric) < 1e-8


def test_charfunc_hermiticity():
    rng = np.random.default_rng(22)
    state = coherent.CoherentQuasiBell(1, 0.8)
    for _ in range(100):
        za, zb = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        plus = coherent.characteristic_function(state, coherent.CharFuncPoint(za, zb))
        minus = coherent.characteristic_function(
            state, coherent.CharFuncPoint(-np.conj(za), -np.conj(zb))
        )
        assert abs(minus - np.conj(plus)) < 1e-10


@pytest.mark.parametrize(
    "za, zb, name",
    [
        (complex(0.0, float("nan")), 0.0, "zeta_a"),
        (complex(float("inf"), 0.0), 0.0, "zeta_a"),
        (0.3j, complex(float("nan"), 1.0), "zeta_b"),
        (0.3j, complex(0.0, -float("inf")), "zeta_b"),
    ],
)
def test_non_finite_argument_is_domain_error(za, zb, name):
    # a NaN argument used to give a NaN value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        coherent.characteristic_function(
            coherent.CoherentQuasiBell(1, 1.0), coherent.CharFuncPoint(za, zb)
        )


def _one_amplitude_elements(alpha, zeta):
    """The kernel's entries at one amplitude and a 1-D array of points,
    evaluated with scalar components: the reference each broadcast row
    must equal bit for bit."""
    plus, minus = coherent._cat_components(alpha)
    x, y = zeta.real, np.clip(zeta.imag, -40.0, 40.0)
    e = np.zeros((2, 2) + zeta.shape, dtype=complex)
    with np.errstate(over="ignore"):
        xa, ya, y2 = x * alpha, y * alpha, y * y
        shift = np.abs(x) - 2.0 * abs(alpha)
        gauss = coherent._exp(-0.5 * (x * x + y2))
        bounded = coherent._exp(-0.5 * (shift * shift + y2))
        t = np.expm1(-2.0 * np.abs(xa))
        cosh = 0.5 * bounded * (1.0 + (1.0 + t) ** 2)
        e[0, 0] = (gauss * np.cos(2.0 * ya) + cosh) / (2.0 * plus * plus)
        if minus == 0.0:
            return e
        sin_ratio, t_ratio = np.sin(ya) / minus, 0.5 * t / minus
        e[1, 1] = gauss - gauss * sin_ratio * sin_ratio - bounded * t_ratio * t_ratio
        cross = 2.0 * plus * minus
        sinh = np.copysign(-0.5 * bounded * t * (2.0 + t), xa) / cross
        e[0, 1].imag = e[1, 0].imag = gauss * np.sin(2.0 * ya) / cross
    e[0, 1].real, e[1, 0].real = -sinh, sinh
    return e


def _one_state_values(state, zeta_a, zeta_b):
    # the characteristic function of one state as a sum over its two
    # even/odd coefficients, one reference kernel call per mode
    ea, eb = (
        _one_amplitude_elements(amp, zeta)
        for amp, zeta in ((state.alpha, zeta_a), (state.beta, zeta_b))
    )
    return sum(
        cj * ck * ea[j >> 1, k >> 1] * eb[j & 1, k & 1]
        for j, cj in state.terms for k, ck in state.terms
    )


def test_broadcast_kernel_rows_are_the_one_amplitude_evaluation():
    # each row of one call over a column of amplitudes, alpha = 0, a
    # subnormal alpha^2, a negative alpha and |Im zeta| > 40 among them,
    # is bitwise the scalar evaluation at that row's amplitude
    rng = np.random.default_rng(3001)
    amplitudes = [0.0, 1e-160, 0.05, 0.5, 1.0, -2.0, 3.0, 27.0]
    zeta = rng.uniform(-3.0, 3.0, (8, 9)) + 1j * rng.uniform(-3.0, 3.0, (8, 9))
    zeta[:, 0] = 0.0
    zeta[:, 1] = 0.4 + 41.0j
    zeta[:, 2] = -1e200 - 55.0j
    zeta[:, 3] = 6.0 - 0.5j
    e = coherent._displacement_elements(amplitudes, zeta)
    assert e.shape == (2, 2, 8, 9)
    assert np.isfinite(e).all()
    for row, alpha in enumerate(amplitudes):
        assert np.array_equal(e[:, :, row], _one_amplitude_elements(alpha, zeta[row])), alpha
        one = coherent._displacement_elements([alpha], zeta[row : row + 1])
        assert np.array_equal(one[:, :, 0], e[:, :, row]), alpha
    # the vacuum row's odd entries, which no state weights, are 0
    assert not e[1, :, 0].any() and not e[0, 1, 0].any()


def test_stacked_char_values_are_the_one_state_sums():
    # characteristic_function, gaussianity_witness and the stacked
    # _char_values give bitwise the one-state sums over the scalar kernel
    rng = np.random.default_rng(3002)
    quasi_bells = [
        coherent.CoherentQuasiBell(index, alpha, beta)
        for alpha, beta in ((1.0, 1.0), (0.5, 1.5), (2.0, 0.0), (1e-3, 0.7))
        for index in (1, 2, 3, 4)
    ]
    za = rng.uniform(-2.0, 2.0, (16, 5)) + 1j * rng.uniform(-2.0, 2.0, (16, 5))
    zb = rng.uniform(-2.0, 2.0, (16, 5)) + 1j * rng.uniform(-2.0, 2.0, (16, 5))
    za[:, 0] = zb[:, 1] = 0.0
    stacked = coherent._char_values(quasi_bells, za, zb)
    assert stacked.shape == (16, 5)
    coords = np.concatenate((coherent._STENCIL, coherent._WITNESS_COORDS))
    sample_a, sample_b = coords[:, 0] + 1j * coords[:, 1], coords[:, 2] + 1j * coords[:, 3]
    for s, state in enumerate(quasi_bells):
        reference = _one_state_values(state, za[s], zb[s])
        assert np.array_equal(stacked[s], reference), state
        point = coherent.CharFuncPoint(za[s, 2], zb[s, 2])
        assert coherent.characteristic_function(state, point) == reference[2], state
        witness = coherent._log_fit_residual(coords, _one_state_values(state, sample_a, sample_b))
        assert coherent.gaussianity_witness(state) == witness, state


def test_witness_cat_states_not_gaussian():
    res = coherent.gaussianity_witness(coherent.CoherentQuasiBell(2, 1.0))
    assert res > 0.01
    assert res == pytest.approx(2.731898635180572, rel=1e-6)  # regression anchor
    res4 = coherent.gaussianity_witness(coherent.CoherentQuasiBell(4, 0.2))
    assert res4 > 0.01
    assert res4 == pytest.approx(2.0696597623943713, rel=1e-6)


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_witness_matches_generic_fit(index, log_fit_residual):
    # the batched witness against the point-by-point generic fit
    for alpha in (0.2, 0.5, 1.0, 2.0, 3.0):
        state = coherent.CoherentQuasiBell(index, alpha)
        generic = log_fit_residual(lambda p: coherent.characteristic_function(state, p))
        assert coherent.gaussianity_witness(state) == pytest.approx(generic, rel=1e-12)


def test_witness_is_one_kernel_evaluation(monkeypatch):
    calls = []
    kernel = coherent._displacement_elements

    def counted(amplitudes, zeta):
        calls.append((list(amplitudes), zeta.shape))
        return kernel(amplitudes, zeta)

    monkeypatch.setattr(coherent, "_displacement_elements", counted)
    coherent.gaussianity_witness(coherent.CoherentQuasiBell(2, 1.0, 0.5))
    # one call for both modes, one row each at the 8 stencil and 128
    # sample points
    assert calls == [([1.0, 0.5], (2, 8 + 128))]


def test_witness_floor():
    # indices 1 and 3 tend to the vacuum: the residual falls as ~10.9 alpha^4
    for index in (1, 3):
        for alpha in (5e-3, 1e-2, 3e-2):
            res = coherent.gaussianity_witness(coherent.CoherentQuasiBell(index, alpha))
            assert 10.0 <= res / alpha**4 <= 12.0
    # indices 2 and 4 stay near 2.01 at every amplitude
    for index in (2, 4):
        for alpha in (1e-150, 1e-4, 1e-2):
            res = coherent.gaussianity_witness(coherent.CoherentQuasiBell(index, alpha))
            assert res >= 2.0


def test_witness_gaussian_control(log_fit_residual):
    # a coherent product state evaluated by the oracle trace is Gaussian
    n = fock.adequate_truncation(0.7)
    control = np.outer(fock.coherent_vector(0.7, n), fock.coherent_vector(0.3, n))
    residual = log_fit_residual(lambda p: fock.operator_trace_charfunc(control, p))
    assert residual <= 1e-9


def test_asymmetric_spectrum():
    assert np.allclose(
        coherent.asymmetric_spectrum(1.0, 1.0, 2), [0.5, 0.5], atol=1e-15
    )
    lam = coherent.asymmetric_spectrum(1.0, 2.0, 2)
    vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(2, 1.0, 2.0))
    numeric = np.sort(np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,))))[::-1][:2]
    assert np.max(np.abs(lam - numeric)) < 1e-10
    # kappa_b -> 0 limit
    ka = E2
    lam = coherent.asymmetric_spectrum(1.0, 6.0, 2)
    assert np.allclose(lam, [(1 + ka) / 2, (1 - ka) / 2], atol=1e-12)
    with pytest.raises(ValueError):
        coherent.asymmetric_spectrum(0.0, 0.0, 2)
    with pytest.raises(ValueError):
        coherent.asymmetric_spectrum(1.0, 1.0, 3)


def test_asymmetric_entropy_peaks_at_equal_amplitudes():
    from qbell.measures import binary_entropy

    betas = np.arange(0.5, 1.5, 1e-3)
    entropies = [
        binary_entropy(coherent.asymmetric_spectrum(1.0, b, 2)[0]) for b in betas
    ]
    assert abs(betas[int(np.argmax(entropies))] - 1.0) <= 1e-3 + 1e-12


def test_closed_form_spectra_match_oracle_over_grid():
    for alpha in np.linspace(0.1, 3.0, 7):
        kappa = coherent.overlap_of_amplitude(alpha)
        for index in (1, 2, 3, 4):
            closed = states.reduced_spectrum(states.QuasiBell(index, kappa))
            vec = fock.quasi_bell_fock(coherent.CoherentQuasiBell(index, alpha))
            numeric = np.sort(
                np.linalg.eigvalsh(fock.partial_trace(vec, keep=(0,)))
            )[::-1][:2]
            assert np.max(np.abs(closed - numeric)) < 1e-9
