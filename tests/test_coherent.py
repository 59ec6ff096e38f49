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

    def counted(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(coherent, "_displacement_elements", counted)
    coherent.gaussianity_witness(coherent.CoherentQuasiBell(2, 1.0))
    # one call per mode, each at the 8 stencil and 128 sample points
    assert calls == [8 + 128, 8 + 128]


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
