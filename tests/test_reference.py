"""High-precision references for the even/odd-basis closed forms.

Each reference is the literal formula built in mpmath: the four coherent
dyads of the characteristic function, the kappa-level normalizations,
spectra, entropies and mean photon numbers, the quasi-Werner eigenvalues
and the kron-product embedding.  The dyad sum cancels down to alpha^2,
and 1 - kappa^2 down to 4 alpha^2, so at alpha = 1e-300 they need over
600 digits; the references run at 700.
"""

import contextlib
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbell import cli, coherent, measures, states, werner

DIGITS = 700

amplitudes = st.floats(-300.0, math.log10(30.0)).map(lambda e: 10.0**e)
overlaps = st.floats(0.0, 1.0 - 1e-16)
coordinates = st.floats(-2.5, 2.5)


def ref_charfunc(index, alpha, beta, za, zb):
    sign, swapped = states.FORMS[index]
    a, b = mp.mpf(alpha), mp.mpf(beta)
    if swapped:
        b = -b
    ka, kb = mp.exp(-2 * a * a), mp.exp(-2 * b * b)
    h = 1 / mp.sqrt(2 * (1 + sign * ka * kb))
    terms = [(h, a, b), (sign * h, -a, -b)]
    za, zb = mp.mpc(za), mp.mpc(zb)

    def elem(gamma, delta, zeta):
        shift = zeta * gamma - mp.conj(zeta) * delta
        return mp.exp(-((gamma - delta) ** 2) / 2 + shift)

    total = sum(
        cj * ck * elem(aj, ak, za) * elem(bj, bk, zb)
        for cj, aj, bj in terms
        for ck, ak, bk in terms
    )
    return total * mp.exp(-(abs(za) ** 2 + abs(zb) ** 2) / 2)


def ref_kappa(alpha):
    return mp.exp(-2 * mp.mpf(alpha) ** 2)


def ref_spectrum(index, kappa):
    if index in (2, 4):
        return [mp.mpf(1) / 2, mp.mpf(1) / 2]
    return sorted(
        [(1 + s * kappa) ** 2 / (2 * (1 + kappa**2)) for s in (1, -1)], reverse=True
    )


def ref_asymmetric(alpha, beta):
    ka, kb = mp.exp(-2 * mp.mpf(alpha) ** 2), mp.exp(-2 * mp.mpf(beta) ** 2)
    denom = 2 * (1 - ka * kb)
    lam = [(1 + ka) * (1 - kb) / denom, (1 - ka) * (1 + kb) / denom]
    return sorted(lam, reverse=True)


def ref_embed(index, kappa):
    sign, swapped = states.FORMS[index]
    kappa = mp.mpf(kappa)
    p, m = mp.sqrt((1 + kappa) / 2), mp.sqrt((1 - kappa) / 2)
    u, v = [p, m], [p, -m]
    w, w_prime = (v, u) if swapped else (u, v)
    h = 1 / mp.sqrt(2 * (1 + sign * kappa**2))
    c = [h * (u[i] * w[j] + sign * v[i] * w_prime[j]) for i in (0, 1) for j in (0, 1)]
    lead = next(x for x in c if x != 0)
    return [x * mp.sign(lead) for x in c]


def deviation(got, want):
    return max(abs(mp.mpc(g) - w) for g, w in zip(np.atleast_1d(got), want))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(
    index=st.sampled_from(states.INDICES),
    alpha=amplitudes,
    beta=amplitudes,
    kappa=overlaps,
    zeta=st.tuples(coordinates, coordinates, coordinates, coordinates),
)
def test_even_odd_closed_forms_match_mpmath(index, alpha, beta, kappa, zeta):
    za, zb = complex(zeta[0], zeta[1]), complex(zeta[2], zeta[3])
    state = coherent.CoherentQuasiBell(index, alpha)
    pair = 2 if index in (1, 2) else 4
    with mp.workdps(DIGITS):
        got = coherent.characteristic_function(state, coherent.CharFuncPoint(za, zb))
        assert deviation(got, [ref_charfunc(index, alpha, alpha, za, zb)]) <= 1e-14
        got = coherent.coherent_spectrum(state)
        assert deviation(got, ref_spectrum(index, ref_kappa(alpha))) <= 1e-15
        got = coherent.asymmetric_spectrum(alpha, beta, pair)
        assert deviation(got, ref_asymmetric(alpha, beta)) <= 1e-15
        got = states.embed_qubit(states.QuasiBell(index, kappa))
        assert deviation(got, ref_embed(index, kappa)) <= 1e-15


def test_asymmetric_spectrum_small_amplitudes():
    # 1 - ka kb rounds to 0 at 1e-9, where the state is still defined
    assert list(coherent.asymmetric_spectrum(1e-9, 1e-9, 2)) == [0.5, 0.5]
    with mp.workdps(DIGITS):
        got = coherent.asymmetric_spectrum(1e-4, 2e-4, 2)
        assert deviation(got, ref_asymmetric(1e-4, 2e-4)) <= 1e-15


@pytest.mark.parametrize("index", [1, 3])
def test_charfunc_zero_amplitude_is_vacuum(index):
    state = coherent.CoherentQuasiBell(index, 0.0)
    value = coherent.characteristic_function(state, coherent.CharFuncPoint(0.3j, 0.2))
    assert value == pytest.approx(0.9370674633774034, abs=1e-16)  # exp(-0.065)


def test_subnormal_amplitude_is_named_domain_error():
    for index in (2, 4):
        with pytest.raises(ValueError, match="1e-320"):
            coherent.CoherentQuasiBell(index, 1e-320)
    with pytest.raises(ValueError, match="undefined"):
        coherent.asymmetric_spectrum(1e-320, 0.0, 2)
    # indices 1 and 3 are the vacuum there
    state = coherent.CoherentQuasiBell(1, 1e-320)
    value = coherent.characteristic_function(state, coherent.CharFuncPoint(0.3j, 0.2))
    assert value == pytest.approx(0.9370674633774034, abs=1e-16)


def test_charfunc_far_from_origin_is_zero():
    # the Gaussian envelope vanishes there; no 0 * inf may reach the sum
    for alpha in (1e-300, 1.0):
        state = coherent.CoherentQuasiBell(1, alpha)
        assert coherent.characteristic_function(state, coherent.CharFuncPoint(1e300j)) == 0


def ref_normalization(index, kappa):
    sign, _ = states.FORMS[index]
    return 1 / mp.sqrt(2 * (1 + sign * kappa**2))


def ref_entropy(lam):
    return -sum(x * mp.log(x, 2) for x in lam if x > 0)


def ref_werner(fidelity, kappa):
    f = mp.mpf(fidelity)
    w, d = (1 - f) / 3, 2 * kappa / (1 + kappa**2)
    return sorted([f, w, w * (1 + d), w * (1 - d)], reverse=True)


def ref_mean_photon(index, alpha):
    a2 = mp.mpf(alpha) ** 2
    k2 = ref_kappa(alpha) ** 2
    return a2 * ((1 - k2) / (1 + k2) if index in (1, 3) else (1 + k2) / (1 - k2))


def within(got, want):
    """Each value within 1e-13 relative, or 1e-300 absolute where the
    reference underflows."""
    return all(
        abs(mp.mpc(g) - w) <= max(1e-13 * abs(w), mp.mpf(1e-300))
        for g, w in zip(np.atleast_1d(got), want)
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(index=st.sampled_from(states.INDICES), kappa=overlaps, fidelity=st.floats(0.0, 1.0))
@example(index=1, kappa=1.0 - 1e-16, fidelity=0.25)
@example(index=2, kappa=1.0 - 1e-16, fidelity=0.25)
@example(index=3, kappa=1.0 - 1e-8, fidelity=0.5)
def test_overlap_level_forms_match_mpmath(index, kappa, fidelity):
    state = states.QuasiBell(index, kappa)
    with mp.workdps(DIGITS):
        k = mp.mpf(kappa)
        lam = ref_spectrum(index, k)
        assert within([states.normalization_constant(index, kappa)], [ref_normalization(index, k)])
        assert within(states.reduced_spectrum(state), lam)
        assert within([states.entropy_of_entanglement(state)], [ref_entropy(lam)])
        assert within(states.embed_qubit(state), ref_embed(index, kappa))
        spectrum = werner.quasi_werner_spectrum(werner.QuasiWerner(fidelity, kappa))
        assert within(spectrum, ref_werner(fidelity, k))


def test_binary_entropy_small_argument():
    with mp.workdps(DIGITS):
        for x in (1e-12, 1e-20, 1e-300, 1.0 - 1e-12, 1.0 - 2.0**-53):
            want = ref_entropy([mp.mpf(x), 1 - mp.mpf(x)])
            assert within([measures.binary_entropy(x)], [want])


def measures_report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["measures", *argv])
    return json.loads(out.getvalue())


def check_alpha_report(index, alpha):
    """Every field of ``qbell measures --alpha`` against mpmath."""
    report = measures_report("--alpha", repr(alpha), "--index", str(index))
    n_a, n_b = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(index, alpha))
    assert report["index"] == index and report["alpha"] == alpha
    with mp.workdps(DIGITS):
        k = ref_kappa(alpha)
        lam = ref_spectrum(index, k)
        photons = ref_mean_photon(index, alpha)
        assert within([report["kappa"]], [k])
        assert within([report["normalization"]], [ref_normalization(index, k)])
        assert within([report["gram_off_diagonal"]], [2 * k / (1 + k**2)])
        assert within(report["spectrum"], lam)
        assert within([report["entropy"]], [ref_entropy(lam)])
        assert within([report["concurrence"]], [2 * mp.sqrt(lam[0] * lam[1])])
        assert within([report["mean_photon_a"], report["mean_photon_b"]], [photons] * 2)
        assert within([n_a, n_b], [photons] * 2)
    return report


@pytest.mark.parametrize("index", states.INDICES)
def test_measures_alpha_report_over_amplitudes(index):
    for alpha in (1e-300, 1e-160, 1e-9, 1e-7, 1e-5, 1e-3, 1.0, 3.0):
        report = check_alpha_report(index, alpha)
        if alpha == 1e-9:
            # exp(-2 alpha^2) rounds to 1 here, where the state is defined
            assert report["kappa"] == 1.0 and report["gram_off_diagonal"] == 1.0


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(index=st.sampled_from(states.INDICES), alpha=amplitudes)
def test_measures_alpha_report_matches_mpmath(index, alpha):
    check_alpha_report(index, alpha)
