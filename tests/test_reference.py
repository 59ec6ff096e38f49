"""High-precision references for the even/odd-basis closed forms.

Each reference is the literal formula built in mpmath: the four coherent
dyads of the characteristic function, the kappa-level spectra and the
kron-product embedding.  The dyad sum cancels down to alpha^2, so at
alpha = 1e-300 it needs over 600 digits; the references run at 700.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbell import coherent, states

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


def ref_spectrum(index, alpha):
    kappa = mp.exp(-2 * mp.mpf(alpha) ** 2)
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
        assert deviation(got, ref_spectrum(index, alpha)) <= 1e-15
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
