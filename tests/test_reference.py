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
from hypothesis import assume, example, given, settings, strategies as st

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
    unequal = coherent.CoherentQuasiBell(index, alpha, beta)
    pair = 2 if index in (1, 2) else 4
    with mp.workdps(DIGITS):
        got = coherent.characteristic_function(unequal, coherent.CharFuncPoint(za, zb))
        assert deviation(got, [ref_charfunc(index, alpha, beta, za, zb)]) <= 1e-14
        got = coherent.mean_photon_numbers(unequal)
        assert within(got, ref_mean_photons(index, alpha, beta))
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


def ref_mean_photons(index, alpha, beta):
    """Each mode's x^2 (1 - sign ka kb)/(1 + sign ka kb), x its amplitude:
    <g|n|g'> = g g' <g|g'> on each coherent dyad."""
    sign, _ = states.FORMS[index]
    kk = ref_kappa(alpha) * ref_kappa(beta)
    return [mp.mpf(x) ** 2 * (1 - sign * kk) / (1 + sign * kk) for x in (alpha, beta)]


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


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(gap=st.floats(-16.0, math.log10(0.5)).map(lambda e: 10.0**e))
@example(gap=2.0**-53)
@example(gap=0.001200968618)  # decohere's alpha = 1.5, eta = 0.5 row
def test_eof_lower_bound_near_half(gap):
    # 1/2 - sqrt(f (1-f)) cancelled to 4.7e-11 relative on the default sweep
    f = 0.5 + gap
    with mp.workdps(80):
        x = mp.mpf(1) / 2 - mp.sqrt(mp.mpf(f) * (1 - mp.mpf(f)))
        want = ref_entropy([x, 1 - x])
        assert abs(measures.eof_lower_bound(f) - want) <= 1e-14 * want


def cli_report(*argv):
    """The JSON report of ``qbell <argv>``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return json.loads(out.getvalue())


def check_alpha_report(index, alpha):
    """Every field of ``qbell measures --alpha`` against mpmath."""
    report = cli_report("measures", "--alpha", repr(alpha), "--index", str(index))
    n_a, n_b = coherent.mean_photon_numbers(coherent.CoherentQuasiBell(index, alpha))
    assert report["index"] == index and report["alpha"] == alpha
    with mp.workdps(DIGITS):
        k = ref_kappa(alpha)
        lam = ref_spectrum(index, k)
        photons = ref_mean_photons(index, alpha, alpha)
        assert within([report["kappa"]], [k])
        assert within([report["normalization"]], [ref_normalization(index, k)])
        assert within([report["gram_off_diagonal"]], [2 * k / (1 + k**2)])
        assert within(report["spectrum"], lam)
        assert within([report["entropy"]], [ref_entropy(lam)])
        assert within([report["concurrence"]], [2 * mp.sqrt(lam[0] * lam[1])])
        assert within([report["mean_photon_a"], report["mean_photon_b"]], photons)
        assert within([n_a, n_b], photons)
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


# spin flip sigma_y x sigma_y and the magic basis (columns), written out
# here rather than read from measures
SPIN_FLIP = [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
MAGIC_ROWS = [[1, 0, 0, 1], [-1j, 0, 0, 1j], [0, 1, -1, 0], [0, -1j, -1j, 0]]


def mp_concurrence(r):
    """Wootters' concurrence of the mpmath matrix r: lam_i are the
    square roots of the eigenvalues of r (S r* S), from an eigensolve of
    the non-Hermitian product at the working precision."""
    s = mp.matrix(SPIN_FLIP)
    ev = mp.eig(r * (s * r.conjugate() * s), left=False, right=False)
    lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in ev), reverse=True)
    return max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


def ref_concurrence(rho):
    """The concurrence of the float matrix rho taken exactly, at 60
    digits."""
    with mp.workdps(60):
        return mp_concurrence(mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rho]))


def ref_eof(concurrence):
    """H((1 + sqrt(1 - C^2))/2) at 60 digits."""
    with mp.workdps(60):
        c = mp.mpf(concurrence)
        x = (1 - mp.sqrt(1 - min(c, 1) ** 2)) / 2
        return ref_entropy([x, 1 - x])


def ref_fraction(rho):
    """Largest eigenvalue of Re(M+ rho M), M the magic basis."""
    with mp.workdps(60):
        r = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rho])
        m = mp.matrix(MAGIC_ROWS).T / mp.sqrt(2)
        q = m.H * r * m
        real = mp.matrix([[mp.re(q[i, j] + q[j, i]) / 2 for j in range(4)] for i in range(4)])
        return max(mp.eigsy(real, eigvals_only=True))


def eof_within(got, c):
    """``got`` is H at a concurrence within 4e-15 of c (the SVD's
    absolute error; C itself may be tiny), up to 1e-13 relative in H."""
    low, high = ref_eof(max(c - 4e-15, 0)), ref_eof(c + 4e-15)
    return low * (1 - 1e-13) <= got <= high * (1 + 1e-13)


def check_eof_and_fraction(rho):
    """eof_wootters is H at a concurrence within 4e-15 of the exact one
    and fully_entangled_fraction is within 4e-15."""
    c = ref_concurrence(rho)
    got = measures.eof_wootters(rho)
    assert eof_within(got, c), (got, c)
    assert abs(measures.fully_entangled_fraction(rho) - ref_fraction(rho)) <= 4e-15


unit = st.floats(-1.0, 1.0)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    psi=st.lists(unit, min_size=8, max_size=8),
    noise=st.lists(unit, min_size=32, max_size=32),
    eps=st.floats(-14.0, -1.0).map(lambda e: 10.0**e),
)
@example(psi=[1.0, 0, 0, 0, 0, 0, 1.0, 0], noise=[1.0] * 32, eps=1e-14)
@example(psi=[1.0, 0, 0, 0, 0, 0, 0, 0], noise=[0.5, -1.0] * 16, eps=1e-14)
def test_eof_and_fraction_near_rank_one(psi, noise, eps):
    # (1 - eps) |psi><psi| + eps sigma, sigma a full-rank-ish density
    psi = np.array(psi[:4]) + 1j * np.array(psi[4:])
    assume(np.linalg.norm(psi) > 0.1)
    psi /= np.linalg.norm(psi)
    a = (np.array(noise[:16]) + 1j * np.array(noise[16:])).reshape(4, 4)
    assume(np.linalg.norm(a) > 0.1)
    sigma = a @ a.conj().T
    sigma /= np.trace(sigma).real
    rho = (1.0 - eps) * np.outer(psi, psi.conj()) + eps * sigma
    check_eof_and_fraction((rho + rho.conj().T) / 2)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    gap=st.floats(-16.0, -1.0).map(lambda e: 10.0**e),
    below=st.booleans(),
    kappa=overlaps,
)
@example(gap=1e-8, below=False, kappa=0.0)
@example(gap=1e-10, below=False, kappa=0.0)
@example(gap=1e-8, below=False, kappa=0.5)
def test_eof_and_fraction_near_separability(gap, below, kappa):
    # quasi-Werner mixtures with F just above or below 1/2
    fidelity = 0.5 - gap if below else 0.5 + gap
    check_eof_and_fraction(werner.build_quasi_werner(werner.QuasiWerner(fidelity, kappa)))


def test_werner_eof_just_above_half():
    # H((1 + sqrt(1 - C^2))/2) cancelled as C -> 0: at F = 1/2 + 1e-8 it
    # read 6.04e-15 against 5.46e-15, and 0 at F = 1/2 + 1e-10
    for gap, rel in ((1e-8, 1e-7), (1e-10, 1e-5)):
        rho = werner.build_quasi_werner(werner.QuasiWerner(0.5 + gap, 0.0))
        want = ref_eof(ref_concurrence(rho))
        assert abs(measures.eof_wootters(rho) - want) <= rel * want, gap


# F -> 1/2 from both sides, where the concurrence of the kappa = 0
# mixture goes to 0, and overlaps up to 0.95
WERNER_FIDELITIES = (0.0, 0.1, 0.25, 0.5 - 1e-8, 0.5, 0.5 + 1e-10, 0.5 + 1e-8, 0.5 + 1e-4,
                     0.7, 0.99, 1.0)
WERNER_OVERLAPS = (0.0, 0.3, 0.7, 0.95)


@pytest.mark.parametrize("fidelity", WERNER_FIDELITIES)
def test_werner_report_matches_mpmath(fidelity):
    # every number of ``qbell werner`` against the mixture built at 40
    # digits from the exact embedding of each quasi-Bell state
    for kappa in WERNER_OVERLAPS:
        report = cli_report("werner", "-F", repr(fidelity), "--kappa", repr(kappa))
        assert (report["fidelity"], report["kappa"]) == (fidelity, kappa)
        with mp.workdps(40):
            f, k = mp.mpf(fidelity), mp.mpf(kappa)
            vectors = {i: mp.matrix(ref_embed(i, kappa)) for i in states.INDICES}
            rho = sum(
                ((f if i == 2 else (1 - f) / 3) * v * v.T for i, v in vectors.items()),
                mp.zeros(4, 4),
            )
            assert within(report["eigenvalues"], ref_werner(fidelity, k))
            overlap = (vectors[2].T * rho * vectors[2])[0]
            assert within([report["entangled_fraction"]], [overlap])
            assert eof_within(report["eof_wootters"], mp_concurrence(rho)), kappa
            bound = 0
            if f > mp.mpf(1) / 2:
                x = mp.mpf(1) / 2 - mp.sqrt(f * (1 - f))
                bound = ref_entropy([x, 1 - x])
            assert within([report["eof_lower_bound"]], [bound])


@pytest.mark.parametrize("index", states.INDICES)
def test_charfunc_witness_report_matches_mpmath(index):
    # kappa = exp(-2 alpha^2) runs from 0.999998 (alpha = 1e-3) through 0.95
    # (alpha = 0.16) down to 1.3e-14 (alpha = 4)
    for alpha in (1e-3, 0.16, 0.5, 1.0, 2.0, 4.0):
        for zeta in ((0.3, 0.0, 0.0, 0.0), (0.0, 0.3, -0.2, 0.1), (-1.5, 0.7, 0.4, -2.2)):
            argv = ["charfunc", "--alpha", repr(alpha), "--index", str(index), "--witness"]
            for option, value in zip(("--zeta-a-re", "--zeta-a-im", "--zeta-b-re", "--zeta-b-im"), zeta):
                argv += [option, repr(value)]
            report = cli_report(*argv)
            assert report["zeta_a"] == list(zeta[:2]) and report["zeta_b"] == list(zeta[2:])
            with mp.workdps(40):
                want = ref_charfunc(index, alpha, alpha, complex(*zeta[:2]), complex(*zeta[2:]))
                got = [report["real"], report["imag"], report["abs"]]
                assert deviation(got, [mp.re(want), mp.im(want), abs(want)]) <= 1e-14, (alpha, zeta)


@pytest.mark.parametrize("fidelity", (0.0, 0.1, 0.25, 0.5, 1.0))
def test_werner_report_fully_entangled_fraction(fidelity):
    # the new key against the magic-basis reference of the mixture; the
    # old key keeps F, the overlap with |B2>, which is the fully entangled
    # fraction only from F = 1/4 up
    for kappa in (0.0, 0.5, 0.95):
        report = cli_report("werner", "-F", repr(fidelity), "--kappa", repr(kappa))
        rho = werner.build_quasi_werner(werner.QuasiWerner(fidelity, kappa))
        assert abs(report["fully_entangled_fraction"] - ref_fraction(rho)) <= 4e-15, kappa
        assert report["entangled_fraction"] == fidelity
        assert report["fully_entangled_fraction"] == pytest.approx(max(fidelity, (1 - fidelity) / 3), abs=4e-15)


def ref_family_overlap(alpha, eta, beta):
    """<B2(beta)| rho |B2(beta)> after loss eta on mode B of |B2(alpha)>,
    from the literal differences of coherent overlaps g(d) = exp(-d^2/2),
    at the working precision."""
    a, e, b = mp.mpf(alpha), mp.mpf(eta), mp.mpf(beta)
    s = mp.sqrt(e)

    def g(d):
        return mp.exp(-(d**2) / 2)

    diff = g(b - a) * g(s * a - b) - g(b + a) * g(b + s * a)
    coherence = mp.exp(-2 * (1 - e) * a**2)
    return (1 + coherence) * diff**2 / (2 * (1 - mp.exp(-4 * a**2)) * (1 - mp.exp(-4 * b**2)))


def test_decohere_report_matches_mpmath():
    # every row of the default ``qbell decohere --format json`` report:
    # beta* = alpha (1 + sqrt(eta)) / 2 is a maximum of the 40-digit
    # overlap (it beats beta* (1 -/+ 1e-6)), and f, beta* and the EoF
    # bound at it agree within 1e-12 relative
    points = cli_report("decohere", "--format", "json")["points"]
    grid = [(alpha, eta) for eta in (0.9, 0.7, 0.5, 0.3, 0.1) for alpha in np.linspace(0.05, 3.0, 60)]
    assert [(p["alpha"], p["eta"]) for p in points] == grid
    with mp.workdps(40):
        for p in points:
            alpha, eta = p["alpha"], p["eta"]
            beta = mp.mpf(alpha) * (1 + mp.sqrt(mp.mpf(eta))) / 2
            f = ref_family_overlap(alpha, eta, beta)
            assert f > max(ref_family_overlap(alpha, eta, beta * (1 + x)) for x in (-1e-6, 1e-6))
            bound = 0
            if f > mp.mpf(1) / 2:
                x = mp.mpf(1) / 2 - mp.sqrt(f * (1 - f))
                bound = ref_entropy([x, 1 - x])
            got = [p["f"], p["beta_star"], p["eof_lower_bound"]]
            assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, (f, beta, bound))), p
