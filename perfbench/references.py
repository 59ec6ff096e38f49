"""Reference values built from the paper's definitions, apart from qbell.

Nothing here imports qbell.  States are written as superpositions of
products of coherent states (or of an abstract pair |u>, |v> with real
overlap kappa), and every quantity is evaluated from the literal
pairwise overlaps in mpmath at DPS digits: no sinh/expm1 rewrite and no
closed form taken from the package.  The only float64 step is the
magic-basis fully entangled fraction, which is a 4x4 numpy eigenproblem
on a density matrix built here.
"""

import mpmath
import numpy as np

DPS = 40

# Hill-Wootters magic basis (columns): |Phi+>, i|Phi->, i|Psi+>, |Psi->.
# Every maximally entangled two-qubit state is a global phase times a
# real combination of these four.
MAGIC = np.array(
    [
        [1, 0, 0, 1],
        [1j, 0, 0, -1j],
        [0, 1j, 1j, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
).T / np.sqrt(2.0)


def workdps(fn):
    """Evaluate ``fn`` at DPS digits without touching the caller's mpmath
    precision."""
    return mpmath.workdps(DPS)(fn)


def coherent_overlap(a, b):
    """<a|b> for coherent amplitudes a, b (complex allowed)."""
    a, b = mpmath.mpc(a), mpmath.mpc(b)
    return mpmath.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + mpmath.conj(a) * b)


def _norm_sq(terms, overlap):
    """Squared norm of sum_k c_k |x_k>|y_k> given a single-mode overlap."""
    return sum(
        mpmath.conj(cj) * ck * overlap(xj, xk) * overlap(yj, yk)
        for cj, xj, yj in terms
        for ck, xk, yk in terms
    )


def _reduced_eigenvalues(terms, overlap):
    """Eigenvalues (descending) of the mode-A reduced state of
    sum_k c_k |x_k>|y_k> on a two-dimensional span.

    With the unnormalized mode-A operator M = sum c_j c_k* <y_k|y_j>
    |x_j><x_k| written on the non-orthogonal pair {x_1, x_2} and G the
    Gram matrix of that pair, the spectrum is that of M G / Tr(M G).
    """
    xs = []
    for _, x, _ in terms:
        if all(x != seen for seen in xs):
            xs.append(x)
    n = len(xs)
    m = mpmath.zeros(n, n)
    for cj, xj, yj in terms:
        for ck, xk, yk in terms:
            m[xs.index(xj), xs.index(xk)] += cj * mpmath.conj(ck) * overlap(yk, yj)
    g = mpmath.matrix([[overlap(xi, xk) for xk in xs] for xi in xs])
    mg = m * g
    if n == 1:
        return [mpmath.mpf(1), mpmath.mpf(0)]
    tr = mg[0, 0] + mg[1, 1]
    det = mg[0, 0] * mg[1, 1] - mg[0, 1] * mg[1, 0]
    disc = mpmath.sqrt(mpmath.re(tr) ** 2 - 4 * mpmath.re(det))
    lam = [(mpmath.re(tr) + disc) / 2, (mpmath.re(tr) - disc) / 2]
    total = lam[0] + lam[1]
    return [lam[0] / total, lam[1] / total]


def _binary_entropy(x):
    x = mpmath.mpf(x)
    if x <= 0 or x >= 1:
        return mpmath.mpf(0)
    return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))


# -- abstract quasi-Bell states over |u>, |v> with <u|v> = kappa -------------

_PATTERNS = {
    # index: (relative sign, second product term)  first term is |u>|v>
    # for 1 and 2, |u>|u> for 3 and 4
    1: (+1, ("u", "v"), ("v", "u")),
    2: (-1, ("u", "v"), ("v", "u")),
    3: (+1, ("u", "u"), ("v", "v")),
    4: (-1, ("u", "u"), ("v", "v")),
}


def _abstract_overlap(kappa):
    def overlap(p, q):
        return mpmath.mpf(1) if p == q else mpmath.mpf(kappa)

    return overlap


def _abstract_terms(index):
    sign, first, second = _PATTERNS[index]
    return [(mpmath.mpf(1), *first), (mpmath.mpf(sign), *second)]


@workdps
def kappa_of_alpha(alpha):
    """kappa = <alpha|-alpha> from the literal coherent overlap."""
    return float(mpmath.re(coherent_overlap(alpha, -alpha)))


@workdps
def quasi_bell(index, kappa):
    """Normalization h, reduced spectrum, entropy and concurrence of the
    quasi-Bell state |B_index> over a pair with overlap kappa."""
    overlap = _abstract_overlap(kappa)
    terms = _abstract_terms(index)
    h = 1 / mpmath.sqrt(mpmath.re(_norm_sq(terms, overlap)))
    lam = _reduced_eigenvalues(terms, overlap)
    return {
        "normalization": float(h),
        "spectrum": [float(x) for x in lam],
        "entropy": float(_binary_entropy(lam[0])),
        # pure two-qubit state: C^2 = 4 det(rho_A)
        "concurrence": float(2 * mpmath.sqrt(max(lam[0] * lam[1], 0))),
    }


@workdps
def quasi_bell_gram(kappa):
    """4x4 overlaps <B_i|B_j> of the normalized quasi-Bell states."""
    overlap = _abstract_overlap(kappa)
    states = []
    for index in (1, 2, 3, 4):
        terms = _abstract_terms(index)
        h = 1 / mpmath.sqrt(mpmath.re(_norm_sq(terms, overlap)))
        states.append([(h * c, x, y) for c, x, y in terms])
    return mpmath.matrix(
        [
            [
                sum(
                    cj * ck * overlap(xj, xk) * overlap(yj, yk)
                    for cj, xj, yj in si
                    for ck, xk, yk in sj
                )
                for sj in states
            ]
            for si in states
        ]
    )


def _werner_weights(fidelity):
    """Mixture weights of |B1>..|B4>: F on |B2>, (1 - F)/3 on the others."""
    rest = (1 - mpmath.mpf(fidelity)) / 3
    return [rest, mpmath.mpf(fidelity), rest, rest]


@workdps
def quasi_werner_spectrum(fidelity, kappa):
    """Eigenvalues (descending) of F |B2><B2| + (1-F)/3 (|B1><B1| +
    |B3><B3| + |B4><B4|), from W^1/2 G W^1/2 with G the Gram matrix of
    the four states: the nonzero spectra of sum_i w_i |B_i><B_i| and of
    that matrix coincide."""
    w = _werner_weights(fidelity)
    g = quasi_bell_gram(kappa)
    root = [mpmath.sqrt(x) for x in w]
    k = mpmath.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            k[i, j] = root[i] * g[i, j] * root[j]
    lam = mpmath.eigsy(k, eigvals_only=True)
    return sorted((float(x) for x in lam), reverse=True)


@workdps
def quasi_werner_fraction(fidelity, kappa):
    """<B2| rho |B2> of the quasi-Werner mixture: sum_i w_i |<B2|B_i>|^2."""
    g = quasi_bell_gram(kappa)
    w = _werner_weights(fidelity)
    return float(sum(w[i] * g[1, i] ** 2 for i in range(4)))


def _orthonormal_coords(kappa):
    """Coordinates of |u>, |v> in an orthonormal basis of their span."""
    a = mpmath.sqrt((1 + mpmath.mpf(kappa)) / 2)
    b = mpmath.sqrt((1 - mpmath.mpf(kappa)) / 2)
    return {"u": (a, b), "v": (a, -b)}


@workdps
def quasi_werner_density(fidelity, kappa):
    """The quasi-Werner mixture as a 4x4 numpy matrix in an orthonormal
    product basis, built state by state from the definitions."""
    coords = _orthonormal_coords(kappa)
    overlap = _abstract_overlap(kappa)
    rho = np.zeros((4, 4))
    for index in (1, 2, 3, 4):
        w = fidelity if index == 2 else (1.0 - fidelity) / 3.0
        terms = _abstract_terms(index)
        h = 1 / mpmath.sqrt(mpmath.re(_norm_sq(terms, overlap)))
        vec = np.zeros(4)
        for c, x, y in terms:
            vec += float(h * c) * np.array(
                [float(p * q) for p in coords[x] for q in coords[y]]
            )
        rho += w * np.outer(vec, vec)
    return rho


def fef_magic(rho):
    """Fully entangled fraction: largest eigenvalue of Re(rho) written in
    the magic basis."""
    rho = np.asarray(rho, dtype=complex)
    m = MAGIC.conj().T @ rho @ MAGIC
    return float(np.linalg.eigvalsh(m.real)[-1])


# -- coherent-state realization ----------------------------------------------

_COHERENT_PATTERNS = {
    # index: (relative sign, mode-B amplitude sign of the first term)
    1: (+1, -1),
    2: (-1, -1),
    3: (+1, +1),
    4: (-1, +1),
}


def _coherent_terms(index, alpha, beta=None):
    """Unnormalized |alpha>|s beta> + sign |-alpha>|-s beta>."""
    alpha = mpmath.mpf(alpha)
    beta = alpha if beta is None else mpmath.mpf(beta)
    sign, s = _COHERENT_PATTERNS[index]
    return [(mpmath.mpf(1), alpha, s * beta), (mpmath.mpf(sign), -alpha, -s * beta)]


@workdps
def coherent_state(index, alpha, beta=None):
    """Mean photon numbers and mode-A reduced spectrum of the coherent
    quasi-Bell state with mode amplitudes alpha and beta."""
    terms = _coherent_terms(index, alpha, beta)
    norm = mpmath.re(_norm_sq(terms, coherent_overlap))

    def mean_n(mode):
        # <x|n|y> = conj(x) y <x|y> for coherent |x>, |y>
        total = 0
        for cj, xj, yj in terms:
            for ck, xk, yk in terms:
                pa, pb = coherent_overlap(xj, xk), coherent_overlap(yj, yk)
                amp = xj * xk if mode == 0 else yj * yk
                total += cj * ck * amp * pa * pb
        return float(mpmath.re(total) / norm)

    lam = _reduced_eigenvalues(terms, coherent_overlap)
    return {
        "mean_photons": [mean_n(0), mean_n(1)],
        "spectrum": [float(x) for x in lam],
    }


def _displaced(zeta, delta):
    """D(zeta)|delta> = exp((zeta conj(delta) - conj(zeta) delta)/2) |delta + zeta>."""
    phase = mpmath.exp((zeta * mpmath.conj(delta) - mpmath.conj(zeta) * delta) / 2)
    return phase, delta + zeta


@workdps
def characteristic_function(index, alpha, zeta_a, zeta_b):
    """<psi| D_A(zeta_a) D_B(zeta_b) |psi> for the normalized coherent
    quasi-Bell state, from the displacement action on coherent states."""
    terms = _coherent_terms(index, alpha)
    za, zb = mpmath.mpc(zeta_a), mpmath.mpc(zeta_b)
    norm = mpmath.re(_norm_sq(terms, coherent_overlap))
    total = mpmath.mpc(0)
    for cj, xj, yj in terms:
        for ck, xk, yk in terms:
            pa, xa = _displaced(za, mpmath.mpc(xk))
            pb, xb = _displaced(zb, mpmath.mpc(yk))
            total += cj * ck * pa * pb * coherent_overlap(xj, xa) * coherent_overlap(yj, xb)
    value = total / norm
    return complex(float(mpmath.re(value)), float(mpmath.im(value)))


# -- photon loss on mode B ---------------------------------------------------


def _real_overlap(a, b):
    """<a|b> = exp(-(a - b)^2 / 2) for real coherent amplitudes."""
    if a == b:
        return 1
    return mpmath.exp(-((a - b) ** 2) / 2)


def _lossy_terms(alpha, eta):
    """|alpha>|-r>|-e> - |-alpha>|r>|e> on modes A, B, E, with
    r = sqrt(eta) alpha and e = sqrt(1 - eta) alpha: the beam splitter
    sends |g>_B|0>_E to |sqrt(eta) g>|sqrt(1-eta) g>."""
    alpha, eta = mpmath.mpf(alpha), mpmath.mpf(eta)
    r, e = mpmath.sqrt(eta) * alpha, mpmath.sqrt(1 - eta) * alpha
    return [(1, alpha, -r, -e), (-1, -alpha, r, e)]


def _lossy_norm_sq(lossy):
    return sum(
        cj * ck * _real_overlap(aj, ak) * _real_overlap(bj, bk) * _real_overlap(ej, ek)
        for cj, aj, bj, ej in lossy
        for ck, ak, bk, ek in lossy
    )


def _family_overlap(alpha, eta, beta, lossy=None, psi_norm=None):
    """Everything is real here: amplitudes, overlaps and coefficients."""
    if lossy is None:
        lossy = _lossy_terms(alpha, eta)
        psi_norm = _lossy_norm_sq(lossy)
    beta = mpmath.mpf(beta)
    probe = [(1, beta, -beta), (-1, -beta, beta)]
    probe_norm = sum(
        cj * ck * _real_overlap(xj, xk) * _real_overlap(yj, yk)
        for cj, xj, yj in probe
        for ck, xk, yk in probe
    )
    # <probe|_AB |psi> leaves the environment vector sum_j w_j |e_j>
    w = [
        cj * sum(tk * _real_overlap(pk, aj) * _real_overlap(qk, bj) for tk, pk, qk in probe)
        for cj, aj, bj, _ in lossy
    ]
    env = sum(
        w[j] * w[k] * _real_overlap(lossy[j][3], lossy[k][3])
        for j in range(2)
        for k in range(2)
    )
    return env / (psi_norm * probe_norm)


@workdps
def family_overlap(alpha, eta, beta):
    """<B2(beta)| rho_AB |B2(beta)> after loss eta on mode B of
    |B2(alpha)>, from the literal coherent-state overlaps."""
    return float(_family_overlap(alpha, eta, beta))


@workdps
def sweep_point(alpha, eta, beta, rel_step=1e-6):
    """(f(beta), is_max) for one sweep point: the family overlap at the
    reported maximizer, and whether f(beta) >= f(beta +/- delta) with
    delta = rel_step * beta, which checks the maximizer's location as a
    property."""
    lossy = _lossy_terms(alpha, eta)
    norm = _lossy_norm_sq(lossy)
    beta = mpmath.mpf(beta)
    delta = beta * rel_step
    mid = _family_overlap(alpha, eta, beta, lossy, norm)
    is_max = mid >= _family_overlap(alpha, eta, beta - delta, lossy, norm) and (
        mid >= _family_overlap(alpha, eta, beta + delta, lossy, norm)
    )
    return float(mid), bool(is_max)


@workdps
def eof_lower_bound(fraction):
    """H(1/2 + sqrt(f (1 - f))) for f >= 1/2, else 0."""
    f = mpmath.mpf(fraction)
    if f < mpmath.mpf(1) / 2:
        return 0.0
    return float(_binary_entropy(mpmath.mpf(1) / 2 + mpmath.sqrt(f * (1 - f))))


@workdps
def decohered_density(alpha, eta):
    """Two-mode state after loss, as a 4x4 numpy matrix in an orthonormal
    product basis of span{|alpha>, |-alpha>} x span{|r>, |-r>}."""
    lossy = _lossy_terms(alpha, eta)
    norm = _lossy_norm_sq(lossy)
    alpha = mpmath.mpf(alpha)
    r = mpmath.sqrt(mpmath.mpf(eta)) * alpha
    coords_a = _orthonormal_coords(mpmath.re(coherent_overlap(alpha, -alpha)))
    coords_b = _orthonormal_coords(mpmath.re(coherent_overlap(r, -r)))

    def vec(a, b):
        ca = coords_a["u" if a > 0 else "v"]
        cb = coords_b["u" if b > 0 else "v"]
        return np.array([float(p * q) for p in ca for q in cb])

    rho = np.zeros((4, 4))
    for cj, aj, bj, ej in lossy:
        for ck, ak, bk, ek in lossy:
            weight = float(cj * ck * _real_overlap(ek, ej) / norm)
            rho += weight * np.outer(vec(aj, bj), vec(ak, bk))
    return rho
