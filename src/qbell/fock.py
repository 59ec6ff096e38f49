"""Truncated photon-number-basis verifier.

Brute-force numerics used to cross-check every closed form in the rest
of the package: states are built explicitly in a truncated Fock basis
and reduced spectra, entropies, overlaps, beam-splitter action and
operator traces are computed numerically.  Nothing here calls the
closed-form modules.

Conventions: a pure state of m modes is an ndarray with one axis per
mode, each of length N+1 where N is the truncation; densities are
square 2-D arrays over the flattened kept modes.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncationError",
    "adequate_truncation",
    "coherent_vector",
    "quasi_bell_fock",
    "beam_splitter",
    "partial_trace",
    "von_neumann_entropy",
    "operator_trace_charfunc",
    "mean_photon",
]

class TruncationError(ValueError):
    """Raised when a truncation cannot represent the requested state."""


def adequate_truncation(alpha):
    """Smallest truncation the adequacy rule allows for amplitude alpha:
    ceil(alpha^2 + 10 sqrt(alpha^2 + 1) + 20).

    Keeps the Poisson tail mass below 1e-12 through alpha = 3, with
    margin for beam-splitter and displacement redistribution.
    """
    a2 = float(alpha) ** 2
    return int(math.ceil(a2 + 10.0 * math.sqrt(a2 + 1.0) + 20.0))


# keyed on the size only, like _sector_order; a default verify battery
# uses nine
@lru_cache(maxsize=16)
def _number_levels(size):
    """n = 0..size-1 and (1/2) log n! over ``size`` levels, read-only
    because every coherent vector of that size shares them."""
    n = np.arange(size)
    half_log_fact = 0.5 * np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, size))]))
    n.flags.writeable = False
    half_log_fact.flags.writeable = False
    return n, half_log_fact


def coherent_vector(alpha, truncation=None):
    """Normalized coherent state |alpha> (alpha real) in the number
    basis: amplitudes proportional to alpha^n / sqrt(n!), the odd ones
    negated for alpha < 0."""
    alpha = float(alpha)
    needed = adequate_truncation(alpha)
    if truncation is None:
        truncation = needed
    if truncation < needed:
        raise TruncationError(
            f"truncation {truncation} is below the adequacy rule "
            f"({needed} for amplitude {alpha}); raise it"
        )
    if alpha != 0.0:
        n, half_log_fact = _number_levels(truncation + 1)
        amps = np.exp(n * np.log(abs(alpha)) - half_log_fact - 0.5 * alpha**2)
        if alpha < 0.0:
            amps[1::2] *= -1.0
    else:
        amps = np.zeros(truncation + 1)
        amps[0] = 1.0
    vec = amps.astype(complex)
    return vec / np.linalg.norm(vec)


_SIGN_PATTERNS = {
    # (relative sign, mode-B amplitudes flipped?) as in states.FORMS,
    # kept apart because this oracle never imports the closed-form modules
    1: (+1.0, True),
    2: (-1.0, True),
    3: (+1.0, False),
    4: (-1.0, False),
}


def quasi_bell_fock(state, truncation=None):
    """Two-mode quasi-Bell state built explicitly from coherent vectors.

    Normalized numerically; the squared norm of the unnormalized
    superposition is checked against 2 (1 +/- ka kb) as an internal
    consistency guard.
    """
    alpha, beta = state.alpha, state.beta
    if truncation is None:
        truncation = adequate_truncation(max(abs(alpha), abs(beta)))
    sign, flip_b = _SIGN_PATTERNS[state.index]
    b_first, b_second = (-beta, beta) if flip_b else (beta, -beta)
    term1 = np.outer(coherent_vector(alpha, truncation), coherent_vector(b_first, truncation))
    term2 = np.outer(coherent_vector(-alpha, truncation), coherent_vector(b_second, truncation))
    raw = term1 + sign * term2
    norm_sq = float(np.vdot(raw, raw).real)
    kk = math.exp(-2.0 * alpha**2) * math.exp(-2.0 * beta**2)
    expected = 2.0 * (1.0 + sign * kk)
    if abs(norm_sq - expected) > 1e-10:
        raise TruncationError(
            f"unnormalized norm^2 {norm_sq} differs from {expected}; "
            "truncation too small for these amplitudes"
        )
    return raw / math.sqrt(norm_sq)


def _expm_antihermitian(gen):
    """exp(gen) for an anti-Hermitian generator, from the eigensystem of
    the Hermitian matrix i gen = V diag(w) V+: exp(gen) = V diag(e^{-iw}) V+."""
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


# one default verify battery fills 578 blocks; the bound keeps a
# long-lived process that visits many transmissivities from growing
@lru_cache(maxsize=1024)
def _splitter_block(theta, sector, low, high):
    """Unitary on the photon-number sector n_first = low..high of total
    photon number ``sector``, from the exponential of the two-mode
    coupling generator theta (a b+ - a+ b)."""
    size = high - low + 1
    gen = np.zeros((size, size))
    for i in range(size - 1):
        n_first = low + i + 1  # coupling between n_first-1 and n_first
        val = theta * math.sqrt(n_first * (sector - n_first + 1))
        gen[i, i + 1] = val
        gen[i + 1, i] = -val
    return _expm_antihermitian(gen)


# keyed on the two-mode size only; a default verify battery uses nine
@lru_cache(maxsize=16)
def _sector_order(size):
    """Flat C-order indices of a size x size array sorted by photon-number
    sector n_first + n_second, then by n_first, and the offsets at which
    each of the 2 size - 1 sectors starts (one more entry closes the last).
    Both are read-only because every call of that size shares them."""
    first, second = np.indices((size, size)).reshape(2, -1)
    order = np.lexsort((first, first + second))
    lengths = np.minimum(np.arange(1, 2 * size), np.arange(2 * size - 1, 0, -1))
    starts = np.concatenate(([0], np.cumsum(lengths)))
    order.flags.writeable = False
    starts.flags.writeable = False
    return order, starts


def beam_splitter(vec, eta, check_tail=True):
    """Transmissivity-eta beam splitter acting on a two-mode vector.

    Maps |g>|0> to |sqrt(eta) g>|sqrt(1-eta) g> for coherent g.  The
    generator conserves total photon number, so the exponential is
    evaluated sector by sector: one gather lays the sectors out as
    contiguous runs, each run whose largest amplitude exceeds 1e-18 is
    multiplied by its block, the rest pass through untouched, and one
    scatter restores the two-mode layout.  With ``check_tail``,
    probability accumulating on the truncation boundary above 1e-9
    raises a TruncationError.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
        raise ValueError("expected a two-mode vector with equal truncations")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    size = vec.shape[0]
    theta = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
    order, starts = _sector_order(size)
    moved = vec.ravel()[order]
    peaks = np.maximum.reduceat(np.abs(moved), starts[:-1])
    # written so that a NaN peak is moved, not passed through
    for sector in np.flatnonzero(~(peaks <= 1e-18)).tolist():
        lo, hi = starts[sector], starts[sector + 1]
        block = _splitter_block(theta, sector, max(0, sector - size + 1), min(sector, size - 1))
        moved[lo:hi] = block @ moved[lo:hi]
    # a fresh C-ordered array, so the flat scatter cannot land in a copy
    out = np.empty(size * size, dtype=complex)
    out[order] = moved
    out = out.reshape(size, size)
    if check_tail:
        _check_tail(_boundary_mass(out), "beam splitter output")
    return out


def _boundary_mass(vec):
    """Probability the two-mode ``vec`` holds on its last row and column
    (the corner counted twice)."""
    return np.sum(np.abs(vec[-1, :]) ** 2) + np.sum(np.abs(vec[:, -1]) ** 2)


def _check_tail(boundary, what):
    """Raise a TruncationError if a boundary probability (the first of
    an array of them) exceeds 1e-9."""
    boundary = np.ravel(boundary)
    over = np.flatnonzero(boundary > 1e-9)
    if over.size:
        raise TruncationError(
            f"{what} holds {boundary[over[0]]:.3e} probability on the "
            "truncation boundary; increase the truncation"
        )


def partial_trace(psi, keep):
    """Reduced density matrix, over the kept modes (a sequence of mode
    indices), of the pure state ``psi`` with one axis per mode."""
    keep = tuple(int(k) for k in keep)
    psi = np.asarray(psi, dtype=complex)
    modes = psi.ndim
    if any(k < 0 or k >= modes for k in keep):
        raise ValueError(f"keep={keep} out of range for {modes} modes")
    traced = [m for m in range(modes) if m not in keep]
    reordered = np.transpose(psi, axes=list(keep) + traced)
    d_keep = int(np.prod([psi.shape[k] for k in keep])) if keep else 1
    mat = reordered.reshape(d_keep, -1)
    return mat @ mat.conj().T


def von_neumann_entropy(rho):
    """Base-2 von Neumann entropy; eigenvalues up to 1e-14 are treated
    as exactly zero."""
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log2(lam)))


# keyed on the truncation size only; a default battery uses two sizes
@lru_cache(maxsize=8)
def _displacement_eigensystem(size):
    """Eigensystem (w, V) of the Hermitian i (a+ - a) on ``size`` levels,
    read-only because it is shared by every displacement of that size."""
    ladder = np.diag(np.sqrt(np.arange(1, size)), k=1)  # annihilation
    w, v = np.linalg.eigh(1j * (ladder.T - ladder))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _char_traces(vec, zeta_a, zeta_b):
    """operator_trace_charfunc of the two-mode vector ``vec`` at the
    points (zeta_a[i], zeta_b[i]) of two equal-length complex arrays, in
    one stacked call.

    With zeta = r e^{i phi} and R = diag(e^{i n phi}), the generator
    zeta a+ - zeta* a is R r (a+ - a) R+, exactly so on the truncated
    space as well, so each displacement is D = R V diag(e^{-i r w}) V+ R+
    from the one cached eigensystem i (a+ - a) = V diag(w) V+ per size.
    With Y = V+ Ra* psi Rb* V*, the trace <psi| Da psi Db^T> is then

        sum_ij |Y_ij|^2 exp(-i (ra w_i + rb w_j)),

    two matrix products per point where the displaced state takes four.
    That state, Ra V Ea Y Eb V^T Rb with E = diag(e^{-i r w}), differs
    from V Ea Y Eb V^T only by the unit phases R, so its last row and
    column, whose probability must stay within the boundary rule of
    beam_splitter, cost one matrix-vector product each.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2:
        raise ValueError("expected a two-mode vector")
    (wa, va), (wb, vb) = map(_displacement_eigensystem, vec.shape)
    za, zb = np.asarray(zeta_a, dtype=complex), np.asarray(zeta_b, dtype=complex)
    # the conjugate phases Ra*, Rb* and the diagonals Ea, Eb, one row per point
    ra = np.exp(-1j * np.angle(za)[:, None] * np.arange(vec.shape[0]))
    rb = np.exp(-1j * np.angle(zb)[:, None] * np.arange(vec.shape[1]))
    ea = np.exp(-1j * np.abs(za)[:, None] * wa)
    eb = np.exp(-1j * np.abs(zb)[:, None] * wb)
    y = va.conj().T @ (ra[:, :, None] * vec * rb[:, None, :]) @ vb.conj()
    last_row = np.einsum("pi,pij->pj", va[-1] * ea, y) * eb @ vb.T
    last_col = (ea * np.einsum("pij,pj->pi", y, eb * vb[-1])) @ va.T
    _check_tail(
        np.sum(np.abs(last_row) ** 2, axis=1) + np.sum(np.abs(last_col) ** 2, axis=1),
        "displaced state",
    )
    return np.einsum("pi,pij,pj->p", ea, y.real**2 + y.imag**2, eb)


def operator_trace_charfunc(vec, point):
    """Characteristic function of a two-mode pure state by explicit
    operator trace:

        Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
            * exp(-(|za|^2 + |zb|^2)/2)

    evaluated through the truncated displacement of each mode (see
    _char_traces), with the same boundary rule as beam_splitter.
    """
    return complex(_char_traces(vec, [complex(point.zeta_a)], [complex(point.zeta_b)])[0])


def mean_photon(rho):
    """Tr(rho n) for a single-mode density matrix."""
    rho = np.asarray(rho)
    return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))
