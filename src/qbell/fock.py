"""Truncated photon-number-basis verifier.

Brute-force numerics used to cross-check every closed form in the rest
of the package: states are built explicitly in a truncated Fock basis
and reduced spectra, entropies, overlaps, beam-splitter action and
operator traces are computed numerically.  Nothing here calls the
closed-form modules.

Conventions: a pure state of m modes is an ndarray with one axis per
mode, each of length N+1 where N is the truncation; densities are
square 2-D arrays over the flattened kept modes.  A two-mode state may
also be kept as product terms: two stacks ``terms_a`` (T x Na) and
``terms_b`` (T x Nb) of mode vectors standing for the state
psi = sum_t terms_a[t] (x) terms_b[t] = terms_a^T terms_b.  A
quasi-Bell state is two normalized terms (_quasi_bell_terms), and the
private term kernels (_char_traces, _reduced_core, _mean_photon) read
it without forming psi or a reduced density.  Still formed densely:
the splitter outputs and vacuum tables, the displacement eigensystems,
and in verify the 4 x 4 projected loss density and the purity check's
(N+1)-square environment density.  No check calls quasi_bell_fock,
partial_trace, operator_trace_charfunc or mean_photon, the tests'
dense references.

The beam splitter runs per photon-number sector from theta-free sector
eigensystems; beam_splitter takes any two-mode vector, and the private
_splitter_on_vacuum takes the one-mode g of g (x) |0>, the loss model's
input, through one cached table of vacuum columns.
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
    basis: amplitudes proportional to |alpha|^n / sqrt(n!), taken
    through _parity for alpha < 0, so |-alpha> is the parity image of
    |alpha> bit for bit."""
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
    else:
        amps = np.zeros(truncation + 1)
        amps[0] = 1.0
    vec = amps.astype(complex)
    # bitwise vec / np.linalg.norm(vec) without its call overhead: the
    # imaginary parts are 0, and numpy divides a complex array by a real
    # scalar as a product with its reciprocal
    vec *= 1.0 / math.sqrt(vec.real.dot(vec.real))
    return _parity(vec) if alpha < 0.0 else vec


# keyed on the shape only; a default verify battery uses 13, nine
# one-mode sizes and four two-mode shapes
@lru_cache(maxsize=32)
def _odd_entries(shape):
    """Mask of the entries of a ``shape`` array whose photon numbers,
    one per axis, have an odd sum; read-only because every state of that
    shape shares it."""
    odd = np.indices(shape).sum(axis=0) % 2 == 1
    odd.flags.writeable = False
    return odd


def _parity(vec):
    """The photon-number parity (-1)^(n_1 + ... + n_m) applied to a pure
    state with one axis per mode: a copy with the odd-total entries
    negated.  Negation is exact, so the magnitudes and the norm keep
    every bit.  It takes |alpha> to |-alpha>, and a beam splitter, which
    conserves the total photon number, commutes with it:
    beam_splitter(_parity(psi)) is _parity(beam_splitter(psi))."""
    out = np.array(vec, dtype=complex)
    np.negative(out, out=out, where=_odd_entries(out.shape))
    return out


_SIGN_PATTERNS = {
    # (relative sign, mode-B amplitudes flipped?) as in states.FORMS,
    # kept apart because this oracle never imports the closed-form modules
    1: (+1.0, True),
    2: (-1.0, True),
    3: (+1.0, False),
    4: (-1.0, False),
}


def _quasi_bell_terms(state, truncation=None):
    """The quasi-Bell state as two stacked product terms (terms_a,
    terms_b), terms_a = [a, c] / norm and terms_b = [b, d], so the
    normalized state terms_a^T terms_b, with the 1/norm on mode A.

    a = |alpha> and b the first mode-B vector; the second term is
    sign (P a) (x) (P b) with P the parity (_parity), so two coherent
    vectors serve all four, and one when |beta| = |alpha|, where b is a
    or P a bit for bit (coherent_vector).  An entry (n, m) of the sum is
    2 a_n b_m when sign (-1)^(n+m) = +1 and exactly 0 otherwise, so the
    squared norm is 4 (E_a E_b + O_a O_b) for sign +1 and
    4 (E_a O_b + O_a E_b) for sign -1, with E and O the even-n and odd-n
    sums of |amplitude|^2: a sum of positive terms, which cannot cancel.
    It is checked against 2 (1 +/- ka kb) as an internal consistency
    guard.  Without a truncation, the adequacy rule of the larger
    amplitude sets it.
    """
    alpha, beta = state.alpha, state.beta
    if truncation is None:
        truncation = adequate_truncation(max(abs(alpha), abs(beta)))
    sign, flip_b = _SIGN_PATTERNS[state.index]
    amp_b = -beta if flip_b else beta
    a = coherent_vector(alpha, truncation)
    if amp_b == alpha:
        b = a
    elif amp_b == -alpha:
        b = _parity(a)
    else:
        b = coherent_vector(amp_b, truncation)
    even_a, odd_a, even_b, odd_b = (
        float(np.vdot(part, part).real) for part in (a[0::2], a[1::2], b[0::2], b[1::2])
    )
    if sign > 0:
        norm_sq = 4.0 * (even_a * even_b + odd_a * odd_b)
    else:
        norm_sq = 4.0 * (even_a * odd_b + odd_a * even_b)
    kk = math.exp(-2.0 * alpha**2) * math.exp(-2.0 * beta**2)
    expected = 2.0 * (1.0 + sign * kk)
    if abs(norm_sq - expected) > 1e-10:
        raise TruncationError(
            f"unnormalized norm^2 {norm_sq} differs from {expected}; "
            "truncation too small for these amplitudes"
        )
    # stacked copies, so b may be a itself and the sign negates only c
    terms_a = np.array((a, _parity(a)))
    if sign < 0:
        np.negative(terms_a[1], out=terms_a[1])
    terms_a /= math.sqrt(norm_sq)
    return terms_a, np.array((b, _parity(b)))


def quasi_bell_fock(state, truncation=None):
    """Two-mode quasi-Bell state a (x) b + c (x) d from the normalized
    terms of _quasi_bell_terms; the entries where they cancel are 0."""
    (a, c), (b, d) = _quasi_bell_terms(state, truncation)
    return np.outer(a, b) + np.outer(c, d)


# keyed on the sector alone, theta-free; a default verify battery uses
# 90: the full sectors 0..69 of the loss checks' tables and the 20
# partial sectors of the unitarity check's 21-level pair
@lru_cache(maxsize=128)
def _sector_eigensystem(sector, low, high):
    """Eigensystem (w, V) of the Hermitian i K on the photon-number sector
    n_first = low..high of total photon number ``sector``, with K the
    coupling generator a b+ - a+ b there.  The splitter of angle theta
    has the generator theta K, so every theta shares V and the block is
    V diag(e^{-i theta w}) V+.  Read-only because every splitter through
    that sector shares it."""
    n_first = np.arange(low + 1, high + 1)  # coupling between n_first-1 and n_first
    coupling = np.sqrt(n_first * (sector - n_first + 1.0))
    w, v = np.linalg.eigh(1j * (np.diag(coupling, k=1) - np.diag(coupling, k=-1)))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


# keyed on the angle; a default verify battery fills 123 blocks, the
# unitarity check's three angles at size 21 (the loss checks take
# _splitter_on_vacuum); the bound keeps a long-lived process that visits
# many transmissivities from growing
@lru_cache(maxsize=1024)
def _splitter_block(theta, sector, low, high):
    """Unitary on the photon-number sector n_first = low..high of total
    photon number ``sector``, the exponential of the two-mode coupling
    generator theta (a b+ - a+ b); read-only because it is cached."""
    w, v = _sector_eigensystem(sector, low, high)
    block = (v * np.exp(-1j * theta * w)) @ v.conj().T
    block.flags.writeable = False
    return block


# keyed on (angle, size); a default verify battery makes 36 tables of at
# most 70 x 70 complex entries (78 KB) each
@lru_cache(maxsize=64)
def _vacuum_columns(theta, size):
    """T[k, m] = <k, m| U |k+m, 0>, the splitter of angle theta on the
    vacuum-input states of a ``size``-level first mode: |n>|0> is the
    last state of the full sector n (low 0, high n), so its image is that
    block's last column, laid out on the sector's anti-diagonal k + m = n.
    Entries with k + m >= size are 0.  Read-only because it is cached."""
    table = np.zeros((size, size), dtype=complex)
    flat = table.reshape(-1)
    for sector in range(size):
        w, v = _sector_eigensystem(sector, 0, sector)
        column = v @ (np.exp(-1j * theta * w) * v[-1].conj())
        # (k, sector - k) for k = 0..sector, at flat index k (size - 1) +
        # sector; a one-level table's single entry takes any positive step
        flat[sector : sector * size + 1 : size - 1 or 1] = column
    table.flags.writeable = False
    return table


def _splitter_angle(eta):
    """The mixing angle theta = atan2(sqrt(1 - eta), sqrt(eta)) of the
    transmissivity-eta beam splitter, after checking eta lies in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    return math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))


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
    scatter restores the two-mode layout.  At eta = 1 each moved block
    is V V+ from its sector's eigensystem, the identity to rounding
    only.  With ``check_tail``, probability accumulating on the
    truncation boundary above 1e-9 raises a TruncationError.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
        raise ValueError("expected a two-mode vector with equal truncations")
    theta = _splitter_angle(eta)
    size = vec.shape[0]
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


def _splitter_on_vacuum(vec_a, eta):
    """beam_splitter(np.outer(vec_a, |0>), eta) without the sector loop.

    |n>|0> lies in sector n alone, so the output is T[k, m] vec_a[k + m]
    with T the cached vacuum-column table (_vacuum_columns) and vec_a
    zero-padded to 2 size - 1 entries: one strided view and one product.
    Every sector is moved, also one whose amplitude beam_splitter's
    1e-18 peak filter would pass through, and beam_splitter's boundary
    rule always applies.
    """
    vec_a = np.asarray(vec_a, dtype=complex)
    if vec_a.ndim != 1 or vec_a.size == 0:
        raise ValueError("expected a nonempty one-mode vector")
    theta = _splitter_angle(eta)
    size = len(vec_a)
    padded = np.zeros(2 * size - 1, dtype=complex)
    padded[:size] = vec_a
    # a Hankel view of the fresh buffer: entry (k, m) is padded[k + m]
    hankel = np.ndarray((size, size), complex, padded, 0, padded.strides * 2)
    out = _vacuum_columns(theta, size) * hankel
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


def _reduced_core(terms_a, terms_b, mode):
    """The T x T Hermitian core of the reduced density rho of mode
    ``mode`` (0 for A, 1 for B), for one state or a stack of states kept
    as product terms (shape (..., T, N)).  With the thin QR kept^T = Q R
    of the kept mode's terms and G = traced traced^+ the traced mode's
    Gram matrix,

        rho = kept^T G kept* = Q (R G R^+) Q^+,

    and Q has orthonormal columns, so the core R G R^+ has exactly rho's
    nonzero spectrum, at most T eigenvalues (two for a quasi-Bell
    state), in O(T^2 N) without forming rho.
    """
    kept, traced = (terms_a, terms_b) if mode == 0 else (terms_b, terms_a)
    r = np.linalg.qr(np.swapaxes(kept, -1, -2), mode="r")
    gram = traced @ np.swapaxes(traced, -1, -2).conj()
    return r @ gram @ np.swapaxes(r, -1, -2).conj()


def _mean_photon(terms_a, terms_b, mode):
    """Tr(rho n) of _reduced_core's rho = kept^T G kept*, for one state
    or a stack: with M_st = sum_n n kept_s[n] conj(kept_t[n]) it is
    Re sum_st G_st M_st, O(T^2 N) without forming rho."""
    kept, traced = (terms_a, terms_b) if mode == 0 else (terms_b, terms_a)
    gram = traced @ np.swapaxes(traced, -1, -2).conj()
    number = (kept * np.arange(kept.shape[-1])) @ np.swapaxes(kept, -1, -2).conj()
    return np.sum(gram * number, axis=(-2, -1)).real


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


def _char_traces(terms_a, terms_b, zeta_a, zeta_b):
    """operator_trace_charfunc of the two-mode state terms_a^T terms_b
    (product terms, see the module conventions) at the points
    (zeta_a[p], zeta_b[p]) of two equal-length complex arrays, in one
    stacked call.

    With zeta = r e^{i phi} and R = diag(e^{i n phi}), the generator
    zeta a+ - zeta* a is R r (a+ - a) R+, exactly so on the truncated
    space as well, so each displacement is D = R V diag(e^{-i r w}) V+ R+
    from the one cached eigensystem i (a+ - a) = V diag(w) V+ per size.
    Each term goes to that eigenbasis, x_t = Va+ Ra* a_t and
    y_t = Vb+ Rb* b_t, so Y = V+ Ra* psi Rb* V* is sum_t x_t y_t^T, and
    with E = diag(e^{-i r w}) the trace <psi| Da psi Db^T> =
    sum_ij |Y_ij|^2 Ea_i Eb_j is

        sum_st (sum_i Ea_i x_si conj(x_ti)) (sum_j Eb_j y_sj conj(y_tj)),

    O(T N^2 + T^2 N) per point, never forming Y.  The displaced state
    Ra V Ea Y Eb V^T Rb differs from V Ea Y Eb V^T only by the unit
    phases R, so its last row, sum_t (Va[-1] . Ea x_t) (Eb y_t)^T Vb^T,
    and its last column, whose probability must stay within the boundary
    rule of beam_splitter, come from the same x and y.
    """
    terms_a = np.asarray(terms_a, dtype=complex)
    terms_b = np.asarray(terms_b, dtype=complex)
    if terms_a.ndim != 2 or terms_b.ndim != 2 or len(terms_a) != len(terms_b):
        raise ValueError("expected two equally long stacks of mode vectors")
    (wa, va), (wb, vb) = (_displacement_eigensystem(t.shape[1]) for t in (terms_a, terms_b))
    za, zb = np.asarray(zeta_a, dtype=complex), np.asarray(zeta_b, dtype=complex)
    # the conjugate phases Ra*, Rb* and the diagonals Ea, Eb, one row per point
    ra = np.exp(-1j * np.angle(za)[:, None] * np.arange(terms_a.shape[1]))
    rb = np.exp(-1j * np.angle(zb)[:, None] * np.arange(terms_b.shape[1]))
    ea = np.exp(-1j * np.abs(za)[:, None] * wa)
    eb = np.exp(-1j * np.abs(zb)[:, None] * wb)

    def eigenbasis(phases, terms, v):
        # V+ R* t for every point and term, indexed (point, term, level),
        # as one matrix product over all of their rows
        rows = (phases[:, None, :] * terms).reshape(-1, terms.shape[1])
        return (rows @ v.conj()).reshape(len(phases), len(terms), -1)

    x, y = eigenbasis(ra, terms_a, va), eigenbasis(rb, terms_b, vb)
    xe, ye = x * ea[:, None, :], y * eb[:, None, :]
    last_row = np.einsum("pt,ptj->pj", xe @ va[-1], ye) @ vb.T
    last_col = np.einsum("pt,pti->pi", ye @ vb[-1], xe) @ va.T
    _check_tail(
        np.sum(np.abs(last_row) ** 2, axis=1) + np.sum(np.abs(last_col) ** 2, axis=1),
        "displaced state",
    )
    gram_a = xe @ x.conj().transpose(0, 2, 1)
    gram_b = ye @ y.conj().transpose(0, 2, 1)
    return np.sum(gram_a * gram_b, axis=(1, 2))


def operator_trace_charfunc(vec, point):
    """Characteristic function of a two-mode pure state by explicit
    operator trace:

        Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
            * exp(-(|za|^2 + |zb|^2)/2)

    evaluated through the truncated displacement of each mode (see
    _char_traces, to which the dense state is the terms (identity, vec)),
    with the same boundary rule as beam_splitter.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2:
        raise ValueError("expected a two-mode vector")
    return complex(
        _char_traces(np.eye(vec.shape[0]), vec, [complex(point.zeta_a)], [complex(point.zeta_b)])[0]
    )


def mean_photon(rho):
    """Tr(rho n) for a single-mode density matrix."""
    rho = np.asarray(rho)
    return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))
