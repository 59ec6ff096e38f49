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
psi = sum_t terms_a[t] (x) terms_b[t] = terms_a^T terms_b, and many
states as stacks of those, (S, T, N).  _quasi_bell_terms is the one
constructor of every quasi-Bell state the oracle uses, verify's lossy
pair included: it builds S states at one truncation in one pass, each
as two normalized terms, from one exp over the distinct mode magnitudes
(_coherent_rows), with the parity and the signs applied by negating
entries, bitwise the per-state build; one state is a stack of one.
The private term kernels (_char_traces, _reduced_core, _mean_photon)
read a stack without forming psi or a reduced density; _char_traces
takes only (S, T, N) stacks.  Still formed densely: the splitter
outputs and vacuum tables, the displacement eigensystems, and in verify
the 4 x 4 projected loss densities and the purity check's (N+1)-square
environment density.  No check calls quasi_bell_fock, beam_splitter,
partial_trace, operator_trace_charfunc or mean_photon, the tests' dense
references.

The beam splitter runs per photon-number sector from theta-free sector
eigensystems, each from one real symmetric eigensolve, and reads every
sector of a C-ordered square as one strided run (_sector_run).  The
oracle's one splitter kernel is the private _splitter_on_vacuum: it
takes a stack of one-mode g of g (x) |0>, the loss model's input, at a
sequence of transmissivities in one product with the cached tables of
vacuum columns per (theta, size), each column the image of |n>|0>.
beam_splitter takes any two-mode vector and moves each run in place by
a block formed per call.  A default verify battery makes 9
_splitter_on_vacuum calls, one per amplitude of the beam-splitter rule
and of the loss grid and one for the unitarity check, fills 70
eigensystems and 37 tables, and never recomputes one.  No state, term
or Gram is cached: every battery builds its own.
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


# keyed on the size only; a default verify battery uses eight
@lru_cache(maxsize=16)
def _number_levels(size):
    """n = 0..size-1 and (1/2) log n! over ``size`` levels, read-only
    because every coherent vector of that size shares them."""
    n = np.arange(size)
    half_log_fact = 0.5 * np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, size))]))
    n.flags.writeable = False
    half_log_fact.flags.writeable = False
    return n, half_log_fact


def _check_truncation(amplitudes, truncation):
    """Raise a TruncationError naming the first amplitude the adequacy
    rule puts above ``truncation``.  The rule grows with |amplitude|, so
    a stack of finite amplitudes that passes costs one evaluation, at
    its largest |amplitude|; only a failing or non-finite stack is read
    amplitude by amplitude."""
    sizes = [abs(float(alpha)) for alpha in amplitudes]
    if math.isfinite(sum(sizes)) and truncation >= adequate_truncation(max(sizes, default=0.0)):
        return
    for alpha in amplitudes:
        needed = adequate_truncation(alpha)
        if truncation < needed:
            raise TruncationError(
                f"truncation {truncation} is below the adequacy rule "
                f"({needed} for amplitude {float(alpha)}); raise it"
            )


def _coherent_rows(magnitudes, truncation):
    """Normalized coherent vectors |m> of magnitudes m >= 0 as the rows of
    one complex (M, truncation + 1) array, from one exp over all of them:
    amplitudes proportional to m^n / sqrt(n!), and the vacuum at m = 0.
    Each row is normalized through its own dot product, so it is bitwise
    the row a one-magnitude call gives.  The adequacy rule is the
    caller's (_check_truncation)."""
    mags = np.array(magnitudes, dtype=float)
    n, half_log_fact = _number_levels(truncation + 1)
    logs = np.log(mags, out=np.zeros_like(mags), where=mags > 0.0)
    rows = np.exp(n * logs[:, None] - half_log_fact - (0.5 * mags**2)[:, None]).astype(complex)
    if not mags.all():
        rows[mags == 0.0] = np.eye(1, truncation + 1)
    # bitwise row / np.linalg.norm(row) without its call overhead: the
    # imaginary parts are 0, the norm takes the same strided dot of the
    # real parts, and numpy divides a complex array by a real scalar as a
    # product with its reciprocal
    rows *= np.array([1.0 / math.sqrt(part.dot(part)) for part in rows.real])[:, None]
    return rows


def _coherent_vectors(amplitudes, truncation=None):
    """coherent_vector of each real amplitude as the rows of one (A,
    truncation + 1) array: one _coherent_rows pass over the magnitudes,
    and each negative amplitude's row taken through the parity
    (_negate_odd).  Without a truncation, the adequacy rule of the
    largest |amplitude| sets it."""
    amps = [float(alpha) for alpha in amplitudes]
    if truncation is None:
        truncation = adequate_truncation(max(map(abs, amps)))
    _check_truncation(amps, truncation)
    vecs = _coherent_rows([abs(alpha) for alpha in amps], truncation)
    for row, alpha in zip(vecs, amps):
        if alpha < 0.0:
            _negate_odd(row)
    return vecs


def coherent_vector(alpha, truncation=None):
    """Normalized coherent state |alpha> (alpha real) in the number
    basis: amplitudes proportional to |alpha|^n / sqrt(n!), taken
    through the parity for alpha < 0, so |-alpha> is the parity image of
    |alpha> bit for bit; a stack of one (_coherent_vectors)."""
    return _coherent_vectors((alpha,), truncation)[0]


def _negate_odd(stack, axis=-1):
    """Negate the odd-index entries along ``axis`` of ``stack`` in place:
    the parity of each one-mode vector of a stack, the one place the
    sign rule (-1)^n is applied.  Negation is exact, so the magnitudes
    and the norm keep every bit."""
    odd = stack[(slice(None),) * (axis % stack.ndim) + (slice(1, None, 2),)]
    np.negative(odd, out=odd)


_SIGN_PATTERNS = {
    # (relative sign, mode-B amplitudes flipped?) as in states.FORMS,
    # kept apart because this oracle never imports the closed-form modules
    1: (+1.0, True),
    2: (-1.0, True),
    3: (+1.0, False),
    4: (-1.0, False),
}


def _quasi_bell_terms(states, truncation=None):
    """A sequence of S quasi-Bell states (each with index, alpha and beta)
    as stacked product terms (terms_a, terms_b), each of shape
    (S, 2, truncation + 1): state s is terms_a[s]^T terms_b[s], with
    terms_a[s] = [a, c] / norm and terms_b[s] = [b, d], so the 1/norm
    sits on mode A.  One state is a stack of one.

    a = |alpha> and b the first mode-B vector; the second term is
    sign (P a) (x) (P b) with P the parity (-1)^n.  Every vector of
    the stack is a row of one table: the _coherent_rows of the distinct
    magnitudes (one exp over all of them), their parity images
    (_negate_odd) and the negatives of both, so a negative amplitude, P
    and the sign are each a choice of row, bitwise the per-vector
    coherent_vector and its parity image.
    An entry (n, m) of a state is 2 a_n b_m when sign (-1)^(n+m) = +1
    and exactly 0 otherwise, so its squared norm is
    4 (E_a E_b + O_a O_b) for sign +1 and 4 (E_a O_b + O_a E_b) for
    sign -1, with E and O the even-n and odd-n sums of |amplitude|^2,
    one pair per magnitude: a sum of positive terms, which cannot
    cancel.  It is checked against 2 (1 +/- ka kb) as an internal
    consistency guard.  Without a truncation, the adequacy rule of the
    largest amplitude in the stack sets it.
    """
    specs = []
    for state in states:
        sign, flip_b = _SIGN_PATTERNS[state.index]
        alpha, beta = float(state.alpha), float(state.beta)
        specs.append((sign, alpha, beta, -beta if flip_b else beta))
    amplitudes = [amp for _, alpha, _, amp_b in specs for amp in (alpha, amp_b)]
    if truncation is None:
        truncation = adequate_truncation(max(map(abs, amplitudes)))
    _check_truncation(amplitudes, truncation)
    # one row per distinct magnitude, in order of first use
    slots = {}
    for amp in amplitudes:
        slots.setdefault(abs(amp), len(slots))
    size = len(slots)
    # blocks of the table: the rows, P rows, -rows, -P rows; the rows
    # live only in the table, so no second copy is held
    table = np.empty((4, size, truncation + 1), dtype=complex)
    table[0] = table[1] = _coherent_rows(list(slots), truncation)
    _negate_odd(table[1])
    np.negative(table[:2], out=table[2:])
    even_odd = [
        (np.vdot(row[0::2], row[0::2]).real, np.vdot(row[1::2], row[1::2]).real) for row in table[0]
    ]
    picks_a, picks_b, norms = [], [], []
    for sign, alpha, beta, amp_b in specs:
        slot_a, slot_b = slots[abs(alpha)], slots[abs(amp_b)]
        (even_a, odd_a), (even_b, odd_b) = even_odd[slot_a], even_odd[slot_b]
        if sign > 0:
            norm_sq = 4.0 * (even_a * even_b + odd_a * odd_b)
        else:
            norm_sq = 4.0 * (even_a * odd_b + odd_a * even_b)
        expected = 2.0 * (1.0 + sign * math.exp(-2.0 * alpha**2) * math.exp(-2.0 * beta**2))
        if abs(norm_sq - expected) > 1e-10:
            raise TruncationError(
                f"unnormalized norm^2 {norm_sq} differs from {expected}; "
                "truncation too small for these amplitudes"
            )
        # a = P^[alpha < 0] |alpha|, c = sign P^[alpha >= 0] |alpha|, and
        # b, d likewise from amp_b without the sign
        neg_a, neg_b = alpha < 0.0, amp_b < 0.0
        block_c = (not neg_a) + 2 * (sign < 0.0)
        picks_a.append((neg_a * size + slot_a, block_c * size + slot_a))
        picks_b.append((neg_b * size + slot_b, (not neg_b) * size + slot_b))
        norms.append(math.sqrt(norm_sq))
    table = table.reshape(4 * size, -1)
    terms_a = table[picks_a]
    terms_a /= np.array(norms)[:, None, None]
    return terms_a, table[picks_b]


def quasi_bell_fock(state, truncation=None):
    """Two-mode quasi-Bell state a (x) b + c (x) d from the normalized
    terms of _quasi_bell_terms, a stack of one; the entries where they
    cancel are 0."""
    terms_a, terms_b = _quasi_bell_terms((state,), truncation)
    (a, c), (b, d) = terms_a[0], terms_b[0]
    return np.outer(a, b) + np.outer(c, d)


_I_POWERS = np.array([1.0, 1j, -1.0, -1j])  # i^j at j mod 4, exactly


# keyed on the sector alone, theta-free; a default verify battery uses
# 70, the full sectors 0..69 of the vacuum columns its tables read
@lru_cache(maxsize=128)
def _sector_eigensystem(sector, low, high):
    """Eigensystem (w, V) of the Hermitian i K on the photon-number sector
    n_first = low..high of total photon number ``sector``, with K the
    coupling generator a b+ - a+ b there.  The splitter of angle theta
    has the generator theta K, so every theta shares V and the block is
    V diag(e^{-i theta w}) V+.

    i K is tridiagonal with i c_j above the diagonal and -i c_j below, so
    i K = D S D+ with D = diag(i^j) and S the real symmetric tridiagonal
    matrix with -c_j on both off-diagonals: w and V_S come from a real
    eigensolve, and V = D V_S.  Read-only because every splitter through
    that sector shares it."""
    n_first = np.arange(low + 1, high + 1)  # coupling between n_first-1 and n_first
    coupling = np.sqrt(n_first * (sector - n_first + 1.0))
    w, v_s = np.linalg.eigh(-np.diag(coupling, k=1) - np.diag(coupling, k=-1))
    v = _I_POWERS[np.arange(high - low + 1) % 4, None] * v_s
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _sector_run(square, sector, low, high):
    """Writable view of the entries (k, sector - k), k = low..high, of
    the C-ordered size x size array ``square``: entry (k, sector - k)
    sits at flat index k (size - 1) + sector, so a sector is one strided
    run; a one-level array's single entry takes any positive step."""
    step = square.shape[0] - 1
    return square.reshape(-1)[low * step + sector : high * step + sector + 1 : step or 1]


# keyed on (angle, size); a default verify battery makes 37 tables of at
# most 70 x 70 complex entries (78 KB) each, for 9 angles at 9 sizes
@lru_cache(maxsize=64)
def _vacuum_columns(theta, size):
    """T[k, m] = <k, m| U |k+m, 0>, the splitter of angle theta on the
    vacuum-input states of a ``size``-level first mode: sector n's
    column laid out on the anti-diagonal k + m = n.  |n>|0> is the last
    state of the full sector n (low 0, high n), so that column is the
    last column of its block V diag(e^{-i theta w}) V+, computed as
    V (e^{-i theta w} conj(V[-1])).  Entries with k + m >= size are 0.
    Read-only because it is cached."""
    table = np.zeros((size, size), dtype=complex)
    for sector in range(size):
        w, v = _sector_eigensystem(sector, 0, sector)
        _sector_run(table, sector, 0, sector)[...] = v @ (np.exp(-1j * theta * w) * v[-1].conj())
    table.flags.writeable = False
    return table


def _splitter_angle(eta):
    """The mixing angle theta = atan2(sqrt(1 - eta), sqrt(eta)) of the
    transmissivity-eta beam splitter, after checking eta lies in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    return math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))


def beam_splitter(vec, eta):
    """Transmissivity-eta beam splitter acting on a two-mode vector.

    Maps |g>|0> to |sqrt(eta) g>|sqrt(1-eta) g> for coherent g.  The
    generator conserves total photon number, so the exponential is
    evaluated sector by sector on one C-ordered copy of the input: each
    of the 2 size - 1 sectors is a strided run of it (_sector_run),
    multiplied in place by its block V diag(e^{-i theta w}) V+, formed
    per call from the sector's cached eigensystem.  Every sector is
    moved; at eta = 1 each block is V V+, the identity to rounding only.
    Probability accumulating on the truncation boundary above 1e-9
    raises a TruncationError.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
        raise ValueError("expected a two-mode vector with equal truncations")
    theta = _splitter_angle(eta)
    size = vec.shape[0]
    out = np.array(vec, order="C")
    for sector in range(2 * size - 1):
        low, high = max(0, sector - size + 1), min(sector, size - 1)
        run = _sector_run(out, sector, low, high)
        w, v = _sector_eigensystem(sector, low, high)
        run[...] = ((v * np.exp(-1j * theta * w)) @ v.conj().T) @ run
    _check_tail(_boundary_mass(out), "beam splitter output")
    return out


def _splitter_on_vacuum(vecs, etas):
    """beam_splitter(np.outer(vecs[v], |0>), etas[e]) at out[e, v] for
    every row of the (V, size) stack ``vecs`` and every transmissivity
    of ``etas``, shape (E, V, size, size), without the sector loop.

    |n>|0> lies in sector n alone, so out[e, v, k, m] is T_e[k, m]
    vecs[v, k + m] with T_e the cached vacuum-column table of etas[e]
    (_vacuum_columns) and each row zero-padded to 2 size - 1 entries:
    one Hankel view of all the rows, one stack of the tables and one
    product, each entry bitwise that of a stack of one.  One vector at
    one eta is a stack of one.  Like beam_splitter it moves every
    sector and keeps its boundary rule, naming the first offending
    output in (eta, vector) order.
    """
    vecs = np.asarray(vecs, dtype=complex)
    if vecs.ndim != 2 or vecs.size == 0:
        raise ValueError("expected a nonempty stack of one-mode vectors, shape (V, N)")
    thetas = [_splitter_angle(eta) for eta in etas]
    count, size = vecs.shape
    padded = np.zeros((count, 2 * size - 1), dtype=complex)
    padded[:, :size] = vecs
    # a Hankel view of each row of the fresh buffer: entry (v, k, m) is
    # padded[v, k + m]
    step = padded.itemsize
    hankel = np.ndarray((count, size, size), complex, padded, 0, (padded.strides[0], step, step))
    tables = np.stack([_vacuum_columns(theta, size) for theta in thetas])
    out = tables[:, None] * hankel
    _check_tail(_boundary_mass(out), "beam splitter output")
    return out


def _boundary_mass(vec):
    """Probability each two-mode state of ``vec`` (its last two axes)
    holds on its last row and column (the corner counted twice)."""
    last_row, last_col = vec[..., -1, :], vec[..., :, -1]
    return np.sum(np.abs(last_row) ** 2, axis=-1) + np.sum(np.abs(last_col) ** 2, axis=-1)


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
    # conj(G) and conj(M), each with one temporary the size of the terms:
    # the real part of sum_st G_st M_st is that of its conjugate
    gram = np.conjugate(traced) @ np.swapaxes(traced, -1, -2)
    weighted = np.conjugate(kept)
    weighted *= np.arange(kept.shape[-1])
    return np.sum(gram * (weighted @ np.swapaxes(kept, -1, -2)), axis=(-2, -1)).real


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
    """operator_trace_charfunc of S two-mode states, state s the product
    terms terms_a[s]^T terms_b[s] (see the module conventions), stacks of
    shape (S, T, N), each at its own points (zeta_a[s, p], zeta_b[s, p]),
    complex arrays of shape (S, P), in one stacked call giving an (S, P)
    array; one state is a stack of one.

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
    if terms_a.ndim != 3 or terms_a.shape[:-1] != terms_b.shape[:-1]:
        raise ValueError("expected two equally long stacks of mode vectors, shape (S, T, N)")
    za, zb = np.asarray(zeta_a, dtype=complex), np.asarray(zeta_b, dtype=complex)
    if za.ndim != 2 or za.shape != zb.shape or len(za) != len(terms_a):
        raise ValueError("expected one row of points per state, shape (S, P)")

    def eigenbasis(terms, zeta):
        # x = V+ R* t for every state, point and term, indexed (state,
        # point, term, level) as one matrix product over all of their
        # rows, weighted to x E, with the Gram (x E) x+; x is conjugated
        # in place, so two such arrays are live at a time
        w, v = _displacement_eigensystem(terms.shape[-1])
        # R* = diag(e^{-i n phi}) by recurrence: the cumulative product of
        # the unit phase zeta* / |zeta|, which is 1 at zeta = 0
        radius = np.abs(zeta)
        unit = np.divide(np.conjugate(zeta), radius, out=np.ones_like(zeta), where=radius > 0.0)
        phases = np.empty(zeta.shape + terms.shape[-1:], dtype=complex)
        phases[..., 0] = 1.0
        phases[..., 1:] = unit[..., None]
        np.cumprod(phases, axis=-1, out=phases)
        rows = phases[:, :, None, :] * terms[:, None]
        x = (rows.reshape(-1, rows.shape[-1]) @ v.conj()).reshape(rows.shape)
        del rows
        xe = x * np.exp(-1j * radius[..., None] * w)[:, :, None, :]
        gram = xe @ np.swapaxes(np.conjugate(x, out=x), -1, -2)
        return xe, gram, v

    xe, gram_a, va = eigenbasis(terms_a, za)
    ye, gram_b, vb = eigenbasis(terms_b, zb)
    last_row = np.einsum("spt,sptj->spj", xe @ va[-1], ye) @ vb.T
    last_col = np.einsum("spt,spti->spi", ye @ vb[-1], xe) @ va.T
    _check_tail(
        np.sum(np.abs(last_row) ** 2, axis=-1) + np.sum(np.abs(last_col) ** 2, axis=-1),
        "displaced state",
    )
    return np.sum(gram_a * gram_b, axis=(-2, -1))


def operator_trace_charfunc(vec, point):
    """Characteristic function of a two-mode pure state by explicit
    operator trace:

        Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
            * exp(-(|za|^2 + |zb|^2)/2)

    evaluated through the truncated displacement of each mode (see
    _char_traces, to which the dense state is a stack of one with the
    terms (identity, vec)), with the same boundary rule as beam_splitter.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2:
        raise ValueError("expected a two-mode vector")
    zeta = [[complex(point.zeta_a)]], [[complex(point.zeta_b)]]
    return complex(_char_traces(np.eye(vec.shape[0])[None], vec[None], *zeta)[0, 0])


def mean_photon(rho):
    """Tr(rho n) for a single-mode density matrix."""
    rho = np.asarray(rho)
    return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))
