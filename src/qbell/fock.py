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


def _check_truncation(alpha, truncation, allow_small):
    needed = adequate_truncation(alpha)
    if truncation < needed and not allow_small:
        raise TruncationError(
            f"truncation {truncation} is below the adequacy rule "
            f"({needed} for amplitude {alpha}); raise it or override explicitly"
        )


def coherent_vector(alpha, truncation=None, allow_small=False):
    """Normalized coherent state |alpha> (alpha real) in the number
    basis: amplitudes proportional to alpha^n / sqrt(n!)."""
    alpha = float(alpha)
    if truncation is None:
        truncation = adequate_truncation(alpha)
    _check_truncation(alpha, truncation, allow_small)
    n = np.arange(truncation + 1)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, truncation + 1))]))
    if alpha != 0.0:
        amps = np.sign(alpha) ** n * np.exp(
            n * np.log(abs(alpha)) - 0.5 * log_fact - 0.5 * alpha**2
        )
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


def beam_splitter(vec, eta, check_tail=True):
    """Transmissivity-eta beam splitter acting on a two-mode vector.

    Maps |g>|0> to |sqrt(eta) g>|sqrt(1-eta) g> for coherent g.  The
    generator conserves total photon number, so the exponential is
    evaluated sector by sector; sectors carrying no amplitude are passed
    through untouched.  With ``check_tail``, probability accumulating on
    the truncation boundary above 1e-9 raises a TruncationError.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
        raise ValueError("expected a two-mode vector with equal truncations")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    size = vec.shape[0]
    theta = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
    out = np.array(vec)
    for sector in range(2 * size - 1):
        low = max(0, sector - size + 1)
        high = min(sector, size - 1)
        idx_first = np.arange(low, high + 1)
        idx_second = sector - idx_first
        component = vec[idx_first, idx_second]
        if np.max(np.abs(component)) <= 1e-18:
            continue
        block = _splitter_block(theta, sector, low, high)
        out[idx_first, idx_second] = block @ component
    if check_tail:
        _check_tail(out, "beam splitter output")
    return out


def _check_tail(vec, what):
    """Raise a TruncationError if the two-mode ``vec`` holds more than
    1e-9 probability on the truncation boundary."""
    boundary = np.sum(np.abs(vec[-1, :]) ** 2) + np.sum(np.abs(vec[:, -1]) ** 2)
    if boundary > 1e-9:
        raise TruncationError(
            f"{what} holds {boundary:.3e} probability on the "
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


def _displacement(zeta, size):
    """Truncated displacement operator exp(zeta a+ - zeta* a).

    Equals exp(zeta a+) exp(-zeta* a) exp(-|zeta|^2 / 2); the unitary
    form keeps intermediate entries bounded where the triangular factors
    would overflow the working precision at large truncations.

    With zeta = r e^{i phi} and R = diag(e^{i n phi}), the generator is
    R r (a+ - a) R+, exactly so on the truncated space as well, so
    exp(...) = R V diag(e^{-i r w}) V+ R+ from the one cached
    eigensystem i (a+ - a) = V diag(w) V+ per size.
    """
    w, v = _displacement_eigensystem(size)
    r, phi = abs(zeta), np.angle(zeta)
    rotated = np.exp(1j * phi * np.arange(size))[:, None] * v
    return (rotated * np.exp(-1j * r * w)) @ rotated.conj().T


def operator_trace_charfunc(vec, point):
    """Characteristic function of a two-mode pure state by explicit
    operator trace:

        Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
            * exp(-(|za|^2 + |zb|^2)/2)

    evaluated through the truncated displacement matrices of each mode,
    with the same boundary rule as beam_splitter.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 2:
        raise ValueError("expected a two-mode vector")
    za = complex(point.zeta_a)
    zb = complex(point.zeta_b)
    moved = _displacement(za, vec.shape[0]) @ vec @ _displacement(zb, vec.shape[1]).T
    _check_tail(moved, "displaced state")
    return complex(np.vdot(vec, moved))


def mean_photon(rho):
    """Tr(rho n) for a single-mode density matrix."""
    rho = np.asarray(rho)
    return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))
