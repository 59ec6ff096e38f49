"""Entanglement functionals for pure and mixed two-qubit states.

Covers the binary entropy, pure-state concurrence, the exact two-qubit
entanglement of formation (spin-flip construction), the fully entangled
fraction, and the lower bound it implies on the entanglement of formation.
"""

import math

import numpy as np

__all__ = [
    "MaximizerError",
    "binary_entropy",
    "concurrence_pure",
    "eof_wootters",
    "eof_lower_bound",
    "fully_entangled_fraction",
    "validate_density",
]

# antidiagonal two-qubit spin flip (sigma_y x sigma_y)
_SPIN_FLIP = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

# orthonormal basis of maximally entangled states whose real linear
# combinations are exactly the maximally entangled states
_MAGIC = np.array(
    [
        [1, 0, 0, 1],
        [-1j, 0, 0, 1j],
        [0, 1, -1, 0],
        [0, -1j, -1j, 0],
    ],
    dtype=complex,
).T / np.sqrt(2.0)

_HERM_TOL = 1e-10
_EIG_FLOOR = -1e-12


class MaximizerError(RuntimeError):
    """Raised when a numerical maximization disagrees with the closed form
    it checks.

    Carries the value the numerical search reached in ``best_value``.
    """

    def __init__(self, message, best_value):
        super().__init__(message)
        self.best_value = best_value


def binary_entropy(x):
    """Base-2 binary entropy H(x), with H(0) = H(1) = 0 by continuity,
    taken at s = min(x, 1 - x) with log2(1 - s) = log1p(-s)/ln 2, so it
    keeps full relative accuracy as s -> 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {x}")
    s = min(x, 1.0 - x)
    if s == 0.0:
        return 0.0
    return -(s * math.log2(s) + (1.0 - s) * math.log1p(-s) / math.log(2.0))


def concurrence_pure(coeffs):
    """Concurrence |<psi|psi~>| of a normalized two-qubit pure state.

    |psi~> is the spin-flipped conjugate state; the entropy of
    entanglement of the same state is H((1 + sqrt(1 - C^2))/2).
    """
    c = np.asarray(coeffs, dtype=complex).reshape(4)
    norm = np.linalg.norm(c)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, |psi| = {norm}")
    return min(1.0, float(abs(np.conj(c) @ _SPIN_FLIP @ np.conj(c))))


def validate_density(rho):
    """Check a 4x4 density matrix and return it with tiny negative
    eigenvalues clipped to zero."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _HERM_TOL:
        raise ValueError(f"density matrix trace is {np.trace(rho).real}, not 1")
    w, v = np.linalg.eigh(rho)
    if w.min() < _EIG_FLOOR - _HERM_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {w.min()}")
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def eof_wootters(rho):
    """Exact entanglement of formation of a two-qubit density matrix, in
    ebits, via the spin-flip concurrence construction.

    The spin-flip spectrum {sqrt of eig(rho rho~)} is evaluated as the
    singular values of A^T S A with A = sqrt(rho), which is the same set
    but without the square-root noise amplification of the direct
    non-Hermitian eigensolve.
    """
    rho = validate_density(rho)
    w, v = np.linalg.eigh(rho)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(root.T @ _SPIN_FLIP @ root, compute_uv=False)
    concurrence = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - concurrence**2))))


def eof_lower_bound(fraction):
    """Lower bound on the entanglement of formation implied by an
    entangled fraction f: H(1/2 + sqrt(f (1-f))) for f >= 1/2, else 0."""
    f = float(fraction)
    if f < 0.0 or f > 1.0:
        raise ValueError(f"entangled fraction must lie in [0, 1], got {f}")
    if f < 0.5:
        return 0.0
    return binary_entropy(0.5 + np.sqrt(f * (1.0 - f)))


def fully_entangled_fraction(rho):
    """Maximum overlap of a two-qubit density matrix with any maximally
    entangled state.

    The maximally entangled states are exactly the real unit
    combinations of the magic basis, so the maximum is the largest
    eigenvalue of the real part of the density matrix in that basis.
    """
    rho = validate_density(rho)
    m = _MAGIC.conj().T @ rho @ _MAGIC
    # a fraction by construction; cap the rounding excursion above 1
    return min(1.0, float(np.linalg.eigvalsh(m.real)[-1]))
