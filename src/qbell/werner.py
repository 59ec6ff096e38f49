"""Werner-type mixtures of the four quasi-Bell states.

A quasi-Werner state puts weight F on the antisymmetric state |B2> and
(1-F)/3 on each of the other three.  At kappa = 0 this is the standard
Werner state; for kappa > 0 the mutual overlap of states 1 and 3 shifts
two of the eigenvalues while the entangled fraction stays F.
"""

from dataclasses import dataclass

import numpy as np

from .states import QuasiBell, check_kappa, embed_qubit, gram_off_diagonal
from .measures import eof_lower_bound

__all__ = [
    "QuasiWerner",
    "build_quasi_werner",
    "quasi_werner_gram",
    "quasi_werner_spectrum",
    "quasi_werner_fraction",
    "standard_werner_eof",
]


@dataclass(frozen=True)
class QuasiWerner:
    """Mixture weights: F on state 2, (1-F)/3 on each of 1, 3, 4."""

    fidelity: float
    kappa: float

    def __post_init__(self):
        f = float(self.fidelity)
        if f < 0.0 or f > 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {f}")
        object.__setattr__(self, "fidelity", f)
        object.__setattr__(self, "kappa", check_kappa(self.kappa))


def build_quasi_werner(spec):
    """4x4 density matrix of the mixture in the orthonormal |+->
    product-basis embedding."""
    rho = np.zeros((4, 4), dtype=complex)
    for index in (1, 2, 3, 4):
        w = spec.fidelity if index == 2 else (1.0 - spec.fidelity) / 3.0
        c = embed_qubit(QuasiBell(index, spec.kappa))
        rho += w * np.outer(c, c.conj())
    return rho


def quasi_werner_gram(spec):
    """Weighted Gram matrix of the mixture: diagonal of mixture weights
    with the (1,3) overlap entry (1-F) D / 3."""
    w = (1.0 - spec.fidelity) / 3.0
    g = np.diag([w, spec.fidelity, w, w])
    g[0, 2] = g[2, 0] = w * gram_off_diagonal(spec.kappa)
    return g


def quasi_werner_spectrum(spec):
    """Closed-form eigenvalues {F, (1-F)/3, (1 +/- D)(1-F)/3}, sorted
    descending, with 1 - D = (1 - kappa)^2 / (1 + kappa^2), which does not
    cancel as kappa -> 1."""
    w, kappa = (1.0 - spec.fidelity) / 3.0, spec.kappa
    d = gram_off_diagonal(kappa)
    lam = np.array([spec.fidelity, w, w * (1.0 + d), w * (1.0 - kappa) ** 2 / (1.0 + kappa**2)])
    return np.sort(lam)[::-1]


def quasi_werner_fraction(spec):
    """Overlap of the mixture with |B2>, which equals the weight F:
    |B2> is orthogonal to the other three mixture components."""
    return spec.fidelity


def standard_werner_eof(fidelity):
    """Entanglement of formation of the standard (kappa = 0) Werner
    state, H(1/2 + sqrt(F (1-F))), which is eof_lower_bound(F).

    Only valid for F >= 1/2; below that the state is separable and the
    formula no longer applies, so the domain is enforced.
    """
    f = float(fidelity)
    if f < 0.5 or f > 1.0:
        raise ValueError(f"formula holds for F in [1/2, 1], got {f}")
    return eof_lower_bound(f)
