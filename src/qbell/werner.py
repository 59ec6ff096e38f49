"""Werner-type mixtures of the four quasi-Bell states.

A quasi-Werner state puts weight F on the antisymmetric state |B2> and
(1-F)/3 on each of the other three.  At kappa = 0 this is the standard
Werner state; for kappa > 0 the mutual overlap of states 1 and 3 shifts
two of the eigenvalues while the entangled fraction stays F.
"""

from dataclasses import dataclass

import numpy as np

from .states import INDICES, QuasiBell, _mixture, check_kappa, embed_qubit, gram_off_diagonal

__all__ = [
    "QuasiWerner",
    "build_quasi_werner",
    "quasi_werner_spectrum",
]


@dataclass(frozen=True)
class QuasiWerner:
    """Mixture weights: F on state 2, (1-F)/3 on each of 1, 3, 4.

    F is also the mixture's overlap with |B2>, its entangled fraction:
    |B2> is orthogonal to the other three mixture components."""

    fidelity: float
    kappa: float

    def __post_init__(self):
        f = float(self.fidelity)
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {f}")
        object.__setattr__(self, "fidelity", f)
        object.__setattr__(self, "kappa", check_kappa(self.kappa))


def build_quasi_werner(spec):
    """4x4 density matrix of the mixture in the orthonormal |+->
    product-basis embedding."""
    rest = (1.0 - spec.fidelity) / 3.0
    return _mixture(
        (spec.fidelity if index == 2 else rest, embed_qubit(QuasiBell(index, spec.kappa)))
        for index in INDICES
    )


def quasi_werner_spectrum(spec):
    """Closed-form eigenvalues {F, (1-F)/3, (1 +/- D)(1-F)/3}, sorted
    descending, with 1 - D = (1 - kappa)^2 / (1 + kappa^2), which does not
    cancel as kappa -> 1."""
    w, kappa = (1.0 - spec.fidelity) / 3.0, spec.kappa
    d = gram_off_diagonal(kappa)
    lam = np.array([spec.fidelity, w, w * (1.0 + d), w * (1.0 - kappa) ** 2 / (1.0 + kappa**2)])
    return np.sort(lam)[::-1]
