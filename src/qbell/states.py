"""Quasi-Bell states over a pair of nonorthogonal basis states.

Two normalized states |u>, |v> with real inner product <u|v> = kappa,
0 <= kappa < 1, generate four entangled two-party states

    |B1> = h1 (|u>|v> + |v>|u>)        h1 = h3 = 1/sqrt(2 (1 + kappa^2))
    |B2> = h2 (|u>|v> - |v>|u>)        h2 = h4 = 1/sqrt(2 (1 - kappa^2))
    |B3> = h3 (|u>|u> + |v>|v>)
    |B4> = h4 (|u>|u> - |v>|v>)

At kappa = 0 these are the standard Bell states.  Everything here is a
function of kappa alone; the physical dimension of the carrier space
never enters.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import binary_entropy

INDICES = (1, 2, 3, 4)

# (sign, swapped) per index: |B_i> = h_i (|u>|w> + sign |v>|w'>) with
# (w, w') = (v, u) when swapped and (u, v) otherwise
FORMS = {
    1: (+1.0, True),
    2: (-1.0, True),
    3: (+1.0, False),
    4: (-1.0, False),
}

__all__ = [
    "INDICES",
    "FORMS",
    "QuasiBell",
    "check_kappa",
    "normalization_constant",
    "gram_matrix",
    "gram_off_diagonal",
    "reduced_spectrum",
    "entropy_of_entanglement",
    "embed_qubit",
]


def check_kappa(kappa):
    """Validate a basis-state overlap. Must be real with 0 <= kappa < 1.

    kappa = 1 (identical basis states) makes the antisymmetric-state
    normalizations diverge and is rejected outright; complex values are
    rejected rather than silently reduced to a magnitude.
    """
    if isinstance(kappa, complex) or np.iscomplexobj(kappa):
        raise ValueError("overlap must be real, got a complex value")
    kappa = float(kappa)
    if not np.isfinite(kappa):
        raise ValueError("overlap must be finite")
    if kappa < 0.0:
        raise ValueError(f"overlap must be >= 0, got {kappa}")
    if kappa >= 1.0:
        raise ValueError(f"overlap must be < 1, got {kappa}")
    return kappa


def check_index(index):
    if index not in INDICES:
        raise ValueError(f"state index must be one of {INDICES}, got {index!r}")
    return int(index)


@dataclass(frozen=True)
class QuasiBell:
    """One of the four quasi-Bell states, specified by index and overlap."""

    index: int
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "index", check_index(self.index))
        object.__setattr__(self, "kappa", check_kappa(self.kappa))


def normalization_constant(index, kappa):
    """Normalization h_i of the quasi-Bell state with the given overlap."""
    sign, _ = FORMS[check_index(index)]
    kappa = check_kappa(kappa)
    return 1.0 / np.sqrt(2.0 * (1.0 + sign * kappa**2))


def gram_off_diagonal(kappa):
    """Mutual overlap D = 2 kappa / (1 + kappa^2) of states 1 and 3."""
    kappa = check_kappa(kappa)
    return 2.0 * kappa / (1.0 + kappa**2)


def gram_matrix(kappa):
    """4x4 matrix of pairwise overlaps |<B_i|B_j>|.

    All four states are mutually orthogonal except the pair (1, 3),
    whose overlap is D = 2 kappa / (1 + kappa^2).
    """
    d = gram_off_diagonal(kappa)
    g = np.eye(4)
    g[0, 2] = g[2, 0] = d
    return g


def reduced_spectrum(state):
    """Eigenvalues of either reduced density operator, sorted descending.

    Indices 2 and 4 give {1/2, 1/2} for every overlap; indices 1 and 3
    give {(1 +/- kappa)^2 / (2 (1 + kappa^2))}.  The larger eigenvalue is
    taken as 1 minus the smaller, so the pair sums to 1 and never leaves
    [0, 1] by rounding.
    """
    kappa = state.kappa
    if state.index in (2, 4):
        return np.array([0.5, 0.5])
    small = (1.0 - kappa) ** 2 / (2.0 * (1.0 + kappa**2))
    return np.array([1.0 - small, small])


def entropy_of_entanglement(state):
    """Entropy of entanglement in ebits.

    Exactly 1 for indices 2 and 4 regardless of overlap; indices 1 and 3
    fall below 1 as soon as kappa > 0.
    """
    lam = reduced_spectrum(state)
    return binary_entropy(lam[0])


def _even_odd_terms(index, mode_a, mode_b):
    """The state's two nonzero coefficients, as ((position, c), (position,
    c)) over |++>, |+->, |-+>, |--> with the first c >= 0.  mode_a and
    mode_b are each mode's (<+|u>, <-|u>) in its basis |+/-> ~ |u> +/- |v>,
    where |v> has components (<+|u>, -<-|u>).  Sign +1 sits on |++>, |-->,
    sign -1 on |+->, |-+>; the swapped forms carry a relative minus sign.
    Both coefficients are products, so nothing cancels as kappa -> 1.
    """
    sign, swapped = FORMS[index]
    (plus_a, minus_a), (plus_b, minus_b) = mode_a, mode_b
    if sign > 0:
        (j, x), (k, y) = (0, plus_a * plus_b), (3, minus_a * minus_b)
    else:
        (j, x), (k, y) = (1, plus_a * minus_b), (2, minus_a * plus_b)
    norm = math.hypot(x, y)
    if norm < sys.float_info.min:
        raise ValueError(f"state {index} is undefined: its product terms coincide")
    return (j, x / norm), (k, (-y if swapped else y) / norm)


def embed_qubit(state):
    """Coefficients of the state in the orthonormal product basis.

    The basis qubit states are |+> = (|u> + |v>)/sqrt(2 + 2 kappa) and
    |-> = (|u> - |v>)/sqrt(2 - 2 kappa); coefficients are returned in the
    order |++>, |+->, |-+>, |-->, the first nonzero one positive.
    """
    kappa = state.kappa
    mode = (math.sqrt((1.0 + kappa) / 2.0), math.sqrt((1.0 - kappa) / 2.0))
    c = np.zeros(4, dtype=complex)
    for k, ck in _even_odd_terms(state.index, mode, mode):
        c[k] = ck
    return c
