"""Quasi-Bell states over a pair of nonorthogonal basis states.

Two normalized states |u>, |v> with real inner product <u|v> = kappa,
0 <= kappa < 1, generate four entangled two-party states

    |B1> = h1 (|u>|v> + |v>|u>)        h1 = h3 = 1/sqrt(2 (1 + kappa^2))
    |B2> = h2 (|u>|v> - |v>|u>)        h2 = h4 = 1/sqrt(2 (1 - kappa^2))
    |B3> = h3 (|u>|u> + |v>|v>)
    |B4> = h4 (|u>|u> - |v>|v>)

At kappa = 0 these are the standard Bell states.  Every closed form
reads a state's two coefficients in each mode's even/odd basis (see
_EvenOdd); the physical dimension of the carrier space never enters.
"""

import math
import sys
from dataclasses import dataclass, field

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


def _even_odd_terms(index, mode_a, mode_b):
    """Half the two nonzero coefficients of |u>|w> + sign |v>|w'>, up to
    a global sign, as ((position, x), (position, y)) over |++>, |+->,
    |-+>, |--> with x >= 0.  mode_a and mode_b are each mode's (<+|u>,
    <-|u>) in its basis |+/-> ~ |u> +/- |v>, where |v> has components
    (<+|u>, -<-|u>).  Sign +1 sits on |++>, |-->, sign -1 on |+->, |-+>;
    the swapped forms carry a relative minus sign.  Both are products, so
    nothing cancels as kappa -> 1.
    """
    sign, swapped = FORMS[index]
    (plus_a, minus_a), (plus_b, minus_b) = mode_a, mode_b
    if sign > 0:
        (j, x), (k, y) = (0, plus_a * plus_b), (3, minus_a * minus_b)
    else:
        (j, x), (k, y) = (1, plus_a * minus_b), (2, minus_a * plus_b)
    return (j, x), (k, -y if swapped else y)


def _coefficients(terms):
    """The vector over |++>, |+->, |-+>, |--> that holds ``terms``."""
    c = np.zeros(4, dtype=complex)
    for k, ck in terms:
        c[k] = ck
    return c


@dataclass(frozen=True)
class _EvenOdd:
    """A quasi-Bell state held in each mode's even/odd basis: ``terms``
    are _even_odd_terms over their norm |(x, y)|, ``normalization`` is
    h = 1/(2 |(x, y)|); subclasses set both with _hold(mode_a, mode_b).
    """

    terms: tuple = field(init=False, repr=False, compare=False)
    normalization: float = field(init=False, repr=False, compare=False)

    def _hold(self, mode_a, mode_b):
        object.__setattr__(self, "index", check_index(self.index))
        (j, x), (k, y) = _even_odd_terms(self.index, mode_a, mode_b)
        norm = math.hypot(x, y)
        if norm < sys.float_info.min:
            raise ValueError(f"state {self.index} is undefined: its product terms coincide")
        object.__setattr__(self, "terms", ((j, x / norm), (k, y / norm)))
        object.__setattr__(self, "normalization", 0.5 / norm)


@dataclass(frozen=True)
class QuasiBell(_EvenOdd):
    """One of the four quasi-Bell states, specified by index and overlap;
    each mode's components are (sqrt((1 + kappa)/2), sqrt((1 - kappa)/2))."""

    index: int
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", kappa := check_kappa(self.kappa))
        mode = (math.sqrt((1.0 + kappa) / 2.0), math.sqrt((1.0 - kappa) / 2.0))
        self._hold(mode, mode)


def normalization_constant(index, kappa):
    """Normalization h_i of the quasi-Bell state with the given overlap."""
    return QuasiBell(index, kappa).normalization


def gram_off_diagonal(kappa):
    """Mutual overlap D = 2 kappa / (1 + kappa^2) of states 1 and 3, also
    at kappa = 1, where they coincide and exp(-2 alpha^2) rounds below
    alpha ~ 1e-8."""
    kappa = 1.0 if kappa == 1.0 else check_kappa(kappa)
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
    """Eigenvalues of either reduced density operator, sorted descending:
    the squared even/odd coefficients, {1/2, 1/2} for indices 2 and 4 and
    {(1 +/- kappa)^2 / (2 (1 + kappa^2))} for 1 and 3 on one overlap.  The
    smaller is r^2/(1 + r^2), r the ratio of the two coefficients, so equal
    ones give exactly 1/2; the larger is 1 minus the smaller.
    """
    low, high = sorted(abs(c) for _, c in state.terms)
    ratio = low / high
    small = ratio * ratio / (1.0 + ratio * ratio)
    return np.array([1.0 - small, small])


def entropy_of_entanglement(state):
    """Entropy of entanglement in ebits, from the smaller eigenvalue.

    Exactly 1 for indices 2 and 4 regardless of overlap; indices 1 and 3
    fall below 1 as soon as kappa > 0.
    """
    return binary_entropy(reduced_spectrum(state)[1])


def embed_qubit(state):
    """Coefficients of the state in the orthonormal product basis.

    The basis qubit states are |+> = (|u> + |v>)/sqrt(2 + 2 kappa) and
    |-> = (|u> - |v>)/sqrt(2 - 2 kappa); coefficients are returned in the
    order |++>, |+->, |-+>, |-->, the first nonzero one positive.
    """
    return _coefficients(state.terms)
