"""Photon loss on one arm of the antisymmetric entangled coherent state.

One party keeps mode A of |B2(alpha)>; mode B passes through a
beam-splitter-type loss channel of transmissivity eta, which couples it
to a vacuum environment mode and sends |g> to |sqrt(eta) g> while the
environment picks up |sqrt(1-eta) g>.  Tracing out the environment
leaves a rank-2 mixture of two entangled coherent states with mode
amplitudes (alpha, sqrt(eta) alpha), whose cross terms in the original
pair are damped by the coherence factor L = exp(-2 (1-eta) alpha^2).

The surviving entanglement is measured by the overlap with the family
|B2(beta)>, every member of which is maximally entangled.  The overlap
is maximized exactly at beta = alpha (1 + sqrt(eta)) / 2, halfway
between the original and attenuated amplitudes.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import measures
from .coherent import CoherentQuasiBell, _cat_components, _check_amplitude
from .states import embed_qubit

__all__ = [
    "LossChannel",
    "DecoheredState",
    "FractionCurvePoint",
    "SweepError",
    "apply_loss",
    "fraction_over_family",
    "optimal_beta",
    "search_optimal_beta",
    "biphoton_fraction",
    "figure1_sweep",
    "diagnostic_fef",
]

# the smallest normal float: below it a squared amplitude loses the
# relative precision that expm1(-4 x^2) needs
_TINY = sys.float_info.min


@dataclass(frozen=True)
class LossChannel:
    """Energy transmissivity eta of the loss channel; eta = 1 is lossless."""

    eta: float

    def __post_init__(self):
        eta = float(self.eta)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class DecoheredState:
    """Joint state of the two parties after loss on mode B.

    ``matrix`` is the 4x4 density matrix in the orthonormalized product
    basis built from span{|+alpha>, |-alpha>} on mode A and
    span{|+sqrt(eta) alpha>, |-sqrt(eta) alpha>} on mode B, ordered
    |++>, |+->, |-+>, |-->.
    """

    alpha: float
    eta: float
    coherence: float
    matrix: np.ndarray


def apply_loss(alpha, channel):
    """Propagate |B2(alpha)> through the loss channel and trace out the
    environment.

    The environment ends in |-/+ sqrt(1-eta) alpha>, with even/odd
    components (p_E, m_E), so the result is the mixture

        (p_E h2/h2')^2 |B2'><B2'| + (m_E h2/h1')^2 |B1'><B1'|

    of the states B' = CoherentQuasiBell(., alpha, sqrt(eta) alpha), with
    h' their normalizations and h2 that of |B2(alpha)>.  Every factor is
    a product of components, so every entry stays exact as alpha -> 0.
    At eta = 1 it is the pure |B2(alpha)> projector, at eta = 0 the equal
    mixture of |-+> and |++>.
    """
    alpha = _check_amplitude(alpha)
    if not alpha > 0.0:
        raise ValueError(f"amplitude must be positive, got {alpha}")
    eta = channel.eta
    h2 = CoherentQuasiBell(2, alpha).normalization
    env = _cat_components(math.sqrt(1.0 - eta) * alpha)
    rho = np.zeros((4, 4), dtype=complex)
    for index, component in zip((2, 1), env):
        mixed = CoherentQuasiBell(index, alpha, math.sqrt(eta) * alpha)
        c = embed_qubit(mixed)
        rho += (component * h2 / mixed.normalization) ** 2 * (c[:, None] * c.conj())
    coherence = np.exp(-2.0 * (1.0 - eta) * alpha**2)
    return DecoheredState(alpha, eta, float(coherence), rho)


def fraction_over_family(state, beta):
    """Overlap of the decohered state with |B2(beta)>, beta > 0:

        (1 + L) (k1 k2 - k3 k4)^2 / (2 (1 - ka^2) (1 - k0^2))

    with k0 = exp(-2 beta^2) and k1..k4 the pairwise coherent overlaps
    of +/-beta with +/-alpha and s = sqrt(eta) alpha.  Evaluated as

        (1 + L)/2 exp(-(a-b)^2 - (s-b)^2)
            (c / expm1(-4 a^2)) (c / expm1(-4 b^2)),  c = expm1(-2 (a+s) b)

    through the identity (k1 k2 - k3 k4)^2 = exp(-(a-b)^2 - (s-b)^2) c^2.
    Every factor is bounded, so nothing overflows at large amplitude; the
    expm1 terms stay exact where the literal differences of exponentials
    cancel (alpha -> 0 or beta -> 0), and neither ratio underflows where
    the product of the two denominators, about 16 a^2 b^2, would.  An
    alpha^2 or beta^2 below the smallest normal float, where expm1 of
    its multiple loses its relative precision, and a non-finite result
    raise a ValueError.
    """
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError(f"comparison amplitude beta must be positive, got {beta}")
    alpha, eta = state.alpha, state.eta
    a2 = alpha**2
    if a2 < _TINY:
        raise ValueError(
            f"family overlap is out of range at alpha={alpha}, eta={eta}: "
            "alpha^2 is below the smallest normal float"
        )
    if beta * beta < _TINY:
        raise ValueError(
            f"family overlap is out of range at alpha={alpha}, eta={eta}, "
            f"beta={beta}: beta^2 is below the smallest normal float"
        )
    root = np.sqrt(eta) * alpha
    c = np.expm1(-2.0 * (alpha + root) * beta)
    value = float(
        0.5 * (1.0 + state.coherence)
        * np.exp(-((alpha - beta) ** 2) - (root - beta) ** 2)
        * (c / np.expm1(-4.0 * a2))
        * (c / np.expm1(-4.0 * beta**2))
    )
    if not math.isfinite(value):
        raise ValueError(
            f"family overlap is not finite at alpha={alpha}, eta={eta}, beta={beta}"
        )
    # the overlap is a fraction by construction; cap the rounding excursion
    return min(1.0, value)


def optimal_beta(alpha, channel, verify=True):
    """Best comparison amplitude and the overlap it achieves.

    Returns (beta_star, f_star) with beta_star = c/2, c = alpha (1 +
    sqrt(eta)), the unique maximum over beta > 0.  Proof: f(beta) =
    cosh((1-eta) alpha^2) sinh^2(c beta) / (sinh(2 alpha^2) sinh(2 beta^2)),
    so d log f / d beta = (2/beta) (g(c beta) - g(2 beta^2)) with the
    strictly increasing g(x) = x coth x: its sign is that of c - 2 beta.
    With ``verify`` (the default), a bracketed grid-plus-golden-section
    search over (0, 2 alpha] must achieve the same overlap to 1e-9
    relative, otherwise a MaximizerError carrying the search result is
    raised.  The comparison runs on overlaps rather than positions
    because the peak flattens like exp(-(2/3) c^2 (beta - beta*)^2) with
    c = alpha (1 + sqrt(eta)), so at small amplitude the position is not
    conditioned past the rounding plateau while the value still is.
    """
    state = apply_loss(alpha, channel)
    beta_star = state.alpha * (1.0 + np.sqrt(channel.eta)) / 2.0
    f_star = fraction_over_family(state, beta_star)
    if verify:
        _searched_maximum(state, beta_star, f_star)
    return beta_star, f_star


def _searched_maximum(state, beta_star, f_star):
    """Run search_optimal_beta on ``state`` and return its (beta, f),
    raising a MaximizerError unless its overlap matches the closed-form
    f_star to 1e-9 relative."""
    beta_num, f_num = search_optimal_beta(state)
    # written so that a NaN on either side fails the comparison
    if not abs(f_num - f_star) <= 1e-9 * max(f_star, 1e-300):
        raise measures.MaximizerError(
            f"search maximum f({beta_num}) = {f_num} disagrees with "
            f"closed form f({beta_star}) = {f_star} "
            f"(alpha={state.alpha}, eta={state.eta})",
            f_num,
        )
    return beta_num, f_num


def search_optimal_beta(state):
    """Independent 1-D maximization of the family overlap: 200-point grid
    over (0, 2 alpha], then golden-section refinement of the bracketing
    interval to a 1e-10 width.  The true maximum lies strictly inside the
    bracket because f rises below beta* and falls above it, beta* <= alpha
    (see optimal_beta).  The grid starts no lower than twice the square
    root of the smallest normal float, so every beta^2 it tries is normal."""
    lo, hi = max(1e-6 * state.alpha, 2.0 * math.sqrt(_TINY)), 2.0 * state.alpha
    grid = np.linspace(lo, hi, 200)
    values = [fraction_over_family(state, b) for b in grid]
    k = int(np.argmax(values))
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = fraction_over_family(state, c)
    fd = fraction_over_family(state, d)
    while abs(b - a) > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fraction_over_family(state, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fraction_over_family(state, d)
    beta = 0.5 * (a + b)
    return beta, fraction_over_family(state, beta)


def biphoton_fraction(channel):
    """Entangled fraction of the polarization Bell state after the same
    loss channel: equal to the transmissivity."""
    return channel.eta


@dataclass(frozen=True)
class FractionCurvePoint:
    alpha: float
    eta: float
    fraction: float
    beta_star: float


class SweepError(RuntimeError):
    """One or more sweep points failed; carries the completed points."""

    def __init__(self, failures, points):
        msgs = "; ".join(f"(alpha={a}, eta={e}): {m}" for a, e, m in failures)
        super().__init__(f"{len(failures)} sweep point(s) failed: {msgs}")
        self.failures = failures
        self.points = points


def figure1_sweep(alphas, etas):
    """Optimal overlap across an (alpha, eta) grid.

    Points are ordered by (eta descending, alpha ascending).  Per-point
    maximizer failures, domain errors and arithmetic faults do not abort
    the sweep; they are collected and raised at the end as a SweepError
    holding the completed points.
    """
    points, failures = [], []
    for eta in sorted(set(float(e) for e in etas), reverse=True):
        channel = LossChannel(eta)
        for alpha in sorted(set(float(a) for a in alphas)):
            try:
                beta_star, f_star = optimal_beta(alpha, channel)
                points.append(FractionCurvePoint(alpha, eta, f_star, beta_star))
            except (measures.MaximizerError, ValueError, ArithmeticError) as exc:
                failures.append((alpha, eta, str(exc)))
    if failures:
        raise SweepError(failures, points)
    return points


def diagnostic_fef(state):
    """General two-qubit fully entangled fraction of the 4x4 matrix on
    the state's support.

    Diagnostic only: the family overlap above maximizes over the
    |B2(beta)> family, while this maximizes over every maximally
    entangled state of the embedded two-qubit space.  The two need not
    coincide and neither is asserted to bound the other."""
    return measures.fully_entangled_fraction(state.matrix)
