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
from functools import cached_property

import numpy as np

from . import measures
from .coherent import CoherentQuasiBell, _cat_components, _check_amplitude
from .states import _mixture, embed_qubit

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
# the amplitudes whose squares are 2^-1022 and just below overflow
_ROOT_TINY = math.sqrt(_TINY)
_ROOT_HUGE = math.sqrt(sys.float_info.max)


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
    |++>, |+->, |-+>, |-->.  It is built on first access: the family
    overlap and its maximizer need only alpha, eta and the coherence.

    The environment ends in |-/+ sqrt(1-eta) alpha>, with even/odd
    components (p_E, m_E), so the matrix is the mixture

        (p_E h2/h2')^2 |B2'><B2'| + (m_E h2/h1')^2 |B1'><B1'|

    of the states B' = CoherentQuasiBell(., alpha, sqrt(eta) alpha), with
    h' their normalizations and h2 that of |B2(alpha)>.  Every factor is
    a product of components, so every entry stays exact as alpha -> 0.
    At eta = 1 it is the pure |B2(alpha)> projector, at eta = 0 the equal
    mixture of |-+> and |++>.
    """

    alpha: float
    eta: float
    coherence: float

    @cached_property
    def matrix(self):
        alpha, eta = self.alpha, self.eta
        h2 = CoherentQuasiBell(2, alpha).normalization
        env = _cat_components(math.sqrt(1.0 - eta) * alpha)
        mixed = (CoherentQuasiBell(index, alpha, math.sqrt(eta) * alpha) for index in (2, 1))
        return _mixture(
            ((component * h2 / state.normalization) ** 2, embed_qubit(state))
            for state, component in zip(mixed, env)
        )


def _coherence(alpha, eta):
    """The coherence factor L = exp(-2 (1-eta) alpha^2), elementwise."""
    return np.exp(-2.0 * (1.0 - eta) * np.square(alpha))


def _check_loss_scale(alpha):
    """Raise a ValueError naming alpha where 4 alpha^2 is not finite.
    Below that bound -4 alpha^2, and the exponent -2 (alpha + s) beta of
    the family overlap at any beta <= alpha, are finite; above it they
    overflow.  A Python float product, so no numpy call warns first."""
    if not math.isfinite(4.0 * alpha * alpha):
        raise ValueError(
            f"amplitude {alpha} is out of range for photon loss: 4 alpha^2 is not finite"
        )


def apply_loss(alpha, channel):
    """Propagate |B2(alpha)> through the loss channel and trace out the
    environment (see DecoheredState for the resulting mixture)."""
    alpha = _check_amplitude(alpha)
    if not alpha > 0.0:
        raise ValueError(f"amplitude must be positive, got {alpha}")
    _check_loss_scale(alpha)
    return DecoheredState(alpha, channel.eta, float(_coherence(alpha, channel.eta)))


def _overlap_terms(alpha, eta, coherence):
    """The factors of the family overlap that do not depend on beta:
    alpha, s = sqrt(eta) alpha, -2 (alpha + s), (1 + L)/2 and
    expm1(-4 alpha^2), elementwise.  Every square here and in
    _family_overlap is np.square, an exact product, on floats and arrays
    alike (** would go through libm pow on a numpy scalar)."""
    root = np.sqrt(eta) * alpha
    return (
        alpha,
        root,
        -2.0 * (alpha + root),
        0.5 * (1.0 + coherence),
        np.expm1(-4.0 * np.square(alpha)),
    )


def _family_overlap(terms, beta):
    """The family overlap of fraction_over_family from its _overlap_terms,
    uncapped and without domain checks; the terms and beta broadcast."""
    alpha, root, rate, weight, scale = terms
    c = np.expm1(rate * beta)
    return (
        weight
        * np.exp(-np.square(alpha - beta) - np.square(root - beta))
        * (c / scale)
        * (c / np.expm1(-4.0 * np.square(beta)))
    )


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

    Elementwise in beta (a scalar gives a float); an array's domain error
    names its first offending beta.
    """
    beta = np.asarray(beta, dtype=float)
    bad = beta[~(beta > 0.0)]
    if bad.size:
        raise ValueError(f"comparison amplitude beta must be positive, got {bad[0]}")
    _check_overlap_alpha(state.alpha, state.eta)
    _check_overlap_beta(state.alpha, state.eta, beta)
    value = _family_overlap(_overlap_terms(state.alpha, state.eta, state.coherence), beta)
    _check_finite(state.alpha, state.eta, beta, value)
    # the overlap is a fraction by construction; cap the rounding excursion
    value = np.minimum(1.0, value)
    return float(value) if value.ndim == 0 else value


def _check_overlap_alpha(alpha, eta):
    """The family overlap's domain errors in alpha, raised before any
    numpy call: 4 alpha^2 must be finite and alpha^2 a normal float."""
    _check_loss_scale(alpha)
    if alpha**2 < _TINY:
        raise ValueError(
            f"family overlap is out of range at alpha={alpha}, eta={eta}: "
            "alpha^2 is below the smallest normal float"
        )


def _check_overlap_beta(alpha, eta, beta):
    """The domain error naming the first entry of the array ``beta`` whose
    square is below the smallest normal float."""
    bad = beta[beta * beta < _TINY]
    if bad.size:
        raise ValueError(
            f"family overlap is out of range at alpha={alpha}, eta={eta}, "
            f"beta={bad[0]}: beta^2 is below the smallest normal float"
        )


def _check_finite(alpha, eta, beta, value):
    """The error naming the first entry of ``beta`` whose overlap
    ``value`` is not finite."""
    bad = beta[~np.isfinite(value)]
    if bad.size:
        raise ValueError(
            f"family overlap is not finite at alpha={alpha}, eta={eta}, "
            f"beta={bad[0]}"
        )


def optimal_beta(alpha, channel):
    """Best comparison amplitude and the overlap it achieves.

    Returns (beta_star, f_star), two floats, with beta_star = c/2, c =
    alpha (1 + sqrt(eta)), the unique maximum over beta > 0.  Proof:
    f(beta) = cosh((1-eta) alpha^2) sinh^2(c beta) / (sinh(2 alpha^2)
    sinh(2 beta^2)), so d log f / d beta = (2/beta) (g(c beta) - g(2
    beta^2)) with the strictly increasing g(x) = x coth x: its sign is
    that of c - 2 beta.  The closed form alone, with its domain checks;
    figure1_sweep compares it with the one-row search
    (search_optimal_beta) at each point, and verify's optimal-beta check
    with the peak of the Fock oracle's overlaps around beta*.
    """
    state = apply_loss(alpha, channel)
    _check_overlap_alpha(state.alpha, state.eta)
    # beta* >= alpha/2, so with alpha^2 normal -4 beta*^2 is nonzero and
    # _optimum divides by no zero before beta* is checked
    beta_star, f_star = _optimum(state.alpha, state.eta)
    at = np.asarray(beta_star)
    _check_overlap_beta(state.alpha, state.eta, at)
    _check_finite(state.alpha, state.eta, at, f_star)
    return float(beta_star), float(f_star)


def _optimum(alpha, eta):
    """(beta*, f*) = (alpha (1 + sqrt(eta)) / 2, the family overlap there,
    capped at 1), elementwise over the broadcast (alpha, eta), without
    domain checks: optimal_beta is its checked scalar face."""
    terms = _overlap_terms(alpha, eta, _coherence(alpha, eta))
    beta_star = terms[0] * (1.0 + np.sqrt(eta)) / 2.0
    return beta_star, np.minimum(1.0, _family_overlap(terms, beta_star))


def _overlap_miss(f_num, f_star):
    """|f_num - f_star| / f_star in units of the runtime check's 1e-9
    relative tolerance, elementwise, so the check passes at <= 1.  The
    1e-300 keeps an f_star of 0 from dividing by zero and moves no f_star
    above 1e-284; a NaN on either side gives a NaN, which fails."""
    return abs(f_num - f_star) / (1e-9 * (f_star + 1e-300))


# the search grids as numpy's linspace builds them, r step + lo with the
# last entry hi, each padded with one more copy of its first and last
# entry so that the bracket of an argmax k at either end is clipped
_FIRST_RAMP = np.concatenate(([0.0], np.arange(200.0), [199.0]))
_ZOOM_RAMP = np.concatenate(([0.0], np.arange(21.0), [20.0]))


def search_optimal_beta(alpha, eta):
    """Independent 1-D maximization of the family overlap at one (alpha,
    eta): a 200-point grid over (0, 2 alpha], then nine 21-point grids,
    each over the bracket [grid[k-1], grid[k+1]] of the last grid's argmax
    k; returns the last bracket's midpoint beta and the overlap f there,
    as floats.  Each zoom cuts the bracket tenfold, so the last one is at
    most 2.1e-11 alpha wide.  The true maximum lies inside each bracket
    because f rises below beta* and falls above it, beta* <= alpha (see
    optimal_beta).  The first grid starts no lower than twice the square
    root of the smallest normal float, so every beta^2 is normal.

    An eta outside 0 <= eta <= 1, an alpha whose square is not a normal
    float, or one whose last grid point 2 alpha has an infinite 4 beta^2,
    is a domain error naming (alpha, eta)."""
    alpha, eta = float(alpha), float(eta)
    # comparisons only, so that no square can overflow and a NaN fails;
    # the grid reaches beta = 2 alpha, where 4 beta^2 = (4 alpha)^2
    if not (_ROOT_TINY <= alpha <= 0.25 * _ROOT_HUGE and 0.0 <= eta <= 1.0):
        raise ValueError(
            f"maximizer search is out of range at alpha={alpha}, eta={eta}: it needs "
            "0 <= eta <= 1 and a positive alpha whose square is a normal float and for "
            "which (4 alpha)^2 is finite"
        )
    terms = np.array(_overlap_terms(alpha, eta, _coherence(alpha, eta)))
    lo, hi = max(1e-6 * alpha, 2.0 * _ROOT_TINY), 2.0 * alpha
    for ramp in (_FIRST_RAMP,) + (_ZOOM_RAMP,) * 9:
        # ramp.size - 2 points, so ramp.size - 3 steps
        grid = ramp * ((hi - lo) / (ramp.size - 3))
        grid += lo
        grid[-2:] = hi
        # the terms repeated to the grid's shape, as a broadcast kernel
        # call is slower
        values = _family_overlap(terms[:, None].repeat(ramp.size, axis=1), grid)
        np.minimum(values, 1.0, out=values)
        # padded entry j is grid[j-1], clipped at both ends, so the
        # bracket of the argmax k is padded entries k and k + 2
        k = values[1:-1].argmax()
        lo, hi = grid[k], grid[k + 2]
    beta = 0.5 * (lo + hi)
    return float(beta), float(np.minimum(1.0, _family_overlap(terms, beta)))


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

    Points are ordered by (eta descending, alpha ascending).  Each
    point's closed form (optimal_beta) is checked at runtime against one
    call of the independent search (search_optimal_beta), the search's
    only caller: their overlaps must agree to 1e-9 relative
    (_overlap_miss).  Overlaps, not positions, because
    the peak flattens like exp(-(2/3) c^2 (beta - beta*)^2) with c =
    alpha (1 + sqrt(eta)), so at small amplitude only the value is
    conditioned past the rounding plateau.
    Per-point check failures, domain errors and arithmetic faults do not
    abort the sweep; they are collected and raised at the end as a
    SweepError holding the completed points.  An invalid eta raises
    before any point.
    """
    points, failures = [], []
    channels = {float(e): LossChannel(e) for e in etas}
    for eta in sorted(channels, reverse=True):
        for alpha in sorted(set(float(a) for a in alphas)):
            try:
                beta_star, f_star = optimal_beta(alpha, channels[eta])
                beta_num, f_num = search_optimal_beta(alpha, eta)
            except (ValueError, ArithmeticError) as exc:
                failures.append((alpha, eta, str(exc)))
                continue
            if _overlap_miss(f_num, f_star) <= 1.0:
                points.append(FractionCurvePoint(alpha, eta, f_star, beta_star))
            else:
                failures.append((alpha, eta, (
                    f"search maximum f({beta_num}) = {f_num} disagrees with "
                    f"closed form f({beta_star}) = {f_star} (alpha={alpha}, eta={eta})"
                )))
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
