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
from functools import cached_property, lru_cache

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
        rho = np.zeros((4, 4), dtype=complex)
        for index, component in zip((2, 1), env):
            mixed = CoherentQuasiBell(index, alpha, math.sqrt(eta) * alpha)
            c = embed_qubit(mixed)
            rho += (component * h2 / mixed.normalization) ** 2 * (c[:, None] * c.conj())
        return rho


def _coherence(alpha, eta):
    """The coherence factor L = exp(-2 (1-eta) alpha^2), elementwise."""
    return np.exp(-2.0 * (1.0 - eta) * np.square(alpha))


def apply_loss(alpha, channel):
    """Propagate |B2(alpha)> through the loss channel and trace out the
    environment (see DecoheredState for the resulting mixture)."""
    alpha = _check_amplitude(alpha)
    if not alpha > 0.0:
        raise ValueError(f"amplitude must be positive, got {alpha}")
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
    alpha, eta = state.alpha, state.eta
    a2 = alpha**2
    if a2 < _TINY:
        raise ValueError(
            f"family overlap is out of range at alpha={alpha}, eta={eta}: "
            "alpha^2 is below the smallest normal float"
        )
    bad = beta[beta * beta < _TINY]
    if bad.size:
        raise ValueError(
            f"family overlap is out of range at alpha={alpha}, eta={eta}, "
            f"beta={bad[0]}: beta^2 is below the smallest normal float"
        )
    value = _family_overlap(_overlap_terms(alpha, eta, state.coherence), beta)
    bad = beta[~np.isfinite(value)]
    if bad.size:
        raise ValueError(
            f"family overlap is not finite at alpha={alpha}, eta={eta}, "
            f"beta={bad[0]}"
        )
    # the overlap is a fraction by construction; cap the rounding excursion
    value = np.minimum(1.0, value)
    return float(value) if value.ndim == 0 else value


def optimal_beta(alpha, channel, verify=True):
    """Best comparison amplitude and the overlap it achieves.

    Returns (beta_star, f_star) with beta_star = c/2, c = alpha (1 +
    sqrt(eta)), the unique maximum over beta > 0.  Proof: f(beta) =
    cosh((1-eta) alpha^2) sinh^2(c beta) / (sinh(2 alpha^2) sinh(2 beta^2)),
    so d log f / d beta = (2/beta) (g(c beta) - g(2 beta^2)) with the
    strictly increasing g(x) = x coth x: its sign is that of c - 2 beta.
    With ``verify`` (the default), the zooming grid search over (0, 2
    alpha] (search_optimal_beta) must achieve the same overlap to 1e-9
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
        _searched_maximum(state.alpha, state.eta, beta_star, f_star)
    return beta_star, f_star


def _searched_maximum(alpha, eta, beta_star, f_star):
    """Run search_optimal_beta over the rows (alpha, eta) and return its
    (beta, f), raising a MaximizerError that names the first row whose
    overlap does not match the closed-form f_star to 1e-9 relative."""
    beta_num, f_num = search_optimal_beta(alpha, eta)
    # written so that a NaN on either side fails the comparison
    bad = ~(np.abs(f_num - f_star) <= 1e-9 * np.maximum(f_star, 1e-300))
    if bad.any():
        i = np.argmax(bad)
        rows = np.broadcast_arrays(alpha, eta, beta_star, f_star, beta_num, f_num)
        a, e, b_star, f_s, b_num, f_n = (float(np.ravel(x)[i]) for x in rows)
        raise measures.MaximizerError(
            f"search maximum f({b_num}) = {f_n} disagrees with "
            f"closed form f({b_star}) = {f_s} (alpha={a}, eta={e})",
            f_n,
        )
    return beta_num, f_num


# the search grids as numpy's linspace builds them, r step + lo with the
# last entry hi, each padded with one more copy of its first and last
# entry so that the bracket of an argmax k at either end is clipped
_FIRST_RAMP = np.concatenate(([0.0], np.arange(200.0), [199.0]))
_ZOOM_RAMP = np.concatenate(([0.0], np.arange(21.0), [20.0]))


# keyed on (rows, padded grid size); a one-row search uses two keys
@lru_cache(maxsize=64)
def _bracket_ends(count, size):
    """Flat positions of padded entries 0 and 2 of each of ``count`` rows
    of ``size`` entries, shape (2, count, 1): adding a row's argmax k
    gives its bracket [grid[k-1], grid[k+1]].  Read-only because every
    search with that many rows shares it."""
    ends = np.arange(0, count * size, size)[:, None] + np.array([0, 2])[:, None, None]
    ends.flags.writeable = False
    return ends


def search_optimal_beta(alpha, eta):
    """Independent 1-D maximization of the family overlap, elementwise
    over the rows (alpha, eta), which broadcast together: a 200-point
    grid over (0, 2 alpha], then 21-point grids, each over the bracket
    [grid[k-1], grid[k+1]] of the last grid's argmax k, until that
    bracket is at most 1e-10 wide; returns that bracket's midpoint beta
    and the overlap f there.  The true maximum lies inside each bracket
    because f rises below beta* and falls above it, beta* <= alpha (see
    optimal_beta).  The first grid starts no lower than twice the square
    root of the smallest normal float, so every beta^2 is normal.

    All rows share one overlap call per grid, and a row stops zooming
    once its bracket is narrow enough, so each row's (beta, f) is bitwise
    that of a one-row call.  Scalars give floats.  A row outside 0 <=
    eta <= 1, or whose alpha^2 is not a finite normal float, is a domain
    error naming the first such (alpha, eta)."""
    # a 0-d input becomes a numpy scalar, whose arithmetic is the cheapest
    alpha, eta = np.asarray(alpha, dtype=float)[()], np.asarray(eta, dtype=float)[()]
    if alpha.shape != eta.shape:
        alpha, eta = np.broadcast_arrays(alpha, eta)
    # comparisons only, so that no square can overflow and a NaN fails
    ok = (alpha >= _ROOT_TINY) & (alpha <= _ROOT_HUGE) & (eta >= 0.0) & (eta <= 1.0)
    if np.count_nonzero(ok) < ok.size:
        i = np.argmin(ok)
        raise ValueError(
            f"maximizer search is out of range at alpha={np.ravel(alpha)[i]}, "
            f"eta={np.ravel(eta)[i]}: it needs 0 <= eta <= 1 and a positive alpha "
            "whose square is a finite normal float"
        )
    terms = np.array(_overlap_terms(alpha, eta, _coherence(alpha, eta)))
    flat_terms = terms.reshape(5, -1)
    rows = np.arange(alpha.size)
    beta = np.empty(alpha.size)
    # each active row's bracket [lo, hi] and its width, as columns
    lo = np.maximum(1e-6 * flat_terms[0, :, None], 2.0 * _ROOT_TINY)
    hi = 2.0 * flat_terms[0, :, None]
    width = hi - lo
    ramp, stale = _FIRST_RAMP, True
    while rows.size:
        if stale:
            grid_terms = flat_terms[:, rows, None].repeat(ramp.size, axis=2)
            ends = _bracket_ends(rows.size, ramp.size)
            stale = False
        # ramp.size - 2 points, so ramp.size - 3 steps
        grid = ramp * (width / (ramp.size - 3))
        grid += lo
        grid[:, -2:] = hi
        values = _family_overlap(grid_terms, grid)
        np.minimum(values, 1.0, out=values)
        # padded entry j is grid[j-1], clipped at both ends, so the
        # bracket of the argmax k is padded entries k and k + 2
        lo, hi = grid.ravel()[values[:, 1:-1].argmax(axis=1, keepdims=True) + ends]
        width = hi - lo
        if np.minimum.reduce(width, axis=None) <= 1e-10:
            done = (width <= 1e-10)[:, 0]
            beta[rows[done]] = 0.5 * (lo[done, 0] + hi[done, 0])
            rows, lo, hi, width = rows[~done], lo[~done], hi[~done], width[~done]
            stale = True
        if ramp is _FIRST_RAMP:
            ramp, stale = _ZOOM_RAMP, True
    beta = beta.reshape(alpha.shape)[()]
    f = np.minimum(1.0, _family_overlap(terms, beta))
    if alpha.ndim == 0:
        return float(beta), float(f)
    return beta, f


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
    holding the completed points.  An invalid eta raises before any point.
    """
    points, failures = [], []
    channels = {float(e): LossChannel(e) for e in etas}
    for eta in sorted(channels, reverse=True):
        for alpha in sorted(set(float(a) for a in alphas)):
            try:
                beta_star, f_star = optimal_beta(alpha, channels[eta])
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
