"""Quasi-Bell states carried by bosonic coherent states |alpha>, |-alpha>.

The basis-state overlap is kappa = <alpha|-alpha> = exp(-2 alpha^2).  A
CoherentQuasiBell holds its even/odd coefficients (see states) from the
amplitudes themselves, so the state-level functions of states take it
directly and stay exact where kappa rounds to 1.  This module adds the
quantities that depend on the bosonic carrier itself: mean photon
numbers, two-mode characteristic functions, a non-Gaussianity witness,
and the reduced spectra when the two modes carry different amplitudes.
Amplitudes are real throughout.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .states import _EvenOdd, reduced_spectrum

__all__ = [
    "CoherentQuasiBell",
    "CharFuncPoint",
    "overlap_of_amplitude",
    "mean_photon_numbers",
    "characteristic_function",
    "gaussianity_witness",
    "quadratic_log_fit_residual",
    "witness_points",
    "asymmetric_spectrum",
    "coherent_spectrum",
]


def overlap_of_amplitude(alpha):
    """Overlap <alpha|-alpha> = exp(-2 alpha^2) of the two basis states."""
    alpha = _check_amplitude(alpha)
    return float(np.exp(-2.0 * alpha**2))


def _check_amplitude(alpha):
    if np.iscomplexobj(alpha):
        raise ValueError("amplitudes are real in this model")
    alpha = float(alpha)
    if not math.isfinite(alpha * alpha):
        raise ValueError(f"amplitude {alpha} is out of range: alpha^2 is not finite")
    return alpha


def _cat_components(alpha):
    """(<+|alpha>, <-|alpha>) = (sqrt((1 + kappa)/2), sqrt((1 - kappa)/2)),
    with 1 - kappa = -expm1(-2 alpha^2) and, below the smallest normal
    alpha^2, <-|alpha> = |alpha|, so it stays exact as alpha -> 0."""
    a2 = alpha * alpha
    if a2 < sys.float_info.min:
        return 1.0, abs(alpha)
    return (
        math.sqrt((1.0 + math.exp(-2.0 * a2)) / 2.0),
        math.sqrt(-math.expm1(-2.0 * a2) / 2.0),
    )


@dataclass(frozen=True)
class CoherentQuasiBell(_EvenOdd):
    """Quasi-Bell state on modes carrying amplitudes +/-alpha, +/-beta.

    beta defaults to alpha (the symmetric case).  Each mode's components
    are _cat_components of its amplitude.  Indices 2 and 4 reject
    amplitudes below the smallest normal float, zero included, where the
    superposition degenerates to rounding.
    """

    index: int
    alpha: float
    beta: float = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_amplitude(self.alpha))
        beta = self.alpha if self.beta is None else _check_amplitude(self.beta)
        object.__setattr__(self, "beta", beta)
        small = min(abs(self.alpha), abs(self.beta))
        if self.index in (2, 4) and small < sys.float_info.min:
            raise ValueError(f"state {self.index} is undefined at amplitude {small}")
        self._hold(_cat_components(self.alpha), _cat_components(self.beta))

    @property
    def symmetric(self):
        return self.alpha == self.beta


def _require_symmetric(state):
    if not state.symmetric:
        raise ValueError("operation is defined for equal mode amplitudes only")


def mean_photon_numbers(state):
    """Mean photon number of each reduced mode, as a pair, equal on both
    modes by symmetry: sum_j c_j^2 <s_j|n|s_j> over the state's two
    even/odd coefficients c_j on |s_j t_j>, with <+|n|+> = (alpha m/p)^2
    and <-|n|-> = (alpha p/m)^2 for the mode's components (p, m).  At
    alpha = 0 the odd level, which no state weights there, is taken as 1.
    """
    _require_symmetric(state)
    alpha = state.alpha
    plus, minus = _cat_components(alpha)
    even = (alpha * minus / plus) ** 2
    odd = (plus * (alpha / minus)) ** 2 if minus else 1.0
    n = sum(c * c * (odd if j >> 1 else even) for j, c in state.terms)
    return n, n


@dataclass(frozen=True)
class CharFuncPoint:
    """Phase-space arguments (one complex number per mode)."""

    zeta_a: complex
    zeta_b: complex = 0.0


def _displacement_elements(alpha, mode, zeta):
    """((ee, eo), (oe, oo)): <s|exp(zeta a+) exp(-zeta* a)|s'> G over the
    even/odd basis of amplitude alpha, mode = _cat_components(alpha),
    zeta = x + iy, G = exp(-|zeta|^2/2), kappa = exp(-2 alpha^2):

        ee = (G cos 2y alpha + kappa G cosh 2x alpha) / (1 + kappa)
        oo = G - 2 (G sin^2 y alpha + kappa G sinh^2 x alpha) / (1 - kappa)
        eo, oe = (i G sin 2y alpha -/+ kappa G sinh 2x alpha) / sqrt(1 - kappa^2)

    kappa exp(2|x alpha|) G = exp(-((|x| - 2|alpha|)^2 + y^2)/2) <= 1
    carries the kappa terms, through t = expm1(-2|x alpha|); sin y alpha
    and t are divided by <-|alpha> ~ |alpha| before squaring, so nothing
    overflows, cancels or underflows.  At alpha = 0 the odd entries,
    which no state weights, are 0.
    """
    plus, minus = mode
    x, y = zeta.real, zeta.imag
    gauss = math.exp(-0.5 * (x * x + y * y))
    shift = abs(x) - 2.0 * abs(alpha)
    bounded = math.exp(-0.5 * (shift * shift + y * y))
    t = math.expm1(-2.0 * abs(x * alpha))
    cosh = 0.5 * bounded * (1.0 + (1.0 + t) ** 2)
    even = (gauss * math.cos(2.0 * y * alpha) + cosh) / (2.0 * plus * plus)
    if minus == 0.0:
        return (even, 0.0), (0.0, 0.0)
    sin_ratio, t_ratio = math.sin(y * alpha) / minus, 0.5 * t / minus
    odd = gauss - gauss * sin_ratio * sin_ratio - bounded * t_ratio * t_ratio
    sinh = math.copysign(-0.5 * bounded * t * (2.0 + t), x * alpha)
    sin = gauss * math.sin(2.0 * y * alpha)
    cross = 2.0 * plus * minus
    return (even, complex(-sinh, sin) / cross), (complex(sinh, sin) / cross, odd)


def characteristic_function(state, point):
    """Two-mode characteristic function of the state at the given point.

    Evaluates Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
    times exp(-(|za|^2 + |zb|^2)/2) as sum_{j,k} c_j c_k Ea[s_j][s_k]
    Eb[t_j][t_k] over the state's two even/odd coefficients c_j on
    |s_j t_j>.  C(0, 0) = 1.
    """
    _require_symmetric(state)
    mode = _cat_components(state.alpha)
    ea = _displacement_elements(state.alpha, mode, complex(point.zeta_a))
    eb = _displacement_elements(state.alpha, mode, complex(point.zeta_b))
    return complex(sum(
        cj * ck * ea[j >> 1][k >> 1] * eb[j & 1][k & 1]
        for j, cj in state.terms for k, ck in state.terms
    ))


def witness_points():
    """Deterministic 128-point phase-space sample, an 8 x 8 grid over
    [-2, 2] per coordinate on the real axes of both modes and another on
    the imaginary axes, straddling the fringes of cat-like states."""
    axis = np.linspace(-2.0, 2.0, 8)
    real = [CharFuncPoint(complex(x, 0.0), complex(y, 0.0)) for x in axis for y in axis]
    imag = [CharFuncPoint(complex(0.0, x), complex(0.0, y)) for x in axis for y in axis]
    return real + imag


def quadratic_log_fit_residual(char_fn, points):
    """Max deviation of log C from the best-fit quadratic form.

    The linear phase (displacement) is measured at the origin by central
    differences and divided out first, so that a Gaussian C never winds
    the principal branch of the logarithm; the remaining log values are
    then fit, with complex coefficients, to a quadratic polynomial in the
    four real phase-space coordinates.  Points with |C| <= 1e-10 are
    excluded from the fit.  Gaussian states give residuals at
    rounding level; cat-like superpositions give order-one residuals.
    """
    eps = 1e-3
    slope = np.zeros(4)
    for j, (da, db) in enumerate(
        [(eps, 0.0), (eps * 1j, 0.0), (0.0, eps), (0.0, eps * 1j)]
    ):
        up = char_fn(CharFuncPoint(da, db))
        dn = char_fn(CharFuncPoint(-da, -db))
        slope[j] = np.angle(up / dn) / (2.0 * eps)

    coords, logs = [], []
    for p in points:
        value = char_fn(p)
        if abs(value) <= 1e-10:
            continue
        v = np.array([p.zeta_a.real, p.zeta_a.imag, p.zeta_b.real, p.zeta_b.imag])
        coords.append(v)
        logs.append(np.log(value * np.exp(-1j * slope @ v)))
    coords = np.array(coords)
    logs = np.array(logs)

    columns = [np.ones(len(coords))]
    columns += [coords[:, i] for i in range(4)]
    columns += [coords[:, i] * coords[:, j] for i in range(4) for j in range(i, 4)]
    design = np.stack(columns, axis=1).astype(complex)
    fit, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return float(np.max(np.abs(logs - design @ fit)))


def gaussianity_witness(state):
    """Non-Gaussianity witness: residual of the quadratic fit to the log
    characteristic function over the standard sample.  Strictly positive
    for every quasi-Bell state with nonzero amplitude."""
    if state.alpha <= 0.0:
        raise ValueError("witness requires a positive amplitude")
    return quadratic_log_fit_residual(
        lambda p: characteristic_function(state, p), witness_points()
    )


def asymmetric_spectrum(alpha, beta, index):
    """Reduced-state eigenvalues when the modes carry amplitudes alpha
    and beta, for the antisymmetric-type states (indices 2, 4):

        lam1 = (1 + ka)(1 - kb) / (2 (1 - ka kb))
        lam2 = (1 - ka)(1 + kb) / (2 (1 - ka kb))

    with ka = exp(-2 alpha^2), kb = exp(-2 beta^2): the squares of the
    state's two even/odd coefficients, sorted descending.  The entropy
    reaches 1 exactly when the amplitudes coincide.
    """
    if index not in (2, 4):
        raise ValueError("asymmetric spectrum applies to indices 2 and 4")
    return reduced_spectrum(CoherentQuasiBell(index, alpha, beta))


def coherent_spectrum(state):
    """states.reduced_spectrum of a symmetric coherent quasi-Bell state."""
    _require_symmetric(state)
    return reduced_spectrum(state)
