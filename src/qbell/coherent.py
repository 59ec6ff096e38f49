"""Quasi-Bell states carried by bosonic coherent states |alpha>, |-alpha>.

The basis-state overlap is kappa = <alpha|-alpha> = exp(-2 alpha^2).  A
CoherentQuasiBell holds its even/odd coefficients (see states) from its
two mode amplitudes, equal or not, so the state-level functions of
states take it directly and stay exact where kappa rounds to 1.  This
module adds the quantities that depend on the bosonic carrier itself:
each mode's mean photon number, two-mode characteristic functions and a
non-Gaussianity witness.  Amplitudes are real throughout.
"""

import cmath
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
    "asymmetric_spectrum",
    "coherent_spectrum",
]


def overlap_of_amplitude(alpha):
    """Overlap <alpha|-alpha> = exp(-2 alpha^2) of the two basis states."""
    alpha = _check_amplitude(alpha)
    return float(np.exp(-2.0 * alpha**2))


def _check_amplitude(alpha):
    # a float is real; the numpy check costs ~2 us per state otherwise
    if not isinstance(alpha, float) and np.iscomplexobj(alpha):
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

    beta defaults to alpha.  Each mode's components are _cat_components
    of its amplitude, so every amplitude pair is one state; only a pair
    whose even/odd terms both underflow, as for indices 2 and 4 when both
    amplitudes are below the smallest normal float, is undefined.
    B2(alpha, 0) and B4(alpha, 0) are the odd cat state times the vacuum.
    """

    index: int
    alpha: float
    beta: float = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_amplitude(self.alpha))
        beta = self.alpha if self.beta is None else _check_amplitude(self.beta)
        object.__setattr__(self, "beta", beta)
        self._hold(_cat_components(self.alpha), _cat_components(self.beta))


def _photon_levels(alpha):
    """(<+|n|+>, <-|n|->) = ((alpha m/p)^2, (alpha p/m)^2) for the
    components (p, m) of amplitude alpha; at alpha = 0 the odd level,
    which no state weights there, is taken as 1."""
    plus, minus = _cat_components(alpha)
    return (alpha * minus / plus) ** 2, (plus * (alpha / minus)) ** 2 if minus else 1.0


def mean_photon_numbers(state):
    """Mean photon number of each reduced mode, as a pair: sum_j c_j^2
    <s_j|n|s_j> on mode A and sum_j c_j^2 <t_j|n|t_j> on mode B over the
    state's two even/odd coefficients c_j on |s_j t_j>, with each mode's
    _photon_levels."""
    levels_a, levels_b = _photon_levels(state.alpha), _photon_levels(state.beta)
    n_a = sum(c * c * levels_a[j >> 1] for j, c in state.terms)
    n_b = sum(c * c * levels_b[j & 1] for j, c in state.terms)
    return n_a, n_b


@dataclass(frozen=True)
class CharFuncPoint:
    """Phase-space arguments (one finite complex number per mode)."""

    zeta_a: complex
    zeta_b: complex = 0.0

    def __post_init__(self):
        for name in ("zeta_a", "zeta_b"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _exp(a):
    """exp of a float array, rounded to nearest like math.exp: numpy's
    vectorized float64 exp is one ulp off for about 4 % of arguments on
    AVX-512 hosts, so this goes through the long-double libm call."""
    return np.exp(a.astype(np.longdouble)).astype(float)


def _displacement_elements(amplitudes, zeta):
    """(2, 2, M, P) array E[s][s'][r] = <s|exp(zeta a+) exp(-zeta* a)|s'> G
    over the even/odd basis of amplitude alpha = amplitudes[r], at each of
    the P points of row r of the complex (M, P) array zeta = x + iy, with
    (plus, minus) = _cat_components(alpha), G = exp(-|zeta|^2/2) and
    kappa = exp(-2 alpha^2):

        ee = (G cos 2y alpha + kappa G cosh 2x alpha) / (1 + kappa)
        oo = G - 2 (G sin^2 y alpha + kappa G sinh^2 x alpha) / (1 - kappa)
        eo, oe = (i G sin 2y alpha -/+ kappa G sinh 2x alpha) / sqrt(1 - kappa^2)

    The amplitudes and their components are (M, 1) columns broadcast
    against zeta, so each row is bitwise a stack of one.
    kappa exp(2|x alpha|) G = exp(-((|x| - 2|alpha|)^2 + y^2)/2) <= 1
    carries the kappa terms, through t = expm1(-2|x alpha|); sin y alpha
    and t are divided by <-|alpha> ~ |alpha| before squaring, so nothing
    cancels or underflows.  A square or product that overflows is inf, as
    in float arithmetic, and only ever meets exp(-inf) = 0, expm1(-inf) =
    -1 or a zero envelope; |y| is capped at 40, beyond which both
    envelopes are exactly 0, so y alpha stays finite.  At alpha = 0 the
    odd entries, which no state weights, are 0: those rows divide by 1
    in place of minus = 0 and are then masked.
    """
    alpha = np.array(amplitudes, dtype=float)[:, None]
    plus, minus = np.array([_cat_components(amp) for amp in amplitudes]).T[..., None]
    vacuum = minus[:, 0] == 0.0
    if vacuum.any():
        minus[vacuum] = 1.0
    x, y = zeta.real, np.clip(zeta.imag, -40.0, 40.0)
    e = np.empty((2, 2) + zeta.shape, dtype=complex)
    with np.errstate(over="ignore"):
        xa, ya, y2 = x * alpha, y * alpha, y * y
        shift = np.abs(x) - 2.0 * np.abs(alpha)
        gauss = _exp(-0.5 * (x * x + y2))
        bounded = _exp(-0.5 * (shift * shift + y2))
        t = np.expm1(-2.0 * np.abs(xa))
        cosh = 0.5 * bounded * (1.0 + (1.0 + t) ** 2)
        e[0, 0] = (gauss * np.cos(2.0 * ya) + cosh) / (2.0 * plus * plus)
        sin_ratio, t_ratio = np.sin(ya) / minus, 0.5 * t / minus
        e[1, 1] = gauss - gauss * sin_ratio * sin_ratio - bounded * t_ratio * t_ratio
        cross = 2.0 * plus * minus
        sinh = np.copysign(-0.5 * bounded * t * (2.0 + t), xa) / cross
        e[0, 1].imag = e[1, 0].imag = gauss * np.sin(2.0 * ya) / cross
    e[0, 1].real, e[1, 0].real = -sinh, sinh
    if vacuum.any():
        e[1, :, vacuum] = e[0, 1, vacuum] = 0.0
    return e


def _char_values(states, zeta_a, zeta_b):
    """Characteristic function of S states, state s at the points
    (zeta_a[s, p], zeta_b[s, p]) of two complex (S, P) arrays, as an
    (S, P) array: one _displacement_elements call over the amplitudes of
    both modes of every state, mode A's rows then mode B's, summed per
    state as sum_{j,k} c_j c_k Ea[s_j][s_k] Eb[t_j][t_k] over its two
    even/odd coefficients c_j on |s_j t_j>.  One state is a stack of
    one."""
    count = len(states)
    e = _displacement_elements(
        [state.alpha for state in states] + [state.beta for state in states],
        np.concatenate((zeta_a, zeta_b)),
    )
    # each state's four (j, k) term pairs, j-major as in the sum, taken
    # from the kernel in one gather per mode
    terms = np.array([state.terms for state in states])
    first, second = terms[:, (0, 0, 1, 1)], terms[:, (0, 1, 0, 1)]
    s_j, s_k = first[..., 0].astype(int), second[..., 0].astype(int)
    rows = np.arange(count)[:, None]
    products = (
        (first[..., 1] * second[..., 1])[..., None]
        * e[s_j >> 1, s_k >> 1, rows]
        * e[s_j & 1, s_k & 1, rows + count]
    )
    return sum(products[:, pair] for pair in range(4))


def characteristic_function(state, point):
    """Two-mode characteristic function of the state at the given point.

    Evaluates Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
    times exp(-(|za|^2 + |zb|^2)/2) as sum_{j,k} c_j c_k Ea[s_j][s_k]
    Eb[t_j][t_k] over the state's two even/odd coefficients c_j on
    |s_j t_j>, a stack of one of _char_values.  C(0, 0) = 1.
    """
    value = _char_values(
        (state,), np.array([[complex(point.zeta_a)]]), np.array([[complex(point.zeta_b)]])
    )
    return complex(value[0, 0])


# the witness sample as coordinates (Re za, Im za, Re zb, Im zb): an
# 8 x 8 grid over [-2, 2] per coordinate on the real axes of both modes,
# then another on the imaginary axes
_AXIS = np.linspace(-2.0, 2.0, 8)
_WITNESS_COORDS = np.array(
    [(x, 0.0, y, 0.0) for x in _AXIS for y in _AXIS]
    + [(0.0, x, 0.0, y) for x in _AXIS for y in _AXIS]
)

# central differences at the origin along each coordinate: +eps, -eps
_EPS = 1e-3
_STENCIL = _EPS * np.kron(np.eye(4), [[1.0], [-1.0]])
# the quadratic columns c_i c_j, i <= j, of the fit's design matrix
_PAIRS = np.triu_indices(4)


def _log_fit_residual(coords, values):
    """Max deviation of log C from its best-fit quadratic form.

    coords (n, 4) holds (Re za, Im za, Re zb, Im zb) and values the
    characteristic function there; the first 8 rows are _STENCIL, the
    rest the sample.  The linear phase is the stencil's central
    difference of arg C, divided out before the logarithm so that a
    Gaussian C never winds its principal branch; the log values with
    |C| > 1e-10 are fit by one real least-squares solve, the real and
    imaginary parts as two right-hand sides of the real design matrix
    1, c_i, c_i c_j (i <= j).  Gaussian states give residuals at rounding
    level, cat-like superpositions order one.
    """
    slope = np.angle(values[0:8:2] / values[1:8:2]) / (2.0 * _EPS)
    coords, values = coords[8:], values[8:]
    keep = np.abs(values) > 1e-10
    coords, values = coords[keep], values[keep]
    logs = np.log(values * np.exp(-1j * (coords @ slope)))
    i, j = _PAIRS
    design = np.column_stack((np.ones(len(coords)), coords, coords[:, i] * coords[:, j]))
    rhs = np.column_stack((logs.real, logs.imag))
    fit, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    misfit = rhs - design @ fit
    return float(np.max(np.hypot(misfit[:, 0], misfit[:, 1])))


def gaussianity_witness(state):
    """Non-Gaussianity witness: residual of the quadratic fit to the log
    characteristic function over the standard sample, the stencil and the
    sample taken in one kernel evaluation for both modes.

    Order one for cat-like states, but not bounded away from zero:
    indices 1 and 3 tend to the vacuum as alpha -> 0 and their residual
    falls as about 10.9 alpha^4 (1.1e-7 at alpha = 1e-2, 1.1e-11 at
    1e-3) to the rounding level of a Gaussian state, passing 1e-9 near
    alpha = 3e-3.  Indices 2 and 4 stay near 2.01 at every amplitude.
    """
    if state.alpha <= 0.0:
        raise ValueError("witness requires a positive amplitude")
    coords = np.concatenate((_STENCIL, _WITNESS_COORDS))
    values = _char_values(
        (state,), (coords[:, 0] + 1j * coords[:, 1])[None], (coords[:, 2] + 1j * coords[:, 3])[None]
    )
    return _log_fit_residual(coords, values[0])


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
    """states.reduced_spectrum of a coherent quasi-Bell state."""
    return reduced_spectrum(state)
