"""Quasi-Bell states carried by bosonic coherent states |alpha>, |-alpha>.

The basis-state overlap is kappa = <alpha|-alpha> = exp(-2 alpha^2), so
every overlap-level result applies with that substitution.  This module
adds the quantities that depend on the bosonic carrier itself: mean
photon numbers, two-mode characteristic functions, a non-Gaussianity
witness, and the reduced spectra when the two modes carry different
amplitudes.  Amplitudes are real throughout.
"""

from dataclasses import dataclass

import numpy as np

from .states import FORMS, QuasiBell, check_index, reduced_spectrum

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
    if not np.isfinite(alpha):
        raise ValueError("amplitude must be finite")
    return alpha


@dataclass(frozen=True)
class CoherentQuasiBell:
    """Quasi-Bell state on modes carrying amplitudes +/-alpha, +/-beta.

    beta defaults to alpha (the symmetric case).  Zero amplitude is
    rejected for indices 2 and 4, where the superposition degenerates.
    """

    index: int
    alpha: float
    beta: float = None

    def __post_init__(self):
        object.__setattr__(self, "index", check_index(self.index))
        object.__setattr__(self, "alpha", _check_amplitude(self.alpha))
        beta = self.alpha if self.beta is None else _check_amplitude(self.beta)
        object.__setattr__(self, "beta", beta)
        if self.index in (2, 4) and (self.alpha == 0.0 or self.beta == 0.0):
            raise ValueError(
                f"state {self.index} is undefined at zero amplitude "
                "(the two product terms coincide)"
            )

    @property
    def kappa_a(self):
        return overlap_of_amplitude(self.alpha)

    @property
    def kappa_b(self):
        return overlap_of_amplitude(self.beta)

    @property
    def symmetric(self):
        return self.alpha == self.beta


def _require_symmetric(state):
    if not state.symmetric:
        raise ValueError("operation is defined for equal mode amplitudes only")


def mean_photon_numbers(state):
    """Mean photon number of each reduced mode, as a pair.

    Equal on both modes by symmetry; (1 - kappa^2)/(1 + kappa^2) alpha^2
    for indices 1 and 3, (1 + kappa^2)/(1 - kappa^2) alpha^2 for 2 and 4,
    with 1 - kappa^2 = -expm1(-4 alpha^2) so that indices 2 and 4 keep
    their limit 1/2 as alpha -> 0.
    """
    _require_symmetric(state)
    a2 = state.alpha**2
    plus = 1.0 + state.kappa_a**2
    minus = -float(np.expm1(-4.0 * a2))
    if state.index in (1, 3):
        n = minus / plus * a2
    else:
        n = plus / minus * a2
    return n, n


@dataclass(frozen=True)
class CharFuncPoint:
    """Phase-space arguments (one complex number per mode)."""

    zeta_a: complex
    zeta_b: complex = 0.0


def _coherent_elem(gamma, delta, zeta):
    """<gamma| exp(zeta a+) exp(-zeta* a) |delta> for real amplitudes."""
    overlap = np.exp(-0.5 * (gamma - delta) ** 2)
    return overlap * np.exp(zeta * gamma - np.conj(zeta) * delta)


def _dyad_terms(state):
    """Signed coherent-product components (c, gamma_a, gamma_b) of the state."""
    sign, swapped = FORMS[state.index]
    a, b = state.alpha, -state.beta if swapped else state.beta
    h = 1.0 / np.sqrt(2.0 * (1.0 + sign * state.kappa_a * state.kappa_b))
    return [(h, a, b), (sign * h, -a, -b)]


def characteristic_function(state, point):
    """Two-mode characteristic function of the state at the given point.

    Evaluates Tr[rho exp(za a+) exp(-za* a) exp(zb b+) exp(-zb* b)]
    times exp(-(|za|^2 + |zb|^2)/2) term by term over the four
    coherent-dyad contributions, keeping the coherent-overlap factors on
    the interference terms.  C(0, 0) = 1.
    """
    _require_symmetric(state)
    za = complex(point.zeta_a)
    zb = complex(point.zeta_b)
    terms = _dyad_terms(state)
    total = 0.0 + 0.0j
    for cj, gaj, gbj in terms:
        for ck, gak, gbk in terms:
            total += (
                cj
                * ck
                * _coherent_elem(gaj, gak, za)
                * _coherent_elem(gbj, gbk, zb)
            )
    return complex(total * np.exp(-0.5 * (abs(za) ** 2 + abs(zb) ** 2)))


def witness_points(sample_count=128):
    """Deterministic phase-space sample over [-2, 2] per coordinate: half
    the points on the real axes of both modes, half on the imaginary
    axes, straddling the interference fringes of cat-like states."""
    if sample_count < 8:
        raise ValueError("need at least 8 sample points")
    side = max(2, int(round(np.sqrt(sample_count / 2))))
    axis = np.linspace(-2.0, 2.0, side)
    pts = []
    for x in axis:
        for y in axis:
            pts.append(CharFuncPoint(complex(x, 0.0), complex(y, 0.0)))
    for x in axis:
        for y in axis:
            pts.append(CharFuncPoint(complex(0.0, x), complex(0.0, y)))
    return pts


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


def gaussianity_witness(state, sample_count=128):
    """Non-Gaussianity witness: residual of the quadratic fit to the log
    characteristic function over the standard sample.  Strictly positive
    for every quasi-Bell state with nonzero amplitude."""
    if state.alpha <= 0.0:
        raise ValueError("witness requires a positive amplitude")
    return quadratic_log_fit_residual(
        lambda p: characteristic_function(state, p), witness_points(sample_count)
    )


def asymmetric_spectrum(alpha, beta, index):
    """Reduced-state eigenvalues when the modes carry amplitudes alpha
    and beta, for the antisymmetric-type states (indices 2, 4):

        lam1 = (1 + ka)(1 - kb) / (2 (1 - ka kb))
        lam2 = (1 - ka)(1 + kb) / (2 (1 - ka kb))

    with ka = exp(-2 alpha^2), kb = exp(-2 beta^2).  The entropy reaches
    1 exactly when the amplitudes coincide.
    """
    index = check_index(index)
    if index not in (2, 4):
        raise ValueError("asymmetric spectrum applies to indices 2 and 4")
    ka = overlap_of_amplitude(alpha)
    kb = overlap_of_amplitude(beta)
    if ka * kb >= 1.0:
        raise ValueError("both amplitudes zero: state undefined")
    denom = 2.0 * (1.0 - ka * kb)
    lam = np.array([(1.0 + ka) * (1.0 - kb) / denom, (1.0 - ka) * (1.0 + kb) / denom])
    return np.sort(lam)[::-1]


def coherent_spectrum(state):
    """Reduced spectrum of a symmetric coherent quasi-Bell state, via the
    overlap-level closed form."""
    _require_symmetric(state)
    return reduced_spectrum(QuasiBell(state.index, state.kappa_a))

