"""Closed-form versus Fock-space cross-checks.

Each check builds states explicitly in the truncated number basis via
the fock module and compares a closed-form quantity against its
brute-force counterpart, reporting the largest deviation.  The checks
read stacks of normalized product terms (fock._quasi_bell_terms)
through fock's term kernels and form no dense two-mode vector, reduced
density or three-mode state.  One battery (run_all) builds two grids
once and passes them to the checks that read them, each doing its own
arithmetic, and nothing is kept from one battery to the next:
_state_grid, the states 1-4 at each _ALPHA_GRID amplitude and their
4 x 4 Fock Grams, for the Gram, spectra, entropy, mean photon and
quasi-Werner checks, and _loss_grid, the lossy pairs (_lossy_pairs:
|B2(alpha)> with mode B sent through fock's vacuum-input splitter, one
call per amplitude for all its eta) at each _LOSS_ALPHAS x _LOSS_ETAS
point, for the loss density, purity, family overlap and optimal-beta
checks, which read them through one environment contraction
(_environment_amplitudes).  The beam-splitter rule and unitarity checks
take that vacuum-input splitter too, the unitarity check on every
number state its tables cover up to sector 20, so the battery reads
one splitter kernel.  The optimal-beta check reads the maximizer
from the oracle overlaps, not from an argmax of the closed-form
kernel.  The CLI ``verify`` subcommand runs the battery.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherent, decoherence, fock, states, werner

__all__ = [
    "CheckResult",
    "run_all",
    "family_overlap_curve",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self):
        return self.deviation <= self.tolerance


def _loss_amplitude(alpha):
    """alpha as a float, rejected where the lossy pair does not exist:
    at 0 its two terms cancel, and a non-finite amplitude has no Fock
    vector.  A negative alpha only flips the state's sign."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise ValueError(f"loss amplitude must be finite and nonzero, got {alpha}")
    return alpha


def _b2_terms(alpha, n):
    """|B2(alpha)> at truncation n as its two normalized product terms,
    a stack of one of fock._quasi_bell_terms, after _loss_amplitude."""
    state = coherent.CoherentQuasiBell(2, _loss_amplitude(alpha))
    terms_a, terms_b = fock._quasi_bell_terms((state,), n)
    return terms_a[0], terms_b[0]


def _lossy_pairs(terms, etas):
    """|B2(alpha)>, given as its _b2_terms, with mode B sent through the
    loss splitter at each transmissivity of ``etas``, one lossy pair per
    eta as stacked terms (pair_a, pair_be), psi = sum_t pair_a[t] (x)
    pair_be[t]: the mode-B terms' (B, E) outputs of one call of fock's
    vacuum-input splitter, which is unitary, so psi keeps the norm."""
    pair_a, terms_b = terms
    return tuple((pair_a, pair_be) for pair_be in fock._splitter_on_vacuum(terms_b, etas))


def _environment_amplitudes(pair, probe_a, probe_b):
    """<probe|_AB psi> for the lossy pair ``pair`` (_lossy_pairs) as one
    mode-E row per probe, each probe given as stacked product terms
    (probe_a[p, s], probe_b[p, s]) over modes A and B, shape (P, S,
    N+1).  Each probe's terms meet pair_a first, giving the mode-B
    vectors sum_s <probe_a[s]|pair_a[t]> conj(probe_b[s]) for each term
    t, and one matmul against pair_be sums t and b; neither a dense
    probe nor the (N+1)^3 three-mode state is formed."""
    pair_a, pair_be = pair
    on_b = np.swapaxes(probe_a.conj() @ pair_a.T, -1, -2) @ probe_b.conj()
    return on_b.reshape(len(on_b), -1) @ pair_be.reshape(-1, pair_be.shape[-1])


def _family_probes(betas, truncation):
    """The |B2(beta)> probe of each comparison amplitude beta as stacked
    product terms (probe_a, probe_b) for _environment_amplitudes, each
    kept as its two normalized terms: one fock._quasi_bell_terms build
    of the whole stack."""
    probes = [coherent.CoherentQuasiBell(2, beta) for beta in betas]
    return fock._quasi_bell_terms(probes, truncation)


def _probe_overlaps(pair, probes):
    """<probe| rho_AB |probe> of the lossy pair ``pair`` for each probe
    of a _family_probes stack: the squared norm of its environment
    amplitudes."""
    return np.sum(np.abs(_environment_amplitudes(pair, *probes)) ** 2, axis=1)


def family_overlap_curve(alpha, eta, betas):
    """<B2(beta)| rho_AB |B2(beta)> at each comparison amplitude beta,
    computed entirely in the number basis (_probe_overlaps) at the
    truncation the adequacy rule gives the largest |amplitude|."""
    alpha = _loss_amplitude(alpha)
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.size == 0 or not np.all(np.isfinite(betas)):
        raise ValueError(f"comparison amplitudes must be a nonempty finite list, got {betas}")
    truncation = fock.adequate_truncation(max(abs(alpha), np.abs(betas).max()))
    (pair,) = _lossy_pairs(_b2_terms(alpha, truncation), (eta,))
    return _probe_overlaps(pair, _family_probes(betas, truncation))


_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class _StateGrid:
    """The quasi-Bell states 1-4 at each _ALPHA_GRID amplitude, built by
    _state_grid at one truncation: ``quasi_bells``, the states amplitude
    by amplitude, ``terms``, their stacked product terms (terms_a,
    terms_b) of one fock._quasi_bell_terms build, and ``grams``, the
    Fock Gram <B_i|B_j> of each amplitude's four states, shape
    (len(_ALPHA_GRID), 4, 4).  run_all builds one per battery and passes
    it to each check that reads it."""

    quasi_bells: tuple
    terms: tuple
    grams: np.ndarray


def _state_grid(truncation):
    """The _StateGrid at ``truncation``, or without one at the adequacy
    rule of the largest amplitude.  <B_i|B_j> = sum_st <a_is|a_jt>
    <b_is|b_jt> over the two normalized terms s of state i and t of
    state j, from one 8 x 8 Gram per mode and amplitude."""
    quasi_bells = tuple(
        coherent.CoherentQuasiBell(index, alpha) for alpha in _ALPHA_GRID for index in (1, 2, 3, 4)
    )
    terms = fock._quasi_bell_terms(quasi_bells, truncation)
    stack_a, stack_b = (mode.reshape(len(_ALPHA_GRID), 8, -1) for mode in terms)
    products = (stack_a.conj() @ np.swapaxes(stack_a, 1, 2)) * (
        stack_b.conj() @ np.swapaxes(stack_b, 1, 2)
    )
    grams = products.reshape(-1, 4, 2, 4, 2).sum(axis=(2, 4))
    return _StateGrid(quasi_bells, terms, grams)


def check_coherent_overlap(truncation):
    # |alpha> and |-alpha> of every grid amplitude, one stacked build
    amplitudes = [sign * alpha for alpha in _ALPHA_GRID for sign in (1.0, -1.0)]
    vecs = fock._coherent_vectors(amplitudes, truncation)
    numeric = np.sum(vecs[0::2].conj() * vecs[1::2], axis=1).real
    closed = [coherent.overlap_of_amplitude(alpha) for alpha in _ALPHA_GRID]
    return CheckResult("coherent_overlap", np.max(np.abs(numeric - closed)), 1e-12)


def check_gram_matrix(grid):
    # np.max, unlike max, passes a NaN on, here and in the other grid checks
    closed = [states.gram_matrix(coherent.overlap_of_amplitude(alpha)) for alpha in _ALPHA_GRID]
    return CheckResult("gram_matrix", np.max(np.abs(np.abs(grid.grams) - closed)), 1e-10)


def check_reduced_spectra(grid):
    # rho_A of each state has rank 2, so its spectrum is that of its 2 x 2
    # core (fock._reduced_core); the grid's cores take one stacked eigvalsh
    closed = [coherent.coherent_spectrum(state) for state in grid.quasi_bells]
    lam = np.linalg.eigvalsh(fock._reduced_core(*grid.terms, 0))[:, ::-1]
    return CheckResult("reduced_spectra", np.max(np.abs(lam - closed)), 1e-9)


def check_unit_entropy(grid):
    # states 2 and 4 of each amplitude, the grid's odd positions
    dev = max(
        abs(fock.von_neumann_entropy(core) - 1.0)
        for core in fock._reduced_core(*(mode[1::2] for mode in grid.terms), 0)
    )
    return CheckResult("unit_entropy", dev, 1e-9)


def _photon_deviation(quasi_bells, terms):
    """Largest |Tr(rho n) - closed| over both modes of the states
    ``quasi_bells`` and their stacked product terms."""
    closed = [coherent.mean_photon_numbers(state) for state in quasi_bells]
    numeric = np.transpose([fock._mean_photon(*terms, mode).ravel() for mode in (0, 1)])
    return float(np.max(np.abs(numeric - closed)))


def check_mean_photons(truncation, grid):
    # states 1 and 2, the first two of each grid amplitude's four, read
    # from the grid as views, and at three unequal amplitude pairs, one
    # stacked build of all six at ``truncation``
    dev = _photon_deviation(
        [state for state in grid.quasi_bells if state.index in (1, 2)],
        [mode.reshape(len(_ALPHA_GRID), 4, 2, -1)[:, :2] for mode in grid.terms],
    )
    quasi_bells = [
        coherent.CoherentQuasiBell(index, alpha, beta)
        for alpha, beta in ((0.5, 1.5), (2.0, 0.6), (1.0, 0.0))
        for index in (1, 2)
    ]
    terms = fock._quasi_bell_terms(quasi_bells, truncation)
    return CheckResult("mean_photons", max(dev, _photon_deviation(quasi_bells, terms)), 1e-9)


def check_asymmetric_spectra(truncation):
    pairs = [(a, b) for a in (0.3, 1.0, 2.0) for b in (0.5, 1.0, 1.5)]
    closed = [coherent.asymmetric_spectrum(alpha, beta, 2) for alpha, beta in pairs]
    terms = fock._quasi_bell_terms(
        [coherent.CoherentQuasiBell(2, alpha, beta) for alpha, beta in pairs], truncation
    )
    lam = np.linalg.eigvalsh(fock._reduced_core(*terms, 0))[:, ::-1]
    return CheckResult("asymmetric_spectra", np.max(np.abs(lam - closed)), 1e-10)


# the real root of x^5 = x + 1: 1/g, ..., 1/g^4 and 1 are linearly
# independent over the rationals, so the lattice below fills [0, 1)^4
# evenly (the Kronecker sequence of Roberts's R_4 construction)
_LATTICE_ROOT = 1.1673039782614187


def _lattice(count):
    """The first ``count`` points of the Kronecker lattice frac(1/2 +
    k g^-j), k = 1..count, j = 1..4, with g = _LATTICE_ROOT, shape
    (count, 4): fixed sample points in [0, 1)^4 that need no random
    number generator."""
    k = np.arange(1.0, count + 1.0)[:, None]
    return np.modf(0.5 + k * _LATTICE_ROOT ** -np.arange(1.0, 5.0))[0]


def _char_points():
    """The 8 states' 20 points (za, zb) each, shape (8, 2, 20): the
    lattice's 160 points scaled to [-1.5, 1.5)^4 and read as (Re za,
    Im za, Re zb, Im zb), 20 consecutive points per state."""
    parts = 3.0 * _lattice(160).reshape(8, 20, 2, 2) - 1.5
    return (parts[..., 0] + 1j * parts[..., 1]).transpose(0, 2, 1)


def check_char_function(truncation):
    # the four states of each amplitude pair at their 20 points each: one
    # closed-form call for all 8 states, and per pair one stacked build,
    # at the adequacy rule of the pair without a truncation, and one
    # stacked trace call (one call for both pairs would hold twice the
    # trace temporaries)
    quasi_bells = [
        coherent.CoherentQuasiBell(index, alpha, beta)
        for alpha, beta in ((0.5, 0.5), (1.0, 0.6))
        for index in (1, 2, 3, 4)
    ]
    za, zb = np.swapaxes(_char_points(), 0, 1)
    closed = coherent._char_values(quasi_bells, za, zb)
    dev = 0.0
    for pair in (slice(0, 4), slice(4, 8)):
        terms = fock._quasi_bell_terms(quasi_bells[pair], truncation)
        numeric = fock._char_traces(*terms, za[pair], zb[pair])
        dev = max(dev, float(np.max(np.abs(closed[pair] - numeric))))
    return CheckResult("char_function", dev, 1e-8)


def check_beam_splitter_rule(truncation):
    # the grid is symmetric about 1/2 with exact complements 1 - eta, so
    # |sqrt(1 - eta) alpha> is the target vector of the mirrored eta, and
    # the one at eta = 1 is |alpha>, the input: five vectors per amplitude,
    # one stacked build, and one splitter call at all five eta; the
    # fidelity's amplitude is <kept| sent |lost*> by matmul
    etas = (0.0, 0.25, 0.5, 0.75, 1.0)
    dev = 0.0
    for alpha in _ALPHA_GRID:
        targets = fock._coherent_vectors(np.sqrt(etas) * alpha, truncation)
        sent = fock._splitter_on_vacuum(targets[-1:], etas)[:, 0]
        kept, lost = targets.conj(), targets[::-1].conj()
        fidelity = np.abs(kept[:, None] @ sent @ lost[:, :, None]) ** 2
        # np.max, unlike max, passes a NaN on
        dev = np.max((dev, np.max(1.0 - fidelity)))
    return CheckResult("beam_splitter_rule", dev, 1e-9)


def check_beam_splitter_unitary():
    # the loss checks' splitter kernel on each number state |n>|0>, n <=
    # 20, at three angles: each output is the vacuum column of sector n
    # and must keep unit norm.  The 22 levels are one more than sector 20
    # needs, so no output reaches the truncation boundary
    out = fock._splitter_on_vacuum(np.eye(21, 22), (0.2, 0.5, 0.8))
    # np.max, unlike max, passes a NaN on
    dev = np.max(np.abs(np.linalg.norm(out, axis=(-2, -1)) - 1.0))
    return CheckResult("beam_splitter_unitary", dev, 1e-12)


_LOSS_ALPHAS = (0.5, 1.0, 2.0)
_LOSS_ETAS = (0.1, 0.5, 0.9)
_FAMILY_SCALES = np.linspace(0.25, 1.75, 7)  # the family probes over alpha


@dataclass(frozen=True)
class _LossGrid:
    """The loss checks' pairs (_loss_grid): per _LOSS_ALPHAS amplitude,
    its truncation and its lossy pair at each _LOSS_ETAS
    transmissivity, from one _b2_terms build and one _lossy_pairs call."""

    truncations: tuple
    pairs: tuple


def _loss_grid(truncation):
    """The _LossGrid at ``truncation``, or without one at each
    amplitude's adequacy rule for its largest family probe, 1.75 alpha."""
    truncations, pairs = [], []
    for alpha in _LOSS_ALPHAS:
        n = fock.adequate_truncation(_FAMILY_SCALES[-1] * alpha) if truncation is None else truncation
        truncations.append(n)
        pairs.append(_lossy_pairs(_b2_terms(alpha, n), _LOSS_ETAS))
    return _LossGrid(tuple(truncations), tuple(pairs))


def _projected_loss_densities(alpha, etas, pairs):
    """rho_AB of each lossy pair of |B2(alpha)> in ``pairs``, one per
    eta of ``etas``, projected onto the 4x4 basis of DecoheredState.matrix:
    phi phi+, phi the environment amplitudes of the four products
    a_i (x) b_j.  Each mode's orthonormal pair (|g> +/- |-g>) / norm,
    g = alpha for A and sqrt(eta) alpha for B, comes from one
    fock._coherent_vectors call over all the +/-g."""
    n = pairs[0][0].shape[-1] - 1
    amplitudes = np.concatenate(([alpha], np.sqrt(etas) * alpha))
    vecs = fock._coherent_vectors([sign * g for g in amplitudes for sign in (1.0, -1.0)], n)
    up, down = vecs[0::2], vecs[1::2]
    # shape (1 + len(etas), 2, n + 1); each vector takes its own
    # np.linalg.norm, as a single pair would: an axis-wise norm rounds
    # differently in the last bit
    bases = np.stack((up + down, up - down), axis=1)
    for vec in bases.reshape(-1, bases.shape[-1]):
        vec /= np.linalg.norm(vec)
    probe_a = np.repeat(bases[0], 2, axis=0)[:, None]
    densities = []
    for pair, basis_b in zip(pairs, bases[1:]):
        phi = _environment_amplitudes(pair, probe_a, np.tile(basis_b, (2, 1))[:, None])
        densities.append(phi @ phi.conj().T)
    return np.array(densities)


def check_loss_density(losses):
    # the alpha = 1 row at every eta; eta = 0.1 and 0.9 tell E from B,
    # which a 50:50 splitter makes interchangeable
    alpha, etas, pairs = 1.0, _LOSS_ETAS, losses.pairs[1]
    projected = _projected_loss_densities(alpha, etas, pairs)
    closed = [decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix for eta in etas]
    return CheckResult("loss_density", np.max(np.abs(projected - closed)), 1e-9)


def _loss_purity(pair):
    """Tr rho_AB^2 of the lossy pair psi = sum_t A_t (x) T_t, taken as
    Tr rho_E^2 (psi is pure): the Frobenius sum |rho_E_ij|^2 of the
    Hermitian (n+1)-square rho_E = sum_tu <A_u|A_t> T_t^T conj(T_u)."""
    pair_a, pair_be = pair
    size = pair_be.shape[-1]
    # conj(sum_t <A_t|A_u> T_t), conjugated in place, not through a copy
    mixed = (pair_a.conj() @ pair_a.T) @ pair_be.reshape(2, -1)
    np.conjugate(mixed, out=mixed)
    rho_env = pair_be.reshape(-1, size).T @ mixed.reshape(-1, size)
    return float(np.vdot(rho_env, rho_env).real)


def check_loss_purity(losses):
    # the alpha = 1 row at every eta, as in check_loss_density
    alpha, dev = 1.0, 0.0
    for eta, pair in zip(_LOSS_ETAS, losses.pairs[1]):
        closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        closed = float(np.real(np.trace(closed_rho @ closed_rho)))
        dev = max(dev, abs(_loss_purity(pair) - closed))
    return CheckResult("loss_purity", dev, 1e-9)


def check_family_overlap(losses):
    # family_overlap_curve at each point, one build of each row's 7 probes
    dev = 0.0
    for alpha, n, pairs in zip(_LOSS_ALPHAS, losses.truncations, losses.pairs):
        betas = alpha * _FAMILY_SCALES
        probes = _family_probes(betas, n)
        for eta, pair in zip(_LOSS_ETAS, pairs):
            state = decoherence.apply_loss(alpha, decoherence.LossChannel(eta))
            closed = decoherence.fraction_over_family(state, betas)
            dev = max(dev, float(np.max(np.abs(closed - _probe_overlaps(pair, probes)))))
    return CheckResult("family_overlap", dev, 1e-9)


def check_optimal_beta(losses):
    # the oracle overlaps of each grid point at beta*(1 - h), beta* and
    # beta*(1 + h), (beta*, f*) from optimal_beta: the parabola's vertex
    # h (f- - f+) / (2 (f- - 2 f0 + f+)) is the oracle's peak offset
    # relative to beta*, and f0 meets f* as 1e-6 times _overlap_miss,
    # figure1_sweep's rule.  The offset's error shrinks as h^2, and below
    # h ~ 3e-5 rounding takes over.  One stack of 9 probes per amplitude
    h, dev = 3e-5, 0.0
    for alpha, n, pairs in zip(_LOSS_ALPHAS, losses.truncations, losses.pairs):
        optima = [decoherence.optimal_beta(alpha, decoherence.LossChannel(eta)) for eta in _LOSS_ETAS]
        betas = [beta * x for beta, _ in optima for x in (1.0 - h, 1.0, 1.0 + h)]
        # each point's three probes, as (3, 2, n + 1) views of the stack
        stacks = (mode.reshape(len(_LOSS_ETAS), 3, 2, -1) for mode in _family_probes(betas, n))
        for pair, (_, f_star), *probes in zip(pairs, optima, *stacks):
            low, mid, high = _probe_overlaps(pair, probes)
            vertex = abs(0.5 * h * (low - high) / (low - 2.0 * mid + high))
            # np.max, unlike max, passes a NaN on, and a NaN fails the check
            dev = np.max((dev, vertex, 1e-6 * decoherence._overlap_miss(mid, f_star)))
    return CheckResult("optimal_beta", dev, 1e-6)


def check_werner_spectrum(grid):
    # the mixture sum_i w_i |B_i><B_i| has the nonzero spectrum of
    # sqrt(W) G sqrt(W), W = diag(w) and G the Gram <B_i|B_j>: the grid's
    # Fock Grams at 6 weights F each, against the closed form at
    # kappa = exp(-2 alpha^2)
    fids = np.linspace(0.0, 1.0, 6)
    rest = (1.0 - fids) / 3.0
    root = np.sqrt(np.stack((rest, fids, rest, rest), axis=1))
    closed = [
        werner.quasi_werner_spectrum(werner.QuasiWerner(fid, coherent.overlap_of_amplitude(alpha)))
        for alpha in _ALPHA_GRID
        for fid in fids
    ]
    weighted = root[:, :, None] * grid.grams[:, None] * root[:, None, :]
    numeric = np.linalg.eigvalsh(weighted).reshape(len(closed), 4)[:, ::-1]
    return CheckResult("werner_spectrum", np.max(np.abs(numeric - closed)), 1e-10)


def run_all(truncation=None):
    """Run every cross-check.  ``truncation`` overrides the adequacy rule
    (too-small values raise) and so probes convergence: it changes the
    deviations, not only their pass/fail labels.  The grid states
    (_state_grid) and the lossy pairs (_loss_grid) are built once, each
    for the checks that read them."""
    grid = _state_grid(truncation)
    losses = _loss_grid(truncation)
    return [
        check_coherent_overlap(truncation),
        check_gram_matrix(grid),
        check_reduced_spectra(grid),
        check_unit_entropy(grid),
        check_mean_photons(truncation, grid),
        check_asymmetric_spectra(truncation),
        check_char_function(truncation),
        check_beam_splitter_rule(truncation),
        check_beam_splitter_unitary(),
        check_loss_density(losses),
        check_loss_purity(losses),
        check_family_overlap(losses),
        check_optimal_beta(losses),
        check_werner_spectrum(grid),
    ]
