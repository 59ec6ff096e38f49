"""Closed-form versus Fock-space cross-checks.

Each check builds states explicitly in the truncated number basis via
the fock module and compares a closed-form quantity against its
brute-force counterpart, reporting the largest deviation.  The
quasi-Bell checks read stacks of normalized product terms, each check's
states from one stacked fock._quasi_bell_terms build per truncation,
through fock's term kernels and form no two-mode vector or reduced
density.  One battery (run_all) builds the grid states, indices 1-4 at
each _ALPHA_GRID amplitude, once (_state_grid): their terms and each
amplitude's 4 x 4 Fock Gram <B_i|B_j>.  The Gram, reduced spectra,
unit entropy, mean photon and quasi-Werner checks take that grid as
their argument, each doing its own arithmetic, and nothing is kept
from one battery to the next.  The quasi-Werner check takes its
numeric spectrum from sqrt(W) G sqrt(W) over those Grams, the nonzero
spectrum of sum_i w_i |B_i><B_i| in the Fock space, against the
closed form at kappa = exp(-2 alpha^2).  The loss checks read one
lossy pair (_lossy_pair), the terms of |B2(alpha)> with mode B sent
through fock's vacuum-input splitter, through one environment
contraction (_environment_amplitudes); the splitter output and the
purity check's environment density are (N+1)-square, and no three-mode
state is formed.  The optimal-beta check reports the independent
maximizer search against the closed form as a deviation; the runtime
check that fails a sweep point on a mismatch belongs to
decoherence.figure1_sweep.
The CLI ``verify`` subcommand runs the whole battery.
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
    a stack of one of fock._quasi_bell_terms."""
    terms_a, terms_b = fock._quasi_bell_terms((coherent.CoherentQuasiBell(2, alpha),), n)
    return terms_a[0], terms_b[0]


def _lossy_pair(terms, eta):
    """The lossy pair: |B2(alpha)> = a (x) b + c (x) d, given as its
    _b2_terms, with mode B sent through the loss splitter, as stacked
    product terms (pair_a, pair_be) with psi = sum_t pair_a[t] (x)
    pair_be[t].  pair_a is the normalized mode-A terms and pair_be the
    (B, E) outputs of the mode-B terms from fock's vacuum-input splitter
    (fock._splitter_on_vacuum): the environment enters in its vacuum,
    and the splitter is unitary, so psi keeps the norm of |B2(alpha)>."""
    pair_a, terms_b = terms
    return pair_a, np.array([fock._splitter_on_vacuum(b, eta) for b in terms_b])


def _environment_amplitudes(pair, probe_a, probe_b):
    """<probe|_AB psi> for the _lossy_pair ``pair`` as one mode-E row per
    probe, each probe given as stacked product terms (probe_a[p, s],
    probe_b[p, s]) over modes A and B, shape (P, S, N+1).  Each
    probe's terms meet pair_a first, giving the mode-B vectors
    sum_s <probe_a[s]|pair_a[t]> conj(probe_b[s]) for each term t, and
    one matmul against pair_be sums t and b; neither a dense probe nor
    the (N+1)^3 three-mode state is formed."""
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
    """<probe| rho_AB |probe> of the _lossy_pair ``pair`` for each probe
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
    pair = _lossy_pair(_b2_terms(alpha, truncation), eta)
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
    # stacked build each at ``truncation``
    dev = _photon_deviation(
        [state for state in grid.quasi_bells if state.index in (1, 2)],
        [mode.reshape(len(_ALPHA_GRID), 4, 2, -1)[:, :2] for mode in grid.terms],
    )
    for alpha, beta in ((0.5, 1.5), (2.0, 0.6), (1.0, 0.0)):
        quasi_bells = [coherent.CoherentQuasiBell(index, alpha, beta) for index in (1, 2)]
        terms = fock._quasi_bell_terms(quasi_bells, truncation)
        dev = max(dev, _photon_deviation(quasi_bells, terms))
    return CheckResult("mean_photons", dev, 1e-9)


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
    # each amplitude pair's four states as one stacked build, at the
    # adequacy rule of the pair without a truncation, and one stacked
    # trace call over their 20 points each
    dev = 0.0
    for (alpha, beta), points in zip(((0.5, 0.5), (1.0, 0.6)), _char_points().reshape(2, 4, 2, -1)):
        quasi_bells = [coherent.CoherentQuasiBell(index, alpha, beta) for index in (1, 2, 3, 4)]
        closed = np.array([coherent._char_values(s, *zeta) for s, zeta in zip(quasi_bells, points)])
        za, zb = np.swapaxes(points, 0, 1)
        numeric = fock._char_traces(*fock._quasi_bell_terms(quasi_bells, truncation), za, zb)
        dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return CheckResult("char_function", dev, 1e-8)


def check_beam_splitter_rule(truncation):
    # the grid is symmetric about 1/2 with exact complements 1 - eta, so
    # |sqrt(1 - eta) alpha> is the target vector of the mirrored eta, and
    # the one at eta = 1 is |alpha>, the input: five vectors per amplitude,
    # one stacked build
    etas = (0.0, 0.25, 0.5, 0.75, 1.0)
    dev = 0.0
    for alpha in _ALPHA_GRID:
        targets = fock._coherent_vectors(np.sqrt(etas) * alpha, truncation)
        for eta, kept, lost in zip(etas, targets, targets[::-1]):
            sent = fock._splitter_on_vacuum(targets[-1], eta)
            fidelity = abs(np.vdot(np.outer(kept, lost), sent)) ** 2
            dev = max(dev, 1.0 - fidelity)
    return CheckResult("beam_splitter_rule", dev, 1e-9)


def check_beam_splitter_unitary():
    # a 21-level pair with a nonzero entry in each of its 41 sectors, so
    # every sector block is applied: the lattice's first two coordinates,
    # centred, as real and imaginary parts (k >= 1 keeps them off 1/2)
    parts = _lattice(21 * 21)[:, :2] - 0.5
    vec = (parts[:, 0] + 1j * parts[:, 1]).reshape(21, 21)
    vec /= np.linalg.norm(vec)
    dev = 0.0
    for eta in (0.2, 0.5, 0.8):
        out = fock.beam_splitter(vec, eta, check_tail=False)
        dev = max(dev, abs(np.linalg.norm(out) - 1.0))
    return CheckResult("beam_splitter_unitary", dev, 1e-12)


def _projected_loss_densities(alpha, etas, n):
    """The Fock-space rho_AB of the _lossy_pair at each transmissivity of
    ``etas`` projected onto the 4x4 basis of DecoheredState.matrix, shape
    (len(etas), 4, 4): phi phi+, with phi the environment amplitudes
    (_environment_amplitudes) of the four basis products a_i (x) b_j, a
    4 x (n+1) matrix; neither psi nor rho_AB is formed.  |B2(alpha)> is
    built once, and every mode's orthonormal pair (|g> +/- |-g>) / norm,
    g = alpha for A and sqrt(eta) alpha for B, comes from one
    fock._coherent_vectors call over all the +/-g.  Without a truncation
    n, both builds take the adequacy rule of alpha, the largest |g|."""
    alpha = _loss_amplitude(alpha)
    terms = _b2_terms(alpha, n)
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
    for eta, basis_b in zip(etas, bases[1:]):
        phi = _environment_amplitudes(
            _lossy_pair(terms, eta), probe_a, np.tile(basis_b, (2, 1))[:, None]
        )
        densities.append(phi @ phi.conj().T)
    return np.array(densities)


def check_loss_density(truncation):
    alpha, etas = 1.0, (0.3, 0.7)
    projected = _projected_loss_densities(alpha, etas, truncation)
    closed = [decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix for eta in etas]
    return CheckResult("loss_density", np.max(np.abs(projected - closed)), 1e-9)


def _loss_purity(terms, eta):
    """Tr rho_AB^2 of the _lossy_pair of the _b2_terms ``terms``, taken
    on the environment: psi = sum_t A_t (x) T_t is pure, so
    Tr rho_AB^2 = Tr rho_E^2 (Schmidt decomposition), and the
    (n+1)-square rho_E = sum_tu <A_u|A_t> T_t^T conj(T_u) is Hermitian,
    so that is the Frobenius sum |rho_E_ij|^2."""
    pair_a, pair_be = _lossy_pair(terms, eta)
    size = pair_be.shape[-1]
    # conj(sum_t <A_t|A_u> T_t), conjugated in place, not through a copy
    mixed = (pair_a.conj() @ pair_a.T) @ pair_be.reshape(2, -1)
    np.conjugate(mixed, out=mixed)
    rho_env = pair_be.reshape(-1, size).T @ mixed.reshape(-1, size)
    return float(np.vdot(rho_env, rho_env).real)


def check_loss_purity(truncation):
    alpha = 1.0
    terms = _b2_terms(alpha, truncation)
    dev = 0.0
    # eta = 0.3 tells E from B, which a 50:50 splitter makes interchangeable
    for eta in (0.3, 0.5):
        numeric = _loss_purity(terms, eta)
        closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        closed = float(np.real(np.trace(closed_rho @ closed_rho)))
        dev = max(dev, abs(numeric - closed))
    return CheckResult("loss_purity", dev, 1e-9)


def check_family_overlap(truncation):
    # family_overlap_curve with each amplitude's seven probes built once
    # and read by all three lossy pairs; the middle probe, beta = 1.0 alpha
    # exactly, is |B2(alpha)> itself, so its terms are the pairs' input
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0):
        betas = alpha * np.linspace(0.25, 1.75, 7)
        probe_a, probe_b = probes = _family_probes(betas, truncation)
        for eta in (0.1, 0.5, 0.9):
            state = decoherence.apply_loss(alpha, decoherence.LossChannel(eta))
            closed = decoherence.fraction_over_family(state, betas)
            numeric = _probe_overlaps(_lossy_pair((probe_a[3], probe_b[3]), eta), probes)
            dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return CheckResult("family_overlap", dev, 1e-9)


def check_optimal_beta():
    # beta* and f* come from one pass of decoherence._optimum, the
    # elementwise form of optimal_beta, over the 90 points, and one
    # batched search_optimal_beta call runs over all of them.  Each rule
    # is reported on the position rule's 1e-6 scale: the overlap as 1e-6
    # times _overlap_miss, the rule on which figure1_sweep fails a point.
    # The position is compared from alpha = 0.3 up: the overlap peak
    # flattens like exp(-(2/3) c^2 (b - b*)^2) with c = alpha (1 +
    # sqrt(eta)), so below that b* is not conditioned past rounding.
    alphas, etas = (
        grid.ravel()
        for grid in np.meshgrid(np.linspace(0.3, 3.0, 10), np.linspace(0.1, 0.9, 9), indexing="ij")
    )
    beta_star, f_star = decoherence._optimum(alphas, etas)
    beta_num, f_num = decoherence.search_optimal_beta(alphas, etas)
    position = np.max(np.abs(beta_num - beta_star) / beta_star)
    overlap = 1e-6 * np.max(decoherence._overlap_miss(f_num, f_star))
    # np.maximum, unlike max, passes a NaN on, and a NaN fails the check
    return CheckResult("optimal_beta", np.maximum(position, overlap), 1e-6)


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
    deviations, not only their pass/fail labels.  The grid states are
    built once (_state_grid) and passed to the five checks that read
    them."""
    grid = _state_grid(truncation)
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
        check_loss_density(truncation),
        check_loss_purity(truncation),
        check_family_overlap(truncation),
        check_optimal_beta(),
        check_werner_spectrum(grid),
    ]
