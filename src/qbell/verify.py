"""Closed-form versus Fock-space cross-checks.

Each check builds states explicitly in the truncated number basis via
the fock module and compares a closed-form quantity against its
brute-force counterpart, reporting the largest deviation.  The
quasi-Bell checks read each state's two normalized product terms
(fock._quasi_bell_terms) through fock's term kernels and form no
two-mode vector or reduced density.  The loss checks read one
normalized lossy pair (_lossy_pair) through one environment contraction
(_environment_amplitudes); the splitter output and the purity check's
environment density are (N+1)-square, and no three-mode state is
formed.  The optimal-beta check reports the independent maximizer
search against the closed form as a deviation; the runtime check that
fails a sweep point on a mismatch belongs to decoherence.figure1_sweep.
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


def _lossy_pair(alpha, eta, n):
    """The lossy pair psi = (plus (x) BS(minus, 0) - minus (x) BS(plus, 0))
    / |psi| on modes (A, B, E), plus and minus = |+/-alpha>, as stacked
    product terms (pair_a, pair_be) with psi = sum_t pair_a[t] (x)
    pair_be[t]: pair_a = (plus, -minus) / |psi| over mode A, so the sign
    and the norm sit on the small side, and pair_be = (BS(minus, 0),
    BS(plus, 0)) over (B, E).  Photon-number parity gives both minus
    terms from the plus ones: |-alpha> is the parity image of |alpha>,
    and the splitter commutes with the total parity, so BS(minus, 0) is
    BS(plus, 0) with entry (b, e) times (-1)^(b+e), bit for bit; one
    splitter call serves both.  |psi|^2 = sum_kl <A_k|A_l> <T_k|T_l>
    over the two 2 x 2 term Grams.  The splitter is fock's vacuum-input
    kernel (fock._splitter_on_vacuum): the environment enters in its
    vacuum."""
    plus = fock.coherent_vector(alpha, n)
    be_of_plus = fock._splitter_on_vacuum(plus, eta)
    pair_a = np.array((plus, -fock._parity(plus)))
    pair_be = np.array((fock._parity(be_of_plus), be_of_plus))
    flat_be = pair_be.reshape(2, -1)
    pair_a /= math.sqrt(((pair_a.conj() @ pair_a.T) * (flat_be.conj() @ flat_be.T)).sum().real)
    return pair_a, pair_be


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
    kept as its two normalized terms (fock._quasi_bell_terms)."""
    probes = [
        fock._quasi_bell_terms(coherent.CoherentQuasiBell(2, beta), truncation)
        for beta in betas
    ]
    return tuple(np.array(mode) for mode in zip(*probes))


def _probe_overlaps(pair, probes):
    """<probe| rho_AB |probe> of the _lossy_pair ``pair`` for each probe
    of a _family_probes stack: the squared norm of its environment
    amplitudes."""
    return np.sum(np.abs(_environment_amplitudes(pair, *probes)) ** 2, axis=1)


def family_overlap_curve(alpha, eta, betas, truncation=None):
    """<B2(beta)| rho_AB |B2(beta)> at each comparison amplitude beta,
    computed entirely in the number basis (_probe_overlaps)."""
    alpha = _loss_amplitude(alpha)
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.size == 0 or not np.all(np.isfinite(betas)):
        raise ValueError(f"comparison amplitudes must be a nonempty finite list, got {betas}")
    if truncation is None:
        truncation = fock.adequate_truncation(max(abs(alpha), betas.max()))
    return _probe_overlaps(_lossy_pair(alpha, eta, truncation), _family_probes(betas, truncation))


_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 3.0)


def check_coherent_overlap(truncation):
    dev = 0.0
    for alpha in _ALPHA_GRID:
        vec_p = fock.coherent_vector(alpha, truncation)
        vec_m = fock.coherent_vector(-alpha, truncation)
        numeric = np.vdot(vec_p, vec_m).real
        dev = max(dev, abs(numeric - coherent.overlap_of_amplitude(alpha)))
    return CheckResult("coherent_overlap", dev, 1e-12)


def check_gram_matrix(truncation):
    # <B_i|B_j> = sum_st <a_s|a_t> <b_s|b_t> over the two normalized
    # terms s of state i and t of state j, from one 8 x 8 Gram per mode
    dev = 0.0
    for alpha in _ALPHA_GRID:
        kappa = coherent.overlap_of_amplitude(alpha)
        closed = states.gram_matrix(kappa)
        terms = [
            fock._quasi_bell_terms(coherent.CoherentQuasiBell(i, alpha), truncation)
            for i in (1, 2, 3, 4)
        ]
        stack_a, stack_b = (np.concatenate(mode) for mode in zip(*terms))
        products = (stack_a.conj() @ stack_a.T) * (stack_b.conj() @ stack_b.T)
        numeric = np.abs(products.reshape(4, 2, 4, 2).sum(axis=(1, 3)))
        dev = max(dev, float(np.max(np.abs(numeric - closed))))
    return CheckResult("gram_matrix", dev, 1e-10)


def check_reduced_spectra(truncation):
    # rho_A of each state has rank 2, so its spectrum is that of its 2 x 2
    # core (fock._reduced_core), taken over the stacked terms of a grid
    # point's four states; the 20 cores take one stacked eigvalsh
    closed, cores = [], []
    for alpha in _ALPHA_GRID:
        quasi_bells = [coherent.CoherentQuasiBell(index, alpha) for index in (1, 2, 3, 4)]
        closed.extend(coherent.coherent_spectrum(state) for state in quasi_bells)
        terms_a, terms_b = zip(*(fock._quasi_bell_terms(s, truncation) for s in quasi_bells))
        cores.extend(fock._reduced_core(np.stack(terms_a), np.stack(terms_b), 0))
    lam = np.linalg.eigvalsh(np.array(cores))[:, ::-1]
    return CheckResult("reduced_spectra", np.max(np.abs(lam - np.array(closed))), 1e-9)


def check_unit_entropy(truncation):
    dev = 0.0
    for alpha in _ALPHA_GRID:
        for index in (2, 4):
            terms = fock._quasi_bell_terms(coherent.CoherentQuasiBell(index, alpha), truncation)
            entropy = fock.von_neumann_entropy(fock._reduced_core(*terms, 0))
            dev = max(dev, abs(entropy - 1.0))
    return CheckResult("unit_entropy", dev, 1e-9)


def check_mean_photons(truncation):
    dev = 0.0
    pairs = [(a, a) for a in _ALPHA_GRID] + [(0.5, 1.5), (2.0, 0.6), (1.0, 0.0)]
    for alpha, beta in pairs:
        for index in (1, 2):
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            terms = fock._quasi_bell_terms(state, truncation)
            for mode, closed in enumerate(coherent.mean_photon_numbers(state)):
                dev = max(dev, abs(fock._mean_photon(*terms, mode) - closed))
    return CheckResult("mean_photons", dev, 1e-9)


def check_asymmetric_spectra(truncation):
    dev = 0.0
    pairs = [(a, b) for a in (0.3, 1.0, 2.0) for b in (0.5, 1.0, 1.5)]
    for alpha, beta in pairs:
        closed = coherent.asymmetric_spectrum(alpha, beta, 2)
        terms = fock._quasi_bell_terms(coherent.CoherentQuasiBell(2, alpha, beta), truncation)
        lam = np.linalg.eigvalsh(fock._reduced_core(*terms, 0))[::-1]
        dev = max(dev, float(np.max(np.abs(lam - closed))))
    return CheckResult("asymmetric_spectra", dev, 1e-10)


def _char_points(rng):
    """A state's 20 random points (za, zb), every real and imaginary
    part uniform on [-1.5, 1.5), from one draw that takes, point by
    point, the real parts of za and zb, then their imaginary parts."""
    draws = rng.uniform(-1.5, 1.5, (20, 2, 2))
    return (draws[:, 0] + 1j * draws[:, 1]).T


def check_char_function(truncation):
    rng = np.random.default_rng(11)
    dev = 0.0
    for alpha, beta in ((0.5, 0.5), (1.0, 0.6)):
        for index in (1, 2, 3, 4):
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            za, zb = _char_points(rng)
            closed = coherent._char_values(state, za, zb)
            numeric = fock._char_traces(*fock._quasi_bell_terms(state, truncation), za, zb)
            dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return CheckResult("char_function", dev, 1e-8)


def check_beam_splitter_rule(truncation):
    # the grid is symmetric about 1/2 with exact complements 1 - eta, so
    # |sqrt(1 - eta) alpha> is the target vector of the mirrored eta, and
    # the one at eta = 1 is |alpha>, the input: five vectors per amplitude
    etas = (0.0, 0.25, 0.5, 0.75, 1.0)
    dev = 0.0
    for alpha in _ALPHA_GRID:
        n = truncation or fock.adequate_truncation(alpha)
        targets = [fock.coherent_vector(np.sqrt(eta) * alpha, n) for eta in etas]
        for eta, kept, lost in zip(etas, targets, targets[::-1]):
            sent = fock._splitter_on_vacuum(targets[-1], eta)
            fidelity = abs(np.vdot(np.outer(kept, lost), sent)) ** 2
            dev = max(dev, 1.0 - fidelity)
    return CheckResult("beam_splitter_rule", dev, 1e-9)


def check_beam_splitter_unitary():
    rng = np.random.default_rng(3)
    vec = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    vec /= np.linalg.norm(vec)
    dev = 0.0
    for eta in (0.2, 0.5, 0.8):
        out = fock.beam_splitter(vec, eta, check_tail=False)
        dev = max(dev, abs(np.linalg.norm(out) - 1.0))
    return CheckResult("beam_splitter_unitary", dev, 1e-12)


def _orthonormal_pair(alpha, truncation):
    """Fock vectors of the orthonormal basis built from span{|a>, |-a>}."""
    up = fock.coherent_vector(alpha, truncation)
    down = fock._parity(up)
    plus, minus = up + down, up - down
    return plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)


def _projected_loss_density(alpha, eta, n):
    """The Fock-space rho_AB of the _lossy_pair projected onto the 4x4
    basis of DecoheredState.matrix: phi phi+, with phi the environment
    amplitudes (_environment_amplitudes) of the four basis products
    a_i (x) b_j, a 4 x (n+1) matrix; neither psi nor rho_AB is formed."""
    alpha = _loss_amplitude(alpha)
    basis_a = np.stack(_orthonormal_pair(alpha, n))
    basis_b = np.stack(_orthonormal_pair(np.sqrt(eta) * alpha, n))
    phi = _environment_amplitudes(
        _lossy_pair(alpha, eta, n),
        np.repeat(basis_a, 2, axis=0)[:, None],
        np.tile(basis_b, (2, 1))[:, None],
    )
    return phi @ phi.conj().T


def check_loss_density(truncation):
    alpha = 1.0
    n = truncation or fock.adequate_truncation(alpha)
    dev = 0.0
    for eta in (0.3, 0.7):
        projected = _projected_loss_density(alpha, eta, n)
        closed = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        dev = max(dev, float(np.max(np.abs(projected - closed))))
    return CheckResult("loss_density", dev, 1e-9)


def _loss_purity(alpha, eta, n):
    """Tr rho_AB^2 of the _lossy_pair, taken on the environment: psi =
    sum_t A_t (x) T_t is pure, so Tr rho_AB^2 = Tr rho_E^2 (Schmidt
    decomposition), and the (n+1)-square rho_E = sum_tu <A_u|A_t> T_t^T
    conj(T_u) is Hermitian, so that is the Frobenius sum |rho_E_ij|^2."""
    pair_a, pair_be = _lossy_pair(alpha, eta, n)
    # conj(sum_t <A_t|A_u> T_t), conjugated in place, not through a copy
    mixed = (pair_a.conj() @ pair_a.T) @ pair_be.reshape(2, -1)
    np.conjugate(mixed, out=mixed)
    rho_env = pair_be.reshape(-1, n + 1).T @ mixed.reshape(-1, n + 1)
    return float(np.vdot(rho_env, rho_env).real)


def check_loss_purity(truncation):
    alpha = 1.0
    n = truncation or fock.adequate_truncation(alpha)
    dev = 0.0
    # eta = 0.3 tells E from B, which a 50:50 splitter makes interchangeable
    for eta in (0.3, 0.5):
        numeric = _loss_purity(alpha, eta, n)
        closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        closed = float(np.real(np.trace(closed_rho @ closed_rho)))
        dev = max(dev, abs(numeric - closed))
    return CheckResult("loss_purity", dev, 1e-9)


def check_family_overlap(truncation):
    # family_overlap_curve with each amplitude's seven probes built once
    # and read by all three lossy pairs
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0):
        betas = np.linspace(0.25 * alpha, 1.75 * alpha, 7)
        n = truncation or fock.adequate_truncation(betas.max())
        probes = _family_probes(betas, n)
        for eta in (0.1, 0.5, 0.9):
            state = decoherence.apply_loss(alpha, decoherence.LossChannel(eta))
            closed = decoherence.fraction_over_family(state, betas)
            numeric = _probe_overlaps(_lossy_pair(alpha, eta, n), probes)
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


def check_werner_spectrum():
    specs = [
        werner.QuasiWerner(fid, kappa)
        for fid in np.linspace(0.0, 1.0, 6)
        for kappa in np.linspace(0.0, 0.9, 6)
    ]
    closed = np.array([werner.quasi_werner_spectrum(spec) for spec in specs])
    numeric = np.linalg.eigvalsh(np.stack([werner.build_quasi_werner(spec) for spec in specs]))
    return CheckResult("werner_spectrum", np.max(np.abs(closed - numeric[:, ::-1])), 1e-10)


def run_all(truncation=None):
    """Run every cross-check.  ``truncation`` overrides the adequacy rule
    (too-small values raise) and so probes convergence: it changes the
    deviations, not only their pass/fail labels."""
    return [
        check_coherent_overlap(truncation),
        check_gram_matrix(truncation),
        check_reduced_spectra(truncation),
        check_unit_entropy(truncation),
        check_mean_photons(truncation),
        check_asymmetric_spectra(truncation),
        check_char_function(truncation),
        check_beam_splitter_rule(truncation),
        check_beam_splitter_unitary(),
        check_loss_density(truncation),
        check_loss_purity(truncation),
        check_family_overlap(truncation),
        check_optimal_beta(),
        check_werner_spectrum(),
    ]
