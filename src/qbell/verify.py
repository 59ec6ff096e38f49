"""Closed-form versus Fock-space cross-checks.

Each check builds states explicitly in the truncated number basis (via
the fock module) and compares a closed-form quantity against its
brute-force counterpart, reporting the largest deviation.  The CLI
``verify`` subcommand runs the whole battery.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherent, decoherence, fock, states, werner

__all__ = [
    "CheckResult",
    "run_all",
    "lossy_pair_fock",
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


def _lossy_terms(alpha, eta, truncation):
    """The pieces of the unnormalized lossy pair
    psi = plus (x) BS(minus, 0) - minus (x) BS(plus, 0) on modes (A, B, E):
    the mode-A vectors |alpha> and |-alpha>, then the (B, E) outputs of
    the loss beam splitter on |-alpha>|0> and on |alpha>|0>.  Photon-number
    parity gives both minus terms from the plus ones: |-alpha> is the
    parity image of |alpha>, and the splitter commutes with the total
    parity, so BS(minus, 0) is BS(plus, 0) with entry (b, e) times
    (-1)^(b+e), bit for bit; one splitter call serves both."""
    vac = np.zeros(truncation + 1, dtype=complex)
    vac[0] = 1.0
    plus = fock.coherent_vector(alpha, truncation)
    be_of_plus = fock.beam_splitter(np.outer(plus, vac), eta)
    return plus, fock._parity(plus), fock._parity(be_of_plus), be_of_plus


def _pair_norm_sq(plus, minus, be_of_minus, be_of_plus):
    """|psi|^2 of the lossy pair from its _lossy_terms:

        |plus|^2 |BS(minus)|^2 + |minus|^2 |BS(plus)|^2
            - 2 Re(<plus|minus> <BS(minus)|BS(plus)>).
    """
    return (
        np.vdot(plus, plus).real * np.vdot(be_of_minus, be_of_minus).real
        + np.vdot(minus, minus).real * np.vdot(be_of_plus, be_of_plus).real
        - 2.0 * (np.vdot(plus, minus) * np.vdot(be_of_minus, be_of_plus)).real
    )


def lossy_pair_fock(alpha, eta, truncation=None):
    """Three-mode (A, B, E) state: the antisymmetric entangled coherent
    state with mode B passed through the loss channel, built from fock
    primitives only."""
    alpha = _loss_amplitude(alpha)
    if truncation is None:
        truncation = fock.adequate_truncation(alpha)
    plus, minus, be_of_minus, be_of_plus = _lossy_terms(alpha, eta, truncation)
    psi = plus[:, None, None] * be_of_minus - minus[:, None, None] * be_of_plus
    return psi / np.linalg.norm(psi)


def family_overlap_curve(alpha, eta, betas, truncation=None):
    """<B2(beta)| rho_AB |B2(beta)> at each comparison amplitude beta,
    computed entirely in the number basis.  Each probe is kept as its
    two product terms u (x) v (fock._quasi_bell_terms) and contracted
    with mode A of the lossy pair's two terms first: a mode-A vector x
    gives the mode-B vector x . conj(probe) = sum (x . u*) v* / norm, so
    the environment weights are

        w = (plus . P*) BS(minus) - (minus . P*) BS(plus),

    and neither a dense probe nor the (N+1)^3 three-mode state is
    formed; sum |w|^2 is divided by _pair_norm_sq.
    """
    alpha = _loss_amplitude(alpha)
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.size == 0 or not np.all(np.isfinite(betas)):
        raise ValueError(f"comparison amplitudes must be a nonempty finite list, got {betas}")
    if truncation is None:
        truncation = fock.adequate_truncation(max(abs(alpha), betas.max()))
    plus, minus, be_of_minus, be_of_plus = _lossy_terms(alpha, eta, truncation)
    probes = [
        fock._quasi_bell_terms(coherent.CoherentQuasiBell(2, beta), truncation)
        for beta in betas
    ]
    # the conjugated vectors of every probe term, indexed (beta, term, mode, n)
    vecs = np.array([terms for terms, _ in probes]).conj()
    scale = 1.0 / np.array([norm for _, norm in probes])[:, None]

    def contracted(mode_a):
        return np.sum((vecs[:, :, 0] @ mode_a)[:, :, None] * vecs[:, :, 1], axis=1) * scale

    weights = contracted(plus) @ be_of_minus - contracted(minus) @ be_of_plus
    norm_sq = _pair_norm_sq(plus, minus, be_of_minus, be_of_plus)
    return np.sum(np.abs(weights) ** 2, axis=1) / norm_sq


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
    dev = 0.0
    for alpha in _ALPHA_GRID:
        kappa = coherent.overlap_of_amplitude(alpha)
        closed = states.gram_matrix(kappa)
        vecs = [
            fock.quasi_bell_fock(coherent.CoherentQuasiBell(i, alpha), truncation)
            for i in (1, 2, 3, 4)
        ]
        numeric = np.array(
            [[abs(np.vdot(vi, vj)) for vj in vecs] for vi in vecs]
        )
        dev = max(dev, float(np.max(np.abs(numeric - closed))))
    return CheckResult("gram_matrix", dev, 1e-10)


def check_reduced_spectra(truncation):
    dev = 0.0
    for alpha in _ALPHA_GRID:
        for index in (1, 2, 3, 4):
            state = coherent.CoherentQuasiBell(index, alpha)
            closed = coherent.coherent_spectrum(state)
            vec = fock.quasi_bell_fock(state, truncation)
            rho = fock.partial_trace(vec, keep=(0,))
            lam = np.sort(np.linalg.eigvalsh(rho))[::-1][:2]
            dev = max(dev, float(np.max(np.abs(lam - closed))))
    return CheckResult("reduced_spectra", dev, 1e-9)


def check_unit_entropy(truncation):
    dev = 0.0
    for alpha in _ALPHA_GRID:
        for index in (2, 4):
            vec = fock.quasi_bell_fock(
                coherent.CoherentQuasiBell(index, alpha), truncation
            )
            entropy = fock.von_neumann_entropy(fock.partial_trace(vec, keep=(0,)))
            dev = max(dev, abs(entropy - 1.0))
    return CheckResult("unit_entropy", dev, 1e-9)


def check_mean_photons(truncation):
    dev = 0.0
    pairs = [(a, a) for a in _ALPHA_GRID] + [(0.5, 1.5), (2.0, 0.6), (1.0, 0.0)]
    for alpha, beta in pairs:
        for index in (1, 2):
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            vec = fock.quasi_bell_fock(state, truncation)
            for mode, closed in enumerate(coherent.mean_photon_numbers(state)):
                numeric = fock.mean_photon(fock.partial_trace(vec, keep=(mode,)))
                dev = max(dev, abs(numeric - closed))
    return CheckResult("mean_photons", dev, 1e-9)


def check_asymmetric_spectra(truncation):
    dev = 0.0
    pairs = [(a, b) for a in (0.3, 1.0, 2.0) for b in (0.5, 1.0, 1.5)]
    for alpha, beta in pairs:
        closed = coherent.asymmetric_spectrum(alpha, beta, 2)
        vec = fock.quasi_bell_fock(
            coherent.CoherentQuasiBell(2, alpha, beta), truncation
        )
        rho = fock.partial_trace(vec, keep=(0,))
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1][:2]
        dev = max(dev, float(np.max(np.abs(lam - closed))))
    return CheckResult("asymmetric_spectra", dev, 1e-10)


def check_char_function(truncation):
    rng = np.random.default_rng(11)
    dev = 0.0
    for alpha, beta in ((0.5, 0.5), (1.0, 0.6)):
        for index in (1, 2, 3, 4):
            state = coherent.CoherentQuasiBell(index, alpha, beta)
            vec = fock.quasi_bell_fock(state, truncation)
            # the state's 20 random points in one call on each side
            za, zb = np.array([
                rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2) for _ in range(20)
            ]).T
            closed = coherent._char_values(state, za, zb)
            dev = max(dev, float(np.max(np.abs(closed - fock._char_traces(vec, za, zb)))))
    return CheckResult("char_function", dev, 1e-8)


def check_beam_splitter_rule(truncation):
    dev = 0.0
    for alpha in _ALPHA_GRID:
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
            size = (truncation or fock.adequate_truncation(alpha)) + 1
            vac = np.zeros(size, dtype=complex)
            vac[0] = 1.0
            sent = fock.beam_splitter(
                np.outer(fock.coherent_vector(alpha, size - 1), vac), eta
            )
            target = np.outer(
                fock.coherent_vector(np.sqrt(eta) * alpha, size - 1),
                fock.coherent_vector(np.sqrt(1.0 - eta) * alpha, size - 1),
            )
            fidelity = abs(np.vdot(target, sent)) ** 2
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
    """The Fock-space rho_AB of lossy_pair_fock projected onto the 4x4
    basis of DecoheredState.matrix, built from the pair's two terms.
    With psi = plus (x) BS(minus) - minus (x) BS(plus), the (A, B) x E
    amplitude matrix projected onto the basis is

        phi_(ij) = <a_i|plus> <b_j|BS(minus) - <a_i|minus> <b_j|BS(plus),

    a 4 x (n+1) matrix, and the projection of rho_AB = M M+ is
    phi phi+ / |psi|^2 (_pair_norm_sq); neither psi nor rho_AB is formed."""
    alpha = _loss_amplitude(alpha)
    plus, minus, be_of_minus, be_of_plus = _lossy_terms(alpha, eta, n)
    basis_a = np.stack(_orthonormal_pair(alpha, n)).conj()
    basis_b = np.stack(_orthonormal_pair(np.sqrt(eta) * alpha, n)).conj()
    phi = (
        np.multiply.outer(basis_a @ plus, basis_b @ be_of_minus)
        - np.multiply.outer(basis_a @ minus, basis_b @ be_of_plus)
    ).reshape(4, -1)
    return (phi @ phi.conj().T) / _pair_norm_sq(plus, minus, be_of_minus, be_of_plus)


def check_loss_density(truncation):
    alpha = 1.0
    n = truncation or fock.adequate_truncation(alpha)
    dev = 0.0
    for eta in (0.3, 0.7):
        projected = _projected_loss_density(alpha, eta, n)
        closed = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        dev = max(dev, float(np.max(np.abs(projected - closed))))
    return CheckResult("loss_density", dev, 1e-9)


def check_loss_purity(truncation):
    alpha = 1.0
    n = truncation or fock.adequate_truncation(alpha)
    dev = 0.0
    # eta = 0.3 tells E from B, which a 50:50 splitter makes interchangeable
    for eta in (0.3, 0.5):
        plus, minus, be_of_minus, be_of_plus = _lossy_terms(alpha, eta, n)
        # psi = sum_k A_k (x) T_k over (A, T) = (plus, BS(minus)) and
        # (minus, -BS(plus)) is pure, so rho_AB and rho_E share their
        # nonzero spectrum (Schmidt decomposition) and Tr rho_AB^2 =
        # Tr rho_E^2.  Tracing A and B from the terms gives
        # rho_E = sum_kl <A_l|A_k> T_k^T conj(T_l) / |psi|^2, an
        # (n+1)-square matrix, and rho_E is Hermitian, so Tr rho_E^2 is
        # the Frobenius sum of |rho_E_ij|^2
        terms = ((plus, be_of_minus), (minus, -be_of_plus))
        rho_env = sum(
            np.vdot(a_l, a_k) * (t_k.T @ t_l.conj())
            for a_k, t_k in terms
            for a_l, t_l in terms
        ) / _pair_norm_sq(plus, minus, be_of_minus, be_of_plus)
        numeric = float(np.vdot(rho_env, rho_env).real)
        closed_rho = decoherence.apply_loss(alpha, decoherence.LossChannel(eta)).matrix
        closed = float(np.real(np.trace(closed_rho @ closed_rho)))
        dev = max(dev, abs(numeric - closed))
    return CheckResult("loss_purity", dev, 1e-9)


def check_family_overlap(truncation):
    dev = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for eta in (0.1, 0.5, 0.9):
            state = decoherence.apply_loss(alpha, decoherence.LossChannel(eta))
            betas = np.linspace(0.25 * alpha, 1.75 * alpha, 7)
            closed = decoherence.fraction_over_family(state, betas)
            numeric = family_overlap_curve(alpha, eta, betas, truncation)
            dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return CheckResult("family_overlap", dev, 1e-9)


def check_optimal_beta():
    # beta* and f* come from one pass of decoherence._optimum, the
    # elementwise form of optimal_beta, over the 90 points, and one
    # batched search_optimal_beta call runs over all of them,
    # raising a MaximizerError past the 1e-9 relative overlap rule that
    # optimal_beta(verify=True) applies.  The position deviation is
    # reported from alpha = 0.3 up: the overlap peak flattens like
    # exp(-(2/3) c^2 (b - b*)^2) with c = alpha (1 + sqrt(eta)), so below
    # that b* is not conditioned past rounding.
    alphas, etas = (
        grid.ravel()
        for grid in np.meshgrid(np.linspace(0.3, 3.0, 10), np.linspace(0.1, 0.9, 9), indexing="ij")
    )
    beta_star, f_star = decoherence._optimum(alphas, etas)
    beta_num, _ = decoherence._searched_maximum(alphas, etas, beta_star, f_star)
    return CheckResult("optimal_beta", np.max(np.abs(beta_num - beta_star) / beta_star), 1e-6)


def check_werner_spectrum():
    dev = 0.0
    for fid in np.linspace(0.0, 1.0, 6):
        for kappa in np.linspace(0.0, 0.9, 6):
            spec = werner.QuasiWerner(fid, kappa)
            closed = werner.quasi_werner_spectrum(spec)
            numeric = np.sort(np.linalg.eigvalsh(werner.build_quasi_werner(spec)))[::-1]
            dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return CheckResult("werner_spectrum", dev, 1e-10)


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
