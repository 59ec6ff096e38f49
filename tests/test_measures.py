import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from qbell import measures, states


def random_density(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return c / np.linalg.norm(c)


SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)


def _max_entangled(u):
    """Maximally entangled state (I x U)|Phi+> for U = exp(-i u.sigma)."""
    theta = np.linalg.norm(u)
    if theta < 1e-300:
        mat = np.eye(2, dtype=complex)
    else:
        n = u / theta
        mat = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * np.array(
            [[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]]
        )
    # (I x U)|Phi+> in the |00>,|01>,|10>,|11> ordering
    return np.array([mat[0, 0], mat[1, 0], mat[0, 1], mat[1, 1]]) / np.sqrt(2.0)


def maximized_fef(rho, starts=8, seed=7, tol=1e-12):
    """Reference fully entangled fraction: multi-start L-BFGS-B search of
    the overlap over the three SU(2) parameters of (I x U)|Phi+>, with a
    fixed seed so repeated calls agree."""
    rho = measures.validate_density(rho)

    def negative_overlap(u):
        e = _max_entangled(u)
        return -float(np.real(np.conj(e) @ rho @ e))

    rng = np.random.default_rng(seed)
    x0s = [np.zeros(3)] + [rng.uniform(-np.pi / 2, np.pi / 2, 3) for _ in range(starts - 1)]
    best = -np.inf
    converged = False
    for x0 in x0s:
        res = minimize(negative_overlap, x0, method="L-BFGS-B",
                       options={"ftol": tol, "gtol": 1e-11, "maxiter": 500})
        if np.isfinite(res.fun):
            best = max(best, -res.fun)
            converged = converged or res.success
    assert converged, f"reference maximizer did not converge (best {best})"
    return min(1.0, best)


def test_binary_entropy_values():
    assert measures.binary_entropy(0.5) == 1.0
    assert measures.binary_entropy(1.0) == 0.0
    assert measures.binary_entropy(0.0) == 0.0
    direct = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert measures.binary_entropy(0.9) == pytest.approx(direct, abs=1e-15)
    with pytest.raises(ValueError):
        measures.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        measures.binary_entropy(1.01)


def test_binary_entropy_symmetric_concave():
    xs = np.linspace(0.0, 1.0, 101)
    h = np.array([measures.binary_entropy(x) for x in xs])
    assert np.allclose(h, h[::-1], atol=1e-12)
    # midpoint concavity on interior triples
    for i in range(1, 99):
        assert h[i] >= 0.5 * (h[i - 1] + h[i + 1]) - 1e-12


def test_concurrence_pure():
    assert measures.concurrence_pure(SINGLET) == pytest.approx(1.0, abs=1e-12)
    assert measures.concurrence_pure([1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-15)
    c = states.embed_qubit(states.QuasiBell(1, 0.5))
    # 2 sqrt(lam1 lam2) with spectrum {0.9, 0.1}
    assert measures.concurrence_pure(c) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        measures.concurrence_pure([1, 1, 0, 0])


def test_concurrence_entropy_relation():
    rng = np.random.default_rng(5)
    for _ in range(200):
        psi = random_pure(rng)
        c = measures.concurrence_pure(psi)
        ent = measures.binary_entropy(0.5 * (1 + np.sqrt(1 - c**2)))
        rho_a = psi.reshape(2, 2) @ psi.reshape(2, 2).conj().T
        lam = np.linalg.eigvalsh(rho_a)
        direct = measures.binary_entropy(float(np.clip(lam[-1], 0, 1)))
        assert abs(ent - direct) < 1e-9


def test_eof_wootters_examples():
    assert measures.eof_wootters(np.outer(SINGLET, SINGLET.conj())) == pytest.approx(
        1.0, abs=1e-12
    )
    # Werner mixtures of the singlet at fidelities 0.8 and 0.4
    for fid, expected in ((0.8, measures.binary_entropy(0.9)), (0.4, 0.0)):
        rho = fid * np.outer(SINGLET, SINGLET.conj()) + (1 - fid) / 3 * (
            np.eye(4) - np.outer(SINGLET, SINGLET.conj())
        )
        assert measures.eof_wootters(rho) == pytest.approx(expected, abs=1e-9)


def test_eof_wootters_matches_entropy_on_pure_states():
    rng = np.random.default_rng(6)
    for _ in range(200):
        psi = random_pure(rng)
        c = measures.concurrence_pure(psi)
        expected = measures.binary_entropy(0.5 * (1 + np.sqrt(1 - c**2)))
        assert abs(measures.eof_wootters(np.outer(psi, psi.conj())) - expected) < 1e-9


def test_eof_wootters_validation():
    with pytest.raises(ValueError):
        measures.eof_wootters(np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        measures.eof_wootters(bad)
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 1] = 0.2
    with pytest.raises(ValueError):
        measures.eof_wootters(skew)


def test_eof_lower_bound():
    assert measures.eof_lower_bound(0.5) == 0.0
    assert measures.eof_lower_bound(1.0) == 1.0
    assert measures.eof_lower_bound(0.8) == pytest.approx(
        measures.binary_entropy(0.9), abs=1e-15
    )
    assert measures.eof_lower_bound(0.2) == 0.0
    with pytest.raises(ValueError):
        measures.eof_lower_bound(1.2)
    # the fraction's own check names NaN, not binary_entropy's
    with pytest.raises(ValueError, match="entangled fraction"):
        measures.eof_lower_bound(float("nan"))


@pytest.mark.parametrize(
    "check, value, message",
    [
        (measures.concurrence_pure, [np.nan, 0, 0, 0], "state has non-finite amplitudes"),
        (measures.concurrence_pure, [np.inf, 0, 0, 0], "state has non-finite amplitudes"),
        (measures.validate_density, np.diag([np.nan, 1, 0, 0]), "non-finite entries"),
        (measures.validate_density, np.full((4, 4), np.nan), "non-finite entries"),
        (measures.validate_density, np.diag([np.inf, 1, 0, 0]), "non-finite entries"),
        (measures.eof_wootters, np.full((4, 4), np.nan), "non-finite entries"),
        (measures.fully_entangled_fraction, np.diag([np.inf, 1, 0, 0]), "non-finite entries"),
    ],
)
def test_non_finite_input_is_named_before_any_arithmetic(check, value, message):
    # named as a domain error, never a value, a LinAlgError or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            check(value)


def test_fef_examples():
    assert measures.fully_entangled_fraction(
        np.outer(SINGLET, SINGLET.conj())
    ) == pytest.approx(1.0, abs=1e-9)
    assert measures.fully_entangled_fraction(np.eye(4, dtype=complex) / 4) == pytest.approx(
        0.25, abs=1e-9
    )
    rho = 0.7 * np.outer(SINGLET, SINGLET.conj()) + 0.1 * (
        np.eye(4) - np.outer(SINGLET, SINGLET.conj())
    )
    assert measures.fully_entangled_fraction(rho) == pytest.approx(0.7, abs=1e-9)


def test_fef_maximally_mixed_brute_force():
    # overlap of I/4 with any unit vector is 1/4: sample 10^4 maximally
    # entangled states and confirm none beats it
    rng = np.random.default_rng(17)
    rho = np.eye(4, dtype=complex) / 4
    overlaps = []
    for _ in range(10_000):
        e = _max_entangled(rng.uniform(-np.pi, np.pi, 3))
        overlaps.append(np.real(np.conj(e) @ rho @ e))
    assert np.max(np.abs(np.array(overlaps) - 0.25)) < 1e-12
    assert abs(measures.fully_entangled_fraction(rho) - max(overlaps)) < 1e-12


def test_fef_matches_magic_basis_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rho = random_density(rng)
        numeric = maximized_fef(rho)
        closed = measures.fully_entangled_fraction(rho)
        assert abs(numeric - closed) < 1e-9


def test_fef_local_unitary_invariance():
    rng = np.random.default_rng(9)

    def haar_u2():
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(10):
        rho = random_density(rng)
        base = measures.fully_entangled_fraction(rho)
        u = np.kron(haar_u2(), haar_u2())
        rotated = measures.fully_entangled_fraction(u @ rho @ u.conj().T)
        assert abs(base - rotated) < 1e-8


def test_eof_bound_inequality_random_densities():
    rng = np.random.default_rng(10)
    for _ in range(200):
        rho = random_density(rng)
        eof = measures.eof_wootters(rho)
        bound = measures.eof_lower_bound(
            min(1.0, measures.fully_entangled_fraction(rho))
        )
        assert eof >= bound - 1e-9
