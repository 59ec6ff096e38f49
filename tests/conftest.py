import numpy as np
import pytest

from qbell import coherent, fock


@pytest.fixture
def log_fit_residual():
    """The witness fit of any characteristic function, point by point:
    char_fn is called once per CharFuncPoint of the stencil and of the
    128-point sample (an 8 x 8 grid over [-2, 2] per coordinate on the
    real axes of both modes, then on the imaginary axes).  Gaussian
    states give residuals at rounding level."""

    def residual(char_fn):
        coords = np.concatenate((coherent._STENCIL, coherent._WITNESS_COORDS))
        points = [coherent.CharFuncPoint(complex(a, b), complex(c, d)) for a, b, c, d in coords]
        return coherent._log_fit_residual(coords, np.array([char_fn(p) for p in points]))

    return residual


@pytest.fixture
def lossy_pair_fock():
    """The dense reference of the loss checks: the three-mode (A, B, E)
    state (|a> (x) BS(|-a>|0>) - |-a> (x) BS(|a>|0>)) / norm, the
    antisymmetric entangled coherent state with mode B sent through the
    loss splitter, built from fock's coherent vectors and splitter and
    divided by its own norm, at truncation n."""

    def build(alpha, eta, n):
        vac = np.zeros(n + 1)
        vac[0] = 1.0
        plus, minus = fock.coherent_vector(alpha, n), fock.coherent_vector(-alpha, n)
        psi = np.einsum("a,be->abe", plus, fock.beam_splitter(np.outer(minus, vac), eta))
        psi -= np.einsum("a,be->abe", minus, fock.beam_splitter(np.outer(plus, vac), eta))
        return psi / np.linalg.norm(psi)

    return build


@pytest.fixture
def loss_basis():
    """The dense reference basis of the loss density: the four products
    a_i (x) b_j, in the order of DecoheredState.matrix, of the
    orthonormal pairs (|g> + |-g>, |g> - |-g>) / norm with g = alpha on
    mode A and sqrt(eta) alpha on mode B, built from fock's coherent
    vectors at truncation n, as the columns of an ((n+1)^2, 4) array."""

    def pair(amplitude, n):
        up, down = fock.coherent_vector(amplitude, n), fock.coherent_vector(-amplitude, n)
        return [vec / np.linalg.norm(vec) for vec in (up + down, up - down)]

    def build(alpha, eta, n):
        modes_b = pair(np.sqrt(eta) * alpha, n)
        return np.stack([np.kron(a, b) for a in pair(alpha, n) for b in modes_b], axis=1)

    return build
