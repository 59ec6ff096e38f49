import numpy as np
import pytest

from qbell import coherent


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
