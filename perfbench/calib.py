"""A fixed unit of host work, timed next to every measured interval.

The development host switches between speed modes that last from a
fraction of a second to minutes, and the same qbell operation then
takes up to twice as long.  Every timed interval of the benchmark (an
operation, a set-up) is bracketed by one run of ``unit()`` before and
one after, and is reported as its ratio to the mean of the two, times
``REFERENCE_MS``: milliseconds on a host of fixed speed.  The unit never
imports qbell, so a change to the package cannot move it.

Kinds of work slow down by different amounts in the slow mode, so the
unit mixes every kind that qbell's workloads do: scalar ``math`` and
numpy-scalar calls in a Python loop (the decoherence kernel), small
numpy array calls (the closed forms), a complex matmul with a Hermitian
eigensolve and a linear solve (the Fock oracle), an iterative search
over small numpy vectors (the L-BFGS-B driver of
``fully_entangled_fraction``), and unmarshalling and running module
code (``import qbell``).  It uses numpy and the standard library only,
which qbell imports anyway, so it adds no module and almost no memory
to a worker process.  README.md: "Normalized time".
"""

import marshal
import math
import time

import numpy as np

# About the fastest time of unit() on the development host (README:
# Reference figures), so that normalized times read close to the wall
# times of the host's fast mode.  A fixed constant: only ratios matter.
REFERENCE_MS = 2.4

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((80, 80)) + 1j * _rng.standard_normal((80, 80))
_A = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.2], [0.5, 0.2, 1.5]])
_B = np.array([1.0, -0.5, 0.25])
_SOURCE = "\n".join(
    f"def f{k}(x, y=2):\n    return sum([x * i + y for i in range(3)]) + {k}\nC{k} = f{k}({k})\n"
    for k in range(90)
)
_CODE = marshal.dumps(compile(_SOURCE, "<calib>", "exec"))


def unit():
    s = 0.0
    for k in range(2400):
        x = 1e-4 * k
        s += math.exp(-x) * math.sinh(0.5 * x) ** 2 + math.sqrt(1.0 + x)
    for k in range(300):
        x = 1e-4 * k
        s += np.exp(-x) * np.sinh(0.5 * x) ** 2 + np.sqrt(1.0 + x)
    v = np.arange(32.0)
    for _ in range(180):
        v = np.sqrt(v * 1.0001 + 1.0)
    h = _M @ _M.conj().T
    s += np.linalg.eigvalsh(h)[0] + np.linalg.solve(h, _M[:, 0])[0].real
    z = np.zeros(3)
    for _ in range(150):
        z = z - 0.2 * (_A @ z - _B)
    s += float(np.dot(z, z))
    exec(marshal.loads(_CODE), {})
    return s + v[0]


def measure():
    """Wall time of one unit, in seconds."""
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0
