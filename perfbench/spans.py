"""In-memory span recorder for the traced run.

Wrappers around qbell's public functions record one span per call:
name, start, end, parent span, operation id and whether the call
raised.  The wrappers live here, in the benchmark, not in the package;
``install`` replaces every module binding of each function (so that
``werner.embed_qubit``, bound by ``from .states import embed_qubit``,
is traced along with ``states.embed_qubit``) and ``uninstall`` puts the
originals back.
"""

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# Functions wrapped in the traced run, by qbell module.  Each gets the
# per-layer metrics <module>.<function>.calls and .self_ms, except the
# verify checks and run_all, which report their inclusive time as .ms.
TRACED = {
    "decoherence": [
        "figure1_sweep",
        "optimal_beta",
        "search_optimal_beta",
        "fraction_over_family",
        "apply_loss",
        "diagnostic_fef",
    ],
    "measures": [
        "fully_entangled_fraction",
        "eof_wootters",
        "eof_lower_bound",
        "validate_density",
        "concurrence_pure",
        "binary_entropy",
    ],
    "werner": ["build_quasi_werner", "quasi_werner_spectrum"],
    "states": [
        "embed_qubit",
        "reduced_spectrum",
        "entropy_of_entanglement",
        "normalization_constant",
    ],
    "coherent": [
        "characteristic_function",
        "gaussianity_witness",
        "mean_photon_numbers",
        "asymmetric_spectrum",
        "coherent_spectrum",
    ],
    "fock": [
        "coherent_vector",
        "quasi_bell_fock",
        "beam_splitter",
        "partial_trace",
        "von_neumann_entropy",
        "operator_trace_charfunc",
        "mean_photon",
    ],
    "verify": ["family_overlap_curve"],
}

VERIFY_CHECKS = [
    "coherent_overlap",
    "gram_matrix",
    "reduced_spectra",
    "unit_entropy",
    "mean_photons",
    "asymmetric_spectra",
    "char_function",
    "beam_splitter_rule",
    "beam_splitter_unitary",
    "loss_density",
    "loss_purity",
    "family_overlap",
    "optimal_beta",
    "werner_spectrum",
]

INCLUSIVE = [f"verify.check_{name}" for name in VERIFY_CHECKS] + ["verify.run_all"]

CLI_COMMANDS = ["help", "measures", "werner", "decohere", "charfunc"]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("import.qbell_s", "s"), ("import.modules", "count")]
    out += [(f"cli.main.{cmd}.ms", "ms") for cmd in CLI_COMMANDS]
    for module, names in TRACED.items():
        for name in names:
            out += [(f"{module}.{name}.calls", "count"), (f"{module}.{name}.self_ms", "ms")]
        if module == "decoherence":
            out.append(("decoherence.fraction_over_family.calls_per_point", "calls/point"))
    out += [(f"{name}.ms", "ms") for name in INCLUSIVE]
    return out


class Tracer:
    """Spans kept in flat arrays; a span's index is its id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self._stack = []
        self._op = -1
        self._patched = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx, raised):
        self.end[idx] = time.perf_counter()
        self.raised[idx] = raised
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, op=None):
        """A span not tied to a wrapped function; with ``op`` it is the
        root span of that operation."""
        if op is not None:
            self._op = op
        idx = self._open(self._name_id(name))
        raised = 1
        try:
            yield
            raised = 0
        finally:
            self._close(idx, raised)

    def wrap(self, name, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, 1)
                raise
            self._close(idx, 0)
            return result

        return traced

    def install(self, package, targets):
        """Wrap each module.function in ``targets`` on every module of
        ``package`` that binds it."""
        originals = []
        for qualified in targets:
            module_name, fn_name = qualified.split(".")
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            originals.append((qualified, getattr(module, fn_name)))
        modules = [package] + [
            m for name, m in sys.modules.items() if name.startswith(package.__name__ + ".")
        ]
        for qualified, original in originals:
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self):
        """Per-name totals: calls, inclusive and self seconds, raised
        calls; plus per-op root wall time and the sum of self times."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {}
        ops = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            own = dur - child[i]
            row = totals.setdefault(self.names[self.name[i]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += own
            row[3] += self.raised[i]
            op = ops.setdefault(self.op[i], [0.0, 0.0])
            op[1] += own
            if self.parent[i] < 0:
                op[0] += dur
        return totals, ops

    def finished_sweep_points(self):
        """optimal_beta calls made by figure1_sweep that returned."""
        sweep = self._ids.get("decoherence.figure1_sweep")
        opt = self._ids.get("decoherence.optimal_beta")
        return sum(
            1
            for i in range(len(self.start))
            if self.name[i] == opt
            and not self.raised[i]
            and self.parent[i] >= 0
            and self.name[self.parent[i]] == sweep
        )

    def write(self, path):
        """All spans as gzipped JSON: names, then one row per span of
        [name, start, end, parent, op, raised]."""
        rows = [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i], self.raised[i]]
            for i in range(len(self.start))
        ]
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"names": self.names, "spans": rows}, handle)
