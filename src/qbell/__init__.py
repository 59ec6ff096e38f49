"""Quasi-Bell states over nonorthogonal basis states.

Construction and entanglement of the four entangled superpositions of a
nonorthogonal state pair, their Werner-type mixtures, the coherent-state
realization with its photon-loss decoherence, and an independent
truncated-Fock-space verifier for every closed form.

Exports load on first access: ``import qbell`` imports no submodule and
no numpy, and ``qbell.QuasiBell`` imports ``qbell.states`` then.
"""

import importlib

# each export and the submodule that defines it
_EXPORTS = {
    "QuasiBell": "states",
    "normalization_constant": "states",
    "gram_matrix": "states",
    "gram_off_diagonal": "states",
    "reduced_spectrum": "states",
    "entropy_of_entanglement": "states",
    "embed_qubit": "states",
    "binary_entropy": "measures",
    "concurrence_pure": "measures",
    "eof_wootters": "measures",
    "eof_lower_bound": "measures",
    "fully_entangled_fraction": "measures",
    "QuasiWerner": "werner",
    "build_quasi_werner": "werner",
    "quasi_werner_spectrum": "werner",
    "CoherentQuasiBell": "coherent",
    "CharFuncPoint": "coherent",
    "overlap_of_amplitude": "coherent",
    "mean_photon_numbers": "coherent",
    "characteristic_function": "coherent",
    "gaussianity_witness": "coherent",
    "asymmetric_spectrum": "coherent",
    "LossChannel": "decoherence",
    "DecoheredState": "decoherence",
    "FractionCurvePoint": "decoherence",
    "apply_loss": "decoherence",
    "fraction_over_family": "decoherence",
    "optimal_beta": "decoherence",
    "biphoton_fraction": "decoherence",
    "figure1_sweep": "decoherence",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
