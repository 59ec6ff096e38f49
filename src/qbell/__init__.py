"""Quasi-Bell states over nonorthogonal basis states.

Construction and entanglement of the four entangled superpositions of a
nonorthogonal state pair, their Werner-type mixtures, the coherent-state
realization with its photon-loss decoherence, and an independent
truncated-Fock-space verifier for every closed form.
"""

from .states import (
    QuasiBell,
    normalization_constant,
    gram_matrix,
    gram_off_diagonal,
    reduced_spectrum,
    entropy_of_entanglement,
    embed_qubit,
)
from .measures import (
    binary_entropy,
    concurrence_pure,
    eof_wootters,
    eof_lower_bound,
    fully_entangled_fraction,
)
from .werner import (
    QuasiWerner,
    build_quasi_werner,
    quasi_werner_spectrum,
)
from .coherent import (
    CoherentQuasiBell,
    CharFuncPoint,
    overlap_of_amplitude,
    mean_photon_numbers,
    characteristic_function,
    gaussianity_witness,
    asymmetric_spectrum,
)
from .decoherence import (
    LossChannel,
    DecoheredState,
    FractionCurvePoint,
    apply_loss,
    fraction_over_family,
    optimal_beta,
    biphoton_fraction,
    figure1_sweep,
)

__version__ = "0.1.0"
