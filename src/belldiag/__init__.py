"""Bell-diagonal two-qubit states: preparation, tomography, noise, measures."""

from .circuit import (
    AnglePair,
    Circuit,
    Gate,
    angles_from_spec,
    prepared_state,
    probs_from_angles,
    purification_circuit,
    simulate_statevector,
    to_qasm,
)
from .measures import (
    BlochDecomposition,
    ResourceReport,
    bloch_decompose,
    coherence_l1,
    correlation_vector,
    discord_oz,
    full_report,
    negativity,
    nonlocal_coherence,
    nonlocality,
    steering,
)
from .noise import KrausChannel, apply_channel, composite_damping, decohered_werner_sweep
from .states import (
    BdsSpec,
    CorrelationTriple,
    DensityMatrix,
    bds_from_spec,
    bell_state,
    correlations_from_spec,
    density_matrix_from_json,
    density_matrix_to_json,
    fidelity,
    spec_from_correlations,
    werner,
    werner_spec,
)
from .tomography import (
    CorrelationMatrix,
    MeasurementSetting,
    ReconstructionResult,
    TomographyCounts,
    born_probabilities,
    counts_from_json,
    counts_to_json,
    estimate_correlations,
    exact_correlations,
    reconstruct,
    sample_counts,
    tomograph,
)

__version__ = "0.1.0"
