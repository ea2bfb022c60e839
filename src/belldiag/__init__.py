"""Bell-diagonal two-qubit states: preparation, tomography, noise, measures."""

from .circuit import (
    Circuit,
    Gate,
    prepared_state,
    purification_circuit,
    simulate_statevector,
    to_qasm,
)
from .measures import (
    ResourceReport,
    coherence_l1,
    discord_oz,
    full_report,
    full_reports,
    negativity,
    nonlocal_coherence,
    nonlocality,
    steering,
)
from .noise import KrausChannel, apply_channel, composite_damping, decohered_werner_sweep
from .states import (
    BdsSpec,
    DensityMatrix,
    bds_from_spec,
    bell_state,
    density_matrix_from_json,
    density_matrix_to_json,
    fidelity,
    werner,
    werner_spec,
)
from .tomography import (
    MeasurementSetting,
    ReconstructionResult,
    TomographyCounts,
    counts_from_json,
    counts_to_json,
    estimate_correlations,
    exact_correlations,
    reconstruct,
    sample_counts,
    tomograph,
)

__version__ = "0.1.0"
