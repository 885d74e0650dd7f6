"""Quantum snapshot toolkit.

Reconstructs unknown pure states from a SWAP-test fidelity signal (gradient
generator or QESwap evolutionary strategy), simulates circuits exactly or
under a calibrated Kraus noise model, and persists reconstructions in a
classical snapshot store.
"""

from .circuit import (
    Gate,
    QuantumCircuit,
    ancilla_expectation,
    build_swap_test,
    execute_statevector,
    lower_to_basis,
    mottonen_prepare,
)
from .core import (
    DensityMatrix,
    Rng,
    StateVector,
    half_chain_entropy,
    hilbert_schmidt_overlap,
    overlap_fidelity,
    partial_trace,
    random_pure_state,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from .estimators import (
    DensityOracle,
    EsConfig,
    FidelityOracle,
    GradientConfig,
    ReconstructionReport,
    reconstruct,
    train_gradient,
    train_qeswap,
)
from .harness import (
    CohortSummary,
    ExperimentSpec,
    emit_report,
    run_cohort,
    run_entropy_analysis,
    run_midcircuit_snapshot,
    run_mixed_state_diagnostic,
    run_standard_states,
    standard_states,
)
from .noise import (
    KrausChannel,
    NoiseModel,
    NoiseParams,
    bit_flip_channel,
    depolarizing_channel,
    calibrated_noise_model,
    thermal_relaxation_channel,
)
from .store import SnapshotRecord, deposit, list_snapshots, load, withdraw

__version__ = "0.1.0"
