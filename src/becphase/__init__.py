"""Simulation of two impurity qubits coupled to a single bosonic mode, the
kinematic geometric phase of the qubit pair over one quasicycle, and the
inversion of that phase into entanglement witnesses."""

from .model import (
    ModelParams,
    branch_frequency,
    quasicycle_period,
)
from .dynamics import (
    CoherentBranches,
    JointState,
    bell_initial,
    coherent,
    general_initial,
    macro_both_initial,
    macro_single_initial,
    truncation_dim,
    validate_joint,
)
from .density import (
    BlockEntries,
    EigenPath,
    Frames,
    Scenario,
    analytic_rho_path,
    coherent_block_path,
    coherent_rho_path,
    decay_phase,
    eigen_path,
    embed_frames,
    oracle_rho_path,
    partial_trace,
    validate_density,
)
from .geomphase import (
    ConvergenceError,
    PhaseResult,
    analytic_path_builder,
    converge_phase,
    kinematic_phase,
    phase_macro_closed,
    phase_micro_micro_closed,
    phase_trace,
    weak_coupling_phase,
    weak_coupling_phase_limit,
)
from .entanglement import (
    HybridConcurrence,
    WitnessResult,
    concurrence_wootters,
    hybrid_concurrence,
    macro_phase_relation,
    purity_oracle,
    witness_micro_macro,
    witness_micro_micro,
)
from .cli import RunConfig, Table, emit, parse_config, run_scenario, validation_report

__all__ = [name for name in dir() if not name.startswith("_")]
