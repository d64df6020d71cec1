"""Simulator for an EIT-based two-photon quantum phase gate.

A five-level medium driven by two classical fields imprints a cross
phase between single probe and trigger photons. The package builds the
restricted collective master equation of that system, evolves it,
extracts gate phases and fidelities, and covers the supporting analyses:
perturbative phase estimates, probe group velocity with the implied cell
geometry, a three-level ladder comparison model, and the closed-form
interferometric readout.
"""

from .basis import (
    FIELD_BASIS,
    M_BASIS,
    M_DIM,
    MBasisState,
    QUBIT_BLOCK,
    QUBIT_M_INDICES,
    field_index,
    m_index,
)
from .dynamics import (
    GateTrajectories,
    choi_inputs,
    evolve,
    evolve_conditional,
    evolve_gate_inputs,
    evolve_superoperator,
    no_jump_generator,
    steady_state,
    superposition_input,
)
from .groupvel import (
    CellGeometry,
    OpticalConstants,
    cell_geometry,
    group_velocity_steady,
    group_velocity_transient,
    steady_susceptibility,
)
from .interferometer import (
    FringeFit,
    MalformedFringeError,
    PolarizationPhases,
    chsh_parameter,
    diagonal_phases,
    fit_fringe,
    fock_coincidences,
    gate_phase_from_fits,
    ideal_eit_phases,
    polarization_coincidences,
)
from .ladder import LadderParams, evolve_ladder_gate
from .mscheme import (
    JumpChannel,
    MSchemeParams,
    build_hamiltonian,
    build_jump_channels,
    build_liouvillian,
    reduced_hamiltonians,
)
from .observables import (
    ConditionalFidelityResult,
    UndefinedPhaseError,
    average_fidelity,
    choi_matrix,
    conditional_phase_shift,
    extract_phases,
    ideal_phase_unitary,
    populations,
    reduce_to_fields,
)
from .perturbative import closed_form_phase, dark_eigenvalue, eigenvalue_phase, phase_rates

__all__ = [
    "FIELD_BASIS",
    "M_BASIS",
    "M_DIM",
    "MBasisState",
    "QUBIT_BLOCK",
    "QUBIT_M_INDICES",
    "field_index",
    "m_index",
    "GateTrajectories",
    "choi_inputs",
    "evolve",
    "evolve_conditional",
    "evolve_gate_inputs",
    "evolve_superoperator",
    "no_jump_generator",
    "steady_state",
    "superposition_input",
    "CellGeometry",
    "OpticalConstants",
    "cell_geometry",
    "group_velocity_steady",
    "group_velocity_transient",
    "steady_susceptibility",
    "FringeFit",
    "MalformedFringeError",
    "PolarizationPhases",
    "chsh_parameter",
    "diagonal_phases",
    "fit_fringe",
    "fock_coincidences",
    "gate_phase_from_fits",
    "ideal_eit_phases",
    "polarization_coincidences",
    "LadderParams",
    "evolve_ladder_gate",
    "JumpChannel",
    "MSchemeParams",
    "build_hamiltonian",
    "build_jump_channels",
    "build_liouvillian",
    "reduced_hamiltonians",
    "ConditionalFidelityResult",
    "UndefinedPhaseError",
    "average_fidelity",
    "choi_matrix",
    "conditional_phase_shift",
    "extract_phases",
    "ideal_phase_unitary",
    "populations",
    "reduce_to_fields",
    "closed_form_phase",
    "dark_eigenvalue",
    "eigenvalue_phase",
    "phase_rates",
    "__version__",
]

__version__ = "0.1.0"
