"""Exact non-Markovian decoherence and entanglement dynamics of a double
quantum dot coupled to two finite-temperature fermionic reservoirs."""

from .boundstate import (
    BoundStateRoot,
    RelaxationClass,
    RelaxationKind,
    classify_relaxation,
    find_bound_states,
)
from .entanglement import fermionic_eof, steady_state_eof
from .greens import (
    GreensSolution,
    PoleExpansion,
    TimeGrid,
    bm_fluctuation,
    compute_fluctuation,
    pole_expansion_lorentzian,
    solve,
    solve_dyson,
    steady_state_fluctuation,
    wbl_greens,
    wbl_steady_fluctuation,
)
from .model import (
    ConfigError,
    InvariantViolation,
    ModelConfig,
    ReservoirParams,
    SolverError,
    SpectralKind,
    SystemParams,
    build_hamiltonian,
    gamma_matrix,
)
from .oracle import DiscretizedBath, discretize, exact_greens
from .spectral import build_kernel_table, fermi_occupation
from .state import (
    DensityBlocks,
    evolve_density,
    propagator_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "BoundStateRoot",
    "ConfigError",
    "DensityBlocks",
    "DiscretizedBath",
    "GreensSolution",
    "InvariantViolation",
    "ModelConfig",
    "PoleExpansion",
    "RelaxationClass",
    "RelaxationKind",
    "ReservoirParams",
    "SolverError",
    "SpectralKind",
    "SystemParams",
    "TimeGrid",
    "bm_fluctuation",
    "build_hamiltonian",
    "build_kernel_table",
    "classify_relaxation",
    "compute_fluctuation",
    "discretize",
    "evolve_density",
    "exact_greens",
    "fermi_occupation",
    "fermionic_eof",
    "find_bound_states",
    "gamma_matrix",
    "pole_expansion_lorentzian",
    "propagator_coefficients",
    "solve",
    "solve_dyson",
    "steady_state_eof",
    "steady_state_fluctuation",
    "wbl_greens",
    "wbl_steady_fluctuation",
    "__version__",
]
