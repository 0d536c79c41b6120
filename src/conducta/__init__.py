"""Effective-conductivity bounds for multiphase periodic composites.

Closed-form upper bounds (trivial, Hashin-Shtrikman, and a distribution-tail
refinement with a free shift parameter), a spectral cell-problem solver to
validate them on voxel microstructures, the constructive test-field pipeline
behind the refined bound, and dyadic BMO / John-Nirenberg analysis of the
potential fields.

The package root exports the documented API; helpers and the intermediate
terms of the bounds stay importable from their submodules.
"""

from .bmo import bmo_norm, full_dyadic_depth, john_nirenberg_fit, lemma1_ratio
from .bounds import (
    BoundConfig,
    BoundReport,
    hs_upper,
    milton_gap,
    optimize_S,
    theorem1_upper,
    three_phase_refined,
    trivial_upper,
)
from .cell_solver import (
    EffectiveTensor,
    PotentialField,
    SolverConfig,
    build_optimal_potential,
    constructive_value,
    solve_effective_tensor,
    traceless_hessian,
)
from .errors import ConfigError, ConvergenceError, GridFormatError
from .microstructure import (
    VoxelGrid,
    empirical_phase_set,
    generate_checkerboard,
    generate_laminate,
    generate_random,
    load_grid,
    save_grid,
)
from .phases import PhaseSet, read_phase_config

__version__ = "0.1.0"

__all__ = [
    "BoundConfig",
    "BoundReport",
    "ConfigError",
    "ConvergenceError",
    "EffectiveTensor",
    "GridFormatError",
    "PhaseSet",
    "PotentialField",
    "SolverConfig",
    "VoxelGrid",
    "bmo_norm",
    "build_optimal_potential",
    "constructive_value",
    "empirical_phase_set",
    "full_dyadic_depth",
    "generate_checkerboard",
    "generate_laminate",
    "generate_random",
    "hs_upper",
    "john_nirenberg_fit",
    "lemma1_ratio",
    "load_grid",
    "milton_gap",
    "optimize_S",
    "read_phase_config",
    "save_grid",
    "solve_effective_tensor",
    "theorem1_upper",
    "three_phase_refined",
    "traceless_hessian",
    "trivial_upper",
]
