"""Effective-conductivity bounds for multiphase periodic composites.

Closed-form upper bounds (trivial, Hashin-Shtrikman, and a distribution-tail
refinement with a free shift parameter), a spectral cell-problem solver to
validate them on voxel microstructures, the constructive test-field pipeline
behind the refined bound, and the dyadic BMO norm and Lemma-1 ratio of the
potential fields.

The package root exports the documented API; helpers and the intermediate
terms of the bounds stay importable from their submodules.
"""

from .bmo import bmo_norm, lemma1_ratio
from .bounds import (
    BoundReport,
    hs_upper,
    optimize_S,
    theorem1_upper,
    trivial_upper,
)
from .cell_solver import (
    EffectiveTensor,
    PotentialField,
    build_optimal_potential,
    constructive_value,
    solve_effective_tensor,
    traceless_hessian,
)
from .errors import ConfigError, ConvergenceError, GridFormatError
from .microstructure import (
    VoxelGrid,
    generate_checkerboard,
    generate_laminate,
    generate_random,
    load_grid,
    save_grid,
)
from .phases import PhaseSet, read_phase_config

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConfigError",
    "ConvergenceError",
    "EffectiveTensor",
    "GridFormatError",
    "PhaseSet",
    "PotentialField",
    "VoxelGrid",
    "bmo_norm",
    "build_optimal_potential",
    "constructive_value",
    "generate_checkerboard",
    "generate_laminate",
    "generate_random",
    "hs_upper",
    "lemma1_ratio",
    "load_grid",
    "optimize_S",
    "read_phase_config",
    "save_grid",
    "solve_effective_tensor",
    "theorem1_upper",
    "traceless_hessian",
    "trivial_upper",
]
