"""Adaptive quadratic FEM for the 2D Signorini problem with pointwise error control."""

from .mesh import Mesh, generate_unit_square, refine, build_patches
from .fem import MaterialLaw, DofMap, assemble
from .vi import solve_vi
from .density import build_trace_mesh, compute_density
from .estimator import estimate
from .problems import get_problem, measure_error
from .adaptive import AdaptiveParams, adapt, mark

__version__ = "0.1.0"

__all__ = [
    "Mesh", "generate_unit_square", "refine", "build_patches",
    "MaterialLaw", "DofMap", "assemble",
    "solve_vi",
    "build_trace_mesh", "compute_density",
    "estimate", "get_problem", "measure_error",
    "AdaptiveParams", "adapt", "mark",
]
