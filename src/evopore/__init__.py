"""Numerical toolkit for reaction-diffusion in porous media whose solid
obstacles grow and shrink with the local concentration.

The pieces: a radius-parametrized cell transformation with exact structural
identities, periodic cell problems producing the radius-dependent effective
diffusion tensor, a macroscopic PDE-ODE solver for the homogenized system,
and a resolved micro-scale simulator on the fixed perforated domain used to
verify the scale limit empirically.
"""

__version__ = "0.1.0"

from .errors import ConfigError, MeshQualityError, NumericalError
from .kinetics import KineticsSpec, eval_f, lipschitz_envelope, step_radius, validate_structure
from .macro import MacroGrid, MacroSolver, MacroState, mass_balance
from .micro import (MicroMesh, MicroSimulator, MicroState, UnfoldingError,
                    build_micro_mesh, cell_pore_means, unfold_compare)
from .registry import build_field, build_source, register_field
from .sparse import SolveReport, solve_cg
from .transform import MapScalars, RadialFrame, TransformParams, profile
from .unitcell import (EffectiveTensorTable, PeriodicMesh, ReferenceCell, ball_volume,
                       build_reference_mesh, effective_tensor, porosity, solve_cell_problem,
                       tabulate)

__all__ = [name for name in dir() if not name.startswith("_")]
