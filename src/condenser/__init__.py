"""Discretized generalized condensers: constrained minimum Riesz/Green energy
problems, numerical balayage, and structure verification."""

from .errors import (AlignmentError, CondenserError, DuplicateNodeError,
                     EmptyPlateError, InfeasibleError, NonConvergedError,
                     ParseError, SigmaDominationError, UnsupportedKernel,
                     WrongScenarioError, ZeroSeparationError)
from .model import (Condenser, DiscreteMeasure, KernelSpec, NodeSet, Plate,
                    PlateSpec, SignedMeasure, VectorMeasure, build_condenser,
                    resultant, semimetric_distance)
from .kernel import (KernelMatrix, assemble_matrix, equilibrium_measure,
                     gauss_functional, mutual_energy, potential)
from .balayage import (BalayageResult, GreenContext, balayage_oracle_halfspace,
                       balayage_project)
from ._pg import project_capped_simplex
from .gauss_solver import (ProblemSpec, SolveResult, check_sigma_domination,
                           lift_green_to_riesz, solve_green_reduced,
                           solve_riesz)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
