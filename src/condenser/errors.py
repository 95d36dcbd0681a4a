"""Exception types shared across the package.  Each carries the ``code``
that the command line prints (``ERROR <code> <message>``) and the
``exit_code`` it exits with."""


class CondenserError(Exception):
    """Base class for all package errors."""

    code = "Internal"
    exit_code = 5


class ZeroSeparationError(CondenserError):
    """A positive-plate node coincides with a negative-plate node."""

    code = "ZeroSeparation"


class EmptyPlateError(CondenserError):
    """A plate description produced no nodes."""

    code = "EmptyPlate"


class AlignmentError(CondenserError):
    """Vector measure components do not match the condenser's plates."""

    code = "Alignment"


class DuplicateNodeError(CondenserError):
    """Kernel matrix assembly received coinciding nodes."""

    code = "DuplicateNode"


class UnsupportedKernel(CondenserError):
    """Operation requested for a kernel it does not support."""

    code = "UnsupportedKernel"


class InfeasibleError(CondenserError):
    """The feasible region of a constrained problem is empty."""

    code = "Infeasible"
    exit_code = 3


class SigmaDominationError(CondenserError):
    """Explicit negative-plate cap does not dominate the swept positive caps."""

    code = "SigmaDomination"
    exit_code = 3


class WrongScenarioError(CondenserError):
    """A check was invoked on a scenario that does not meet its preconditions."""

    code = "WrongScenario"


class ParseError(CondenserError):
    """Scenario configuration could not be parsed or validated."""

    code = "Parse"
    exit_code = 2


class NonConvergedError(CondenserError):
    """An iterative solve failed its convergence contract."""

    code = "NonConverged"
    exit_code = 4


class NonConvexError(CondenserError):
    """A QP is not convex on a face the pivoting visits (the inertia of its
    bordered KKT matrix)."""

    code = "NonConvex"
