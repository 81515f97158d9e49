"""Exception types shared across the package."""


class BNSolverError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BNSolverError):
    """Invalid domain/run configuration (bad geometry, resolution, config file)."""


class ArgumentError(BNSolverError, ValueError):
    """Invalid argument to an operation."""


class AssumptionGError(BNSolverError):
    """Boundary data violates the nonnegativity/nontriviality assumption."""


class NumericalError(BNSolverError):
    """An iterative procedure failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MuTooLargeError(BNSolverError):
    """The fibering threshold t0 is undefined: its numerator is nonpositive."""

    def __init__(self, message, numerator=None):
        super().__init__(message)
        self.numerator = numerator


class MuBeyondRangeError(BNSolverError):
    """T'(t0) <= 0 (or an expected sign change is missing): the two-root
    regime assumed by the fibering analysis does not hold numerically."""


class BranchAbsentError(BNSolverError):
    """Requested solution branch does not exist (e.g. the local branch at mu = 0)."""


class NonpositiveMinusLevelError(BranchAbsentError):
    """A Minus solve's start ray has J(v0) = E(t_minus(v0) v0) <= 0, carried
    as `j0`.  t_minus(v0) v0 lies on the Minus part of the Nehari manifold,
    so the Minus level is at most J(v0) <= 0 and a record of positive energy
    reached from this seed could not be the Minus minimum; the descent, which
    only lowers J, is not run."""

    def __init__(self, message, j0=None):
        super().__init__(message)
        self.j0 = j0


class DegenerateSeedError(BNSolverError):
    """The seed ray has no t_plus root: the seed vanishes or the pairing sign
    of its ray is not positive."""


class SeedingError(BNSolverError):
    """No multistart seed admits a projection onto the target manifold part."""


class ProjectionError(BNSolverError):
    """An iterate left the admissible cone and could not be projected back."""


class NonconvergenceError(NumericalError):
    """A solver exhausted its iteration budget above tolerance."""


class PreconditionError(BNSolverError):
    """Operation called outside its admissible parameter regime."""


class IncompleteInputError(BNSolverError):
    """A report/certificate was requested without the records it needs."""
