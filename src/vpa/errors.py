"""Exception types shared across the toolkit."""


class VpaError(Exception):
    """Base class for all toolkit errors."""


class ParseError(VpaError, ValueError):
    """Raised on malformed polynomial expressions; carries the character position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class ExpansionError(ParseError):
    """A product or power of polynomials may form more than
    `polynomials.MAX_TERMS` terms; raised before expanding."""


class DimensionMismatchError(VpaError, ValueError):
    """Point/polynomial dimension disagreement."""


class ProblemValidationError(VpaError, ValueError):
    """Inconsistent problem data (dimensions, empty objective list, bad ybar)."""


class InfeasiblePointError(VpaError):
    """A pointwise certificate was requested at an infeasible point."""


class NonFiniteError(VpaError):
    """A value or Jacobian entry at the requested point is not finite."""


class KernelError(VpaError):
    """The certificates' least-norm kernel hit its iteration limit."""


class ProjectionError(VpaError):
    """Local search failed to reach a feasible sphere-slice point."""

    def __init__(self, message, best_residual=None, best_point=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_point = best_point


class RayError(VpaError):
    """Every radius in a feasible-ray sample failed to project."""


class DivergenceError(VpaError):
    """Iterates escaped the configured norm cap (likely unbounded subproblem)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class TraceError(VpaError):
    """Sphere tracking produced no usable radius."""


class ClassifyError(VpaError):
    """Classification was asked to run on empty evidence."""


class SolveError(VpaError):
    """Scalarized solve (or a whole front sweep) failed."""


class SectionError(VpaError):
    """No section point could be located below the reference value."""
