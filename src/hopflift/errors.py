"""Exception hierarchy shared by all modules.

Exit-code policy for the CLI: precondition violations exit 2, solver
failures exit 3, malformed flags exit 64.
"""


class HopfliftError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class PreconditionError(HopfliftError):
    """Input violates a documented precondition."""

    exit_code = 2


class SolverError(HopfliftError):
    """An iterative solve failed."""

    exit_code = 3


class InvalidResolution(PreconditionError):
    """Grid needs at least 3 nodes per axis."""


class WidthTooSmall(PreconditionError):
    """Mollification width below grid spacing."""


class RadiusOutOfRange(PreconditionError):
    """Flux probe radius outside (0, 1 - 3h)."""


class NotUnit(PreconditionError):
    """Point or field off the unit sphere beyond tolerance."""


class NotTangent(PreconditionError):
    """Vector not tangent to the sphere at the given point."""


class TooCloseToPole(PreconditionError):
    """Section evaluated inside the excluded cone around its pole."""


class BadLatitude(PreconditionError):
    """Latitude parameter outside the open interval (0, pi/2)."""


class ChartExhausted(PreconditionError):
    """No candidate pole stays clear of the map's range; single-chart
    lifting is unavailable."""


class NotClosed(PreconditionError):
    """The phase 1-form has a curl too large for the supplied data to
    satisfy the exactness constraint."""


class ProjectionDegenerate(PreconditionError):
    """Mollified lift values dropped too close to zero to renormalize."""


class IoError(PreconditionError):
    """File could not be written or read."""


class SolverDiverged(SolverError):
    """CG met non-positive or non-finite curvature along the gradient:
    the operator is not positive definite there, or the arithmetic broke
    down; also raised for a right-hand side of non-finite norm."""


class NotConverged(SolverError):
    """Iteration budget exhausted before the tolerance was met.

    Carries the partial result in ``result`` so callers can inspect or
    report it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
