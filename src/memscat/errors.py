"""Exception types shared across the package.

Everything numerical that can fail does so with one of these, so the CLI can
map failures onto its exit-code contract (1 = validation, 2 = numerical,
3 = I/O) without string matching.
"""


class SceneValidationError(ValueError):
    """A scene violates a hard precondition (overlap, nonpositive radius, ...)."""


class CapabilityError(ValueError):
    """Requested order/argument/system size exceeds the supported envelope."""


class SingularSystemError(ArithmeticError):
    """A dense or GMRES solve failed: the system is numerically singular."""


class NonConvergenceError(ArithmeticError):
    """A solve reported no convergence: a sweep's dense solve with a
    non-finite residual."""


class InsufficientPointsError(ValueError):
    """Rate fitting was asked to work with fewer tail points than allowed."""


class InteriorPointError(ValueError):
    """A field evaluation point lies inside (or on) an obstacle."""
