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
    """Dense factorization failed; the truncated system is numerically singular."""


class NonConvergenceError(ArithmeticError):
    """An iterative process (series summation) failed to converge."""


class InsufficientPointsError(ValueError):
    """Rate fitting was asked to work with fewer tail points than allowed."""


class InteriorPointError(ValueError):
    """A field evaluation point lies inside (or on) an obstacle."""
