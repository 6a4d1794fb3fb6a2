"""Exception types shared across the package."""


class CbnormLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(CbnormLabError, ValueError):
    """Malformed or out-of-contract input: bad shapes, seeds, non-finite data."""


class InvalidRepresentationError(InvalidInputError):
    """A hull representation violates its row/column contraction constraints."""


class DomainError(CbnormLabError, ValueError):
    """Evaluation was requested at or outside the boundary of the open unit ball."""


class ImageGuardError(DomainError):
    """A functional's scalar image reached the guard radius, so its certified
    norm was understated.  `row` is the first grid of a stack whose image did,
    or None for a single grid."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigurationError(CbnormLabError, ValueError):
    """A symbolic object is missing a certification it needs, e.g. a composite
    built on a functional with no certified norm."""


class SandwichViolationError(CbnormLabError, RuntimeError):
    """Internal consistency failure: a computed lower bound exceeded a certified
    upper bound, which means one of the two bound computations is buggy."""
