"""Exception types shared across the package; each is raised somewhere in it."""


class CbnormLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(CbnormLabError, ValueError):
    """Malformed or out-of-contract input: bad shapes, seeds, non-finite data."""


class InvalidRepresentationError(InvalidInputError):
    """A hull representation violates its row/column contraction constraints."""


class DomainError(CbnormLabError, ValueError):
    """Evaluation was requested at or outside the boundary of the open unit ball."""


class ConfigurationError(CbnormLabError, ValueError):
    """A symbolic object lacks a certification it needs, e.g. a composite on
    a functional with no stated norm, or with a computed norm of 1 or more."""


class SandwichViolationError(CbnormLabError, RuntimeError):
    """Internal consistency failure: a computed lower bound exceeded a certified
    upper bound, which means one of the two bound computations is buggy."""
