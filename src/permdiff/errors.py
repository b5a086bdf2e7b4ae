"""Exception types shared across the package.

Each maps to a distinct CLI exit code; see ``permdiff.cli``.
"""


class PermdiffError(Exception):
    """Base class for all package-specific errors."""

    category = "internal"


class ShapeMismatchError(PermdiffError):
    """Operands have incompatible point counts or per-point dimensions."""

    category = "shape-mismatch"


class DomainError(PermdiffError):
    """An argument is outside its mathematical domain (e.g. t <= 0)."""

    category = "domain"


class CapacityError(PermdiffError):
    """An exact sum over S_N was requested above the enumeration cap or the DP ceiling."""

    category = "capacity"


class ParseError(PermdiffError):
    """A file or config value could not be parsed."""

    category = "parse"


class TrainingDiverged(PermdiffError):
    """Training loss exceeded the divergence threshold."""

    category = "diverged"


class ScoreCallbackError(PermdiffError):
    """A user-supplied score callback raised during reverse integration."""

    category = "score-callback"
