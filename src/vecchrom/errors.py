"""Exception types shared across the package, and the tolerance check
that raises one."""


class VecchromError(Exception):
    """Base class for all package errors."""


class CapacityError(VecchromError):
    """A configured size cap would be exceeded."""


class DimensionError(VecchromError):
    """Operands have incompatible sizes."""


class DomainError(VecchromError):
    """A precondition on the inputs is violated."""


class FeasibilityError(VecchromError):
    """A matrix fails constraints it was claimed to satisfy."""


class ConvergenceError(VecchromError):
    """An iterative method stopped before reaching its tolerance.

    ``residual`` records how far the iteration got; ``partial`` carries
    the best available result, if any.
    """

    def __init__(self, message, residual=None, partial=None):
        super().__init__(message)
        self.residual = residual
        self.partial = partial


class ParseError(VecchromError):
    """Malformed input text; ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(VecchromError):
    """Well-formed input that violates a semantic rule."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class LimitExceededError(VecchromError):
    """An exact search proved the answer exceeds the requested limit."""

    def __init__(self, message, limit):
        super().__init__(message)
        self.limit = limit


def _check_tolerance(name: str, value: float):
    """Refuse a tolerance no residual can be checked against."""
    if not 0.0 <= value < float("inf"):  # NaN compares False
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")
