"""Exception types shared across the package, and the scalar range check."""

import math


class PmedError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(PmedError, ValueError):
    """A scalar parameter is outside its admissible range."""


def require(name: str, value: float, lo: float, hi: float | None = None) -> None:
    """Raise InvalidParameterError unless lo < value < inf (or lo < value <=
    hi), so NaN and +-inf fail."""
    if not (lo < value < math.inf if hi is None else lo < value <= hi):
        bound = f"> {lo:g}" if hi is None else f"in ({lo:g}, {hi:g}]"
        raise InvalidParameterError(f"{name} must be {bound}, got {value}")


class InvalidTimeError(InvalidParameterError):
    """Evaluation time outside the validity window of a profile."""


class InvalidInputError(InvalidParameterError):
    """Input data violates an operation precondition."""


class StepTooLargeError(PmedError):
    """Requested time step exceeds the stability limit."""


class DomainOverflowError(PmedError):
    """Support reached the margin of the computational box."""


class DomainTooSmallError(PmedError):
    """The requested profile does not fit inside the box."""


class UnsupportedPotentialError(PmedError):
    """Operation requires a strictly convex potential."""


class OutOfCylinderError(PmedError):
    """Rescaled barrier evaluated outside its validity cylinder."""


class EmptyBoundarySetError(PmedError):
    """A boundary set required to be nonempty is empty."""


class BoundaryGapError(PmedError):
    """A trajectory snapshot has no detectable support boundary."""

    def __init__(self, times):
        self.times = list(times)
        super().__init__(
            "empty support boundary at t = "
            + ", ".join(f"{t:.6g}" for t in self.times)
        )


class ConfigError(PmedError):
    """Configuration rejected; carries the full list of validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
