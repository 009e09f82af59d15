"""Exception types shared across the package."""


class CatscanError(Exception):
    """Base class for all catscan errors."""


class InvalidArgument(CatscanError, ValueError):
    """An argument violates a documented precondition."""


class ZeroNorm(CatscanError, ValueError):
    """A state vector has (numerically) vanishing norm."""


class TruncationError(CatscanError):
    """The truncation order is too small for the requested operation."""


class RegionError(CatscanError):
    """A search landed on the boundary of its region."""


class NonFiniteResult(CatscanError, ValueError):
    """A computed result is NaN or infinite, so no artifact can hold it."""
