"""Exception types shared across the package."""

from __future__ import annotations


class ParamError(ValueError):
    """Invalid problem parameters.

    ``code`` identifies the offending parameter ("N", "p", "q", "gamma",
    "alpha", "s", ...) so callers can react programmatically.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NumericalError(RuntimeError):
    """A numerical routine produced non-finite values or failed to converge."""


class DivergentNormError(ArithmeticError):
    """A requested norm integral diverges for the given tail behaviour."""

    def __init__(self, norm: str, message: str):
        super().__init__(message)
        self.norm = norm


class NearCriticalWarning(UserWarning):
    """q is within floating-point tolerance of the critical exponent."""
