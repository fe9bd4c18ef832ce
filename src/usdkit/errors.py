"""Exception types shared across the toolkit, and the one rule of a real-number argument."""

import math

import numpy as np

_NOT_NUMBERS = (bool, np.bool_, str, bytes)  # float() takes each, yet none is a number


class UsdError(Exception):
    """Base class for all toolkit errors."""


class InvalidDimensionError(UsdError, ValueError):
    """Raised when a dimension argument is below the minimum of 2."""


class DomainError(UsdError, ValueError):
    """Raised when an angle, an overlap or another number lies outside its admissible domain."""


class DegenerateFamilyError(UsdError, ValueError):
    """Raised when the states are too close to collinear to be discriminated, or
    a vector set fails its structural checks."""


class ConfigurationError(UsdError, ValueError):
    """Raised when an experiment configuration is unusable as given."""


class InsufficientDataError(UsdError, ValueError):
    """Raised when a counts record lacks the singles needed for normalization."""


class DegenerateRowError(UsdError, ValueError):
    """Raised when a preparation row carries no correlated signal, so the
    quantum-contrast normalization denominator is nonpositive."""


def real(value, error: type[UsdError] | None = None, name: str = "value") -> float:
    """The float of a finite real number, the rule each owner applies before its range check;
    a rejected value raises ``error`` naming ``name`` and the value, or without it is NaN."""
    try:  # an int beyond the float range overflows: a number, but not finite
        number = None if isinstance(value, _NOT_NUMBERS) else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        number = math.inf if isinstance(exc, OverflowError) else None
    if number is not None and math.isfinite(number):
        return number
    if error is None:
        return math.nan
    raise error(f"{name} must be {'a number' if number is None else 'finite'}, got {value!r}")
