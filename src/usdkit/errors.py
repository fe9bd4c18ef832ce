"""Exception types shared across the toolkit, and the one rule of each kind of argument."""

import math
import sys

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


def dimension(d) -> int:
    """The int of an integer d >= 2 that fits in a float (``3.0`` and ``np.array(3)`` are valid)."""
    try:
        valid = int(d) == d and d >= 2
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, other non-numbers
        valid = False
    if valid and d <= sys.float_info.max:
        return int(d)
    need = "fit in a float" if valid else "be an integer >= 2"
    raise InvalidDimensionError(f"dimension must {need}, got {d!r}")


def rows(value, error: type[UsdError], name: str) -> np.ndarray:
    """A float copy of a non-empty array of reals (ints or floats) with two or more axes."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.array(())
    if array.ndim < 2 or not array.size or array.dtype.kind not in "iuf":  # no bool, str, complex
        raise error(f"{name} must be a non-empty real array with 2 or more axes, got {value!r}")
    return array.astype(float)
