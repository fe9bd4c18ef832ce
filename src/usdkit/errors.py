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


def instance(value, kind: type, error: type[UsdError], name: str):
    """``value`` if it is a ``kind``; otherwise ``error`` naming ``name`` and the type it got."""
    if isinstance(value, kind):
        return value
    raise error(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


TABLE = "(..., d, d+1)"  #: the ``shape`` of ``rows`` for a table of d rows of d+1 outcomes


def rows(value, name: str, shape=None, error: type[UsdError] = InvalidDimensionError) -> np.ndarray:
    """A read-only copy, in its own int or float dtype, of a non-empty array with two or more axes,
    or of exactly ``shape`` (a tuple, or ``TABLE``); anything else raises ``error`` naming it."""
    try:
        array = np.array(value)
    except ValueError:  # a ragged list
        array = np.array(())
    want = (*array.shape[:-1], array.shape[-2] + 1) if shape == TABLE and array.ndim > 1 else shape
    if array.dtype.kind not in "iuf" or not array.size or (  # no bool, str, complex or object
            array.ndim < 2 if want is None else array.shape != want):
        need = "2 or more axes" if shape is None else f"shape {shape}"
        raise error(f"{name} must be a non-empty real array with {need}, got {value!r}")
    array.setflags(write=False)
    return array
