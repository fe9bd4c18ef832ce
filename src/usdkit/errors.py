"""Exception types shared across the toolkit."""


class UsdError(Exception):
    """Base class for all toolkit errors."""


class InvalidDimensionError(UsdError, ValueError):
    """Raised when a dimension argument is below the minimum of 2."""


class DomainError(UsdError, ValueError):
    """Raised when an angle or overlap lies outside its admissible interval."""


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
