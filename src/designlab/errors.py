"""Exception types shared across the package."""

__all__ = [
    "DesignLabError", "PrecisionError", "OffsetError", "CapExceededError",
    "FixtureError", "InternalCheckError",
]


class DesignLabError(Exception):
    """Base class for all package-specific failures."""


class PrecisionError(DesignLabError):
    """An operation tried to read q-series coefficients beyond what is known."""


class OffsetError(DesignLabError):
    """Two series live on q-exponent grids that cannot be combined."""


class CapExceededError(DesignLabError):
    """An enumeration would exceed its configured size cap."""


class FixtureError(DesignLabError):
    """A bundled fixture file is missing or malformed."""


class InternalCheckError(DesignLabError):
    """A result failed a consistency check that holds for correct code."""
