"""Exception types shared across the package."""

__all__ = [
    "QZetaError", "RangeUnsupported", "DegenerateDenominator", "NonFiniteResult",
    "DerivativeNearZero", "ZeroOnContour",
]


class QZetaError(Exception):
    """Base class for all package-specific errors."""


class RangeUnsupported(QZetaError):
    """Argument outside the numerically supported region."""


class DegenerateDenominator(QZetaError):
    """A series term ratio has a vanishing denominator factor."""


class NonFiniteResult(QZetaError):
    """A computation produced NaN/Inf that the overflow guards did not catch."""


class DerivativeNearZero(QZetaError):
    """The eta derivative vanishes where a simple zero was expected."""


class ZeroOnContour(QZetaError):
    """|f| fell below the contour floor at a boundary sample; the rectangle
    must be perturbed before integrating."""


# What a function under search may raise that the search records: a point
# outside the series band, a non-finite sum, an overflow, a division by zero.
# Anything else is a fault in the program and propagates.
EVALUATION_FAULTS = (QZetaError, ArithmeticError)
