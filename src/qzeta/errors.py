"""Exception types shared across the package."""


class QZetaError(Exception):
    """Base class for all package-specific errors."""


class PoleAtOne(QZetaError):
    """zeta(s) requested at (or too close to) the pole s = 1."""


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


class UsageError(QZetaError):
    """Bad command-line arguments (exit status 2)."""
