"""The q-deformed zeta series, its truncation rule, and the first-order
zero prediction.

The series deforms the classical zeta zeros: for q = exp(-1/a) close to 1
(a large) and Gaussian damping controlled by d, each classical critical-line
zero at k = y*i moves to a nearby point of the strip 0 < Im k < 2*epsilon,
epsilon = sqrt(pi*a/(2d)).  ``linear_approximation`` predicts that point to
first order in 1/a from eta and eta' values on three vertical lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    DerivativeNearZero,
    NonFiniteResult,
    RangeUnsupported,
)
from .special import DEFAULT_ETA_CONFIG, EtaConfig, zeta_plus, zeta_plus_derivative

__all__ = [
    "SharpParams",
    "StripBounds",
    "SharpFunction",
    "term_ratio",
    "evaluate",
    "select_truncation",
    "linear_approximation",
]


@dataclass(frozen=True)
class StripBounds:
    """Horizontal strip 0 < Im k < 2*epsilon where the deformed zeros live."""

    lower: float
    upper: float


@dataclass(frozen=True)
class SharpParams:
    """Series configuration: deformation scale a, damping d, truncation b.

    The series keeps n_terms = floor(b * sqrt(a/d)) terms; b is the
    user-facing truncation multiplier (see ``select_truncation``).
    """

    a: float
    d: float
    b: int

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError("a must be positive and finite")
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError("d must be positive and finite")
        if self.b < 1:
            raise ValueError("b must be a positive integer")
        if self.n_terms < 1:
            raise ValueError("truncation b*sqrt(a/d) keeps no terms")

    @property
    def q(self) -> float:
        return math.exp(-1.0 / self.a)

    @property
    def n_terms(self) -> int:
        return math.floor(self.b * math.sqrt(self.a / self.d))

    @property
    def epsilon(self) -> float:
        return math.sqrt(math.pi * self.a / (2.0 * self.d))

    @property
    def strip(self) -> StripBounds:
        return StripBounds(0.0, 2.0 * self.epsilon)


_GAUSS_GUARD = 700.0  # below exp overflow (~709); replacement exact there
_DENOM_FLOOR = 1e-300


def _term_ratios(a: float, d: float, k: complex, j: np.ndarray) -> np.ndarray:
    """Multiplicative updates from series term j-1 to term j, for every j.

    The four exponential factors are the j-th factors of the running product;
    the Gaussian quotient shifts from (k+j-1)^2 to (k+j)^2.  Where either
    Gaussian exponent's real part exceeds the overflow guard, the quotient of
    the two (exp(x)+1) factors is replaced by exp(x1-x2), which is exact to
    ~1e-290 there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = 1.0 - np.exp(-(j + 2.0 * k - 1.0) / a)
        e2 = 1.0 - np.exp((j + k) / a)
        e3 = 1.0 - np.exp(-(j + k - 1.0) / a)
        # complex exp like e1-e3: numpy's real exp rounds differently, and
        # 1 - exp(j/a) magnifies a one-ulp difference by a/j
        e4 = 1.0 - np.exp(j / a + 0j)
        degenerate = (np.abs(e3) < _DENOM_FLOOR) | (np.abs(e4) < _DENOM_FLOOR)
        if degenerate.any():
            first = int(j[np.argmax(degenerate)])
            raise DegenerateDenominator(
                f"vanishing denominator factor at j={first}, k={k!r}"
            )
        w1 = k + (j - 1.0)
        w2 = k + j
        x1 = d * (w1 * w1) / (4.0 * a)
        x2 = d * (w2 * w2) / (4.0 * a)
        gauss = np.where(
            (x1.real > _GAUSS_GUARD) | (x2.real > _GAUSS_GUARD),
            np.exp(x1 - x2),
            (np.exp(x1) + 1.0) / (np.exp(x2) + 1.0),
        )
        return ((e1 * e2) / (e3 * e4)) * gauss


def term_ratio(params: SharpParams, k: complex, j: int) -> complex:
    """Multiplicative update from series term j-1 to term j (see
    ``_term_ratios``)."""
    if j < 1:
        raise ValueError("term index j must be >= 1")
    return complex(_term_ratios(params.a, params.d, complex(k), np.array([j]))[0])


def evaluate(params: SharpParams, k: complex) -> complex:
    """Truncated series value at k (term 0 = 1, n_terms terms in total).

    Term j is the running product of the first j term ratios, so the sum is
    one cumulative product over j = 1..n_terms-1.  Evaluation is permitted
    on Im k in [-epsilon, 3*epsilon]: slightly beyond the strip, so contour
    rectangles around zeros near the strip edges fit.
    """
    k = complex(k)
    if not (math.isfinite(k.real) and math.isfinite(k.imag)):
        raise RangeUnsupported(f"non-finite argument {k!r}")
    eps = params.epsilon
    if not -eps <= k.imag <= 3.0 * eps:
        raise RangeUnsupported(
            f"Im k = {k.imag:g} outside evaluation band [{-eps:g}, {3 * eps:g}]"
        )
    ratios = _term_ratios(params.a, params.d, k, np.arange(1, params.n_terms))
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(1.0 + np.cumprod(ratios).sum())
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteResult(f"series overflowed at k={k!r}")
    return value


class SharpFunction:
    """Callable wrapper around ``evaluate`` for the contour machinery."""

    def __init__(self, params: SharpParams):
        self.params = params

    def __call__(self, k: complex) -> complex:
        return evaluate(self.params, k)

    def __repr__(self):
        p = self.params
        return f"SharpFunction(a={p.a:g}, d={p.d:g}, b={p.b})"


# Threshold for the estimated relative size of the first dropped term.  The
# natural-looking 1e-12 misclassifies the b=15/b=20 switchover (it would push
# every run above Im k ~ 25 to b=20); 1e-3 reproduces the observed automatic
# choices: 15 up to region_top = 34, 20 for 37..49 (at a=750, d=2).
_TRUNCATION_THRESHOLD = 1e-3
_B_CANDIDATE_STEP = 5


def select_truncation(a: float, d: float, region_top: float) -> int:
    """Smallest b in {5, 10, 15, ...} whose estimated dropped-term size at
    k = i*region_top is below the calibrated threshold.

    The estimate is the dominant Gaussian decay exp(-d*B^2/(4a)) times the
    product-growth bound prod_l |1-e^((l+k)/a)| / |1-e^(l/a)| on the
    imaginary axis at the top of the evaluation region.
    """
    if not (a > 0 and d > 0):
        raise ValueError("a and d must be positive")
    if not (region_top > 0 and math.isfinite(region_top)):
        raise ValueError("region_top must be positive and finite")
    log_threshold = math.log(_TRUNCATION_THRESHOLD)
    b = _B_CANDIDATE_STEP
    while True:
        n_terms = math.floor(b * math.sqrt(a / d))
        if n_terms >= 1:
            ls = np.arange(1, n_terms + 1)
            growth = np.log(np.abs(1.0 - np.exp((ls + 1j * region_top) / a)))
            growth -= np.log(np.abs(1.0 - np.exp(ls / a)))
            log_estimate = -d * n_terms * n_terms / (4.0 * a) + growth.sum()
            if log_estimate < log_threshold:
                return b
        b += _B_CANDIDATE_STEP


def linear_approximation(
    y: float, a: float, d: float, cfg: EtaConfig = DEFAULT_ETA_CONFIG
) -> complex:
    """First-order prediction of the deformed zero for the classical
    critical-line zero at k = y*i.

    Combines eta at 3/2+yi and -1/2+yi with eta' at 1/2+yi; the correction
    is proportional to 1/(12a), so the prediction tends to y*i as a grows.
    """
    if not y > 0:
        raise ValueError("y must be positive")
    yi = complex(0.0, y)
    eta_prime = zeta_plus_derivative(0.5 + yi, cfg)
    if abs(eta_prime) < 1e-10:
        raise DerivativeNearZero(
            f"eta'(1/2 + {y:g}i) ~ 0; not a simple-zero ordinate"
        )
    numerator = (4.0 / d) * (0.5 + yi) * zeta_plus(1.5 + yi, cfg) - d * (
        -1.0 + yi
    ) * zeta_plus(-0.5 + yi, cfg)
    denominator = 12.0 * a * eta_prime
    return yi * (1.0 - numerator / denominator)
