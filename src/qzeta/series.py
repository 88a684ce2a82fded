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
from .special import zeta_plus, zeta_plus_derivative

__all__ = [
    "SharpParams",
    "SharpFunction",
    "term_ratio",
    "evaluate",
    "select_truncation",
    "linear_approximation",
]


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


_GAUSS_GUARD = 700.0  # below exp overflow (~709); replacement exact there
# Points per kernel pass inside one ``evaluate`` call.  A block's working set
# (a few block x n_terms complex arrays) stays in cache and peak memory stays
# near that of one-point evaluation; at 289 and 387 terms, blocks of 8 points
# ran faster than blocks of 4 or of 16.
_POINT_BLOCK = 8


def _term_ratios(a: float, d: float, k: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Multiplicative updates from series term j-1 to term j, for ascending
    consecutive indices j, at every point of the 1-D array k; returns a
    (points, len(j)) array.  Callers silence numpy's overflow and invalid
    warnings; an overflow ends up non-finite in the result.

    Each exponential factor 1 - exp(u + v), with u depending on j alone and
    v on k alone, is written -(alpha + (1 + alpha)*beta), alpha = expm1(u)
    computed once per call and beta = expm1(v) once per point: no per-term
    exp and no 1 - exp cancellation at small exponents.  With
    alpha1 = expm1(-(j-1)/a) and alpha2 = expm1(j/a), the factors are
    E1 = alpha1 + (1+alpha1)*expm1(-2k/a), E2 = alpha2 + (1+alpha2)*expm1(k/a),
    E3 = alpha1 + (1+alpha1)*expm1(-k/a) and -alpha2; their signs cancel.
    The Gaussian quotient shifts from (k+j-1)^2 to (k+j)^2, so it divides
    adjacent columns of G_m = exp(x_m) + 1, x_m = d*(k+m)^2/(4a),
    m = j[0]-1..j[-1], and the ratio is E1*E2*G_{j-1} / (E3*alpha2*G_j), one
    complex division per term.  Where either Gaussian exponent's real part
    exceeds the overflow guard, G_{j-1}/G_j is replaced by exp(x1-x2), which
    is exact to ~1e-290 there.

    E3 vanishes exactly at the real points k = 1 - j; such a point raises
    ``DegenerateDenominator``.
    """
    if j.size and not k.imag.all():
        index = 1.0 - k.real
        degenerate = (
            (k.imag == 0.0) & (np.floor(k.real) == k.real)
            & (j[0] <= index) & (index <= j[-1])
        )
        if degenerate.any():
            point = np.argmax(degenerate)
            raise DegenerateDenominator(
                f"vanishing denominator factor at j={int(index[point])}, "
                f"k={complex(k[point])!r}"
            )
    alpha1 = np.expm1((1.0 - j) / a)
    alpha2 = np.expm1(j / a)
    k = k[:, None]
    e1 = alpha1 + (1.0 + alpha1) * np.expm1(-2.0 * k / a)
    e2 = alpha2 + (1.0 + alpha2) * np.expm1(k / a)
    e3 = alpha1 + (1.0 + alpha1) * np.expm1(-k / a)
    w = k + np.concatenate((j[:1] - 1, j))
    x = d * (w * w) / (4.0 * a)
    shifted = np.exp(x) + 1.0
    above, below = shifted[:, :-1], shifted[:, 1:]
    over = x.real > _GAUSS_GUARD
    if over.any():
        guard = over[:, :-1] | over[:, 1:]
        above = np.where(guard, np.exp(x[:, :-1] - x[:, 1:]), above)
        below = np.where(guard, 1.0, below)
    return (e1 * e2 * above) / (e3 * alpha2 * below)


def term_ratio(params: SharpParams, k: complex, j: int) -> complex:
    """Multiplicative update from series term j-1 to term j (see
    ``_term_ratios``); a ratio that is not finite raises ``NonFiniteResult``."""
    if j < 1:
        raise ValueError("term index j must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = _term_ratios(
            params.a, params.d, np.array([complex(k)]), np.array([j])
        )
    ratio = complex(ratios[0, 0])
    if not (math.isfinite(ratio.real) and math.isfinite(ratio.imag)):
        raise NonFiniteResult(f"term ratio not finite at j={j}, k={complex(k)!r}")
    return ratio


def evaluate(params: SharpParams, k: complex | np.ndarray) -> complex | np.ndarray:
    """Truncated series value at k (term 0 = 1, n_terms terms in total).

    k is one point, which gives a complex, or a 1-D array of points, which
    gives an array of values, each bitwise the one the point alone gives;
    the points go through the kernel in blocks of _POINT_BLOCK.  Term j is
    the running product of the first j term ratios, so each sum is one
    cumulative product over j = 1..n_terms-1.  Evaluation is permitted on
    Im k in [-epsilon, 3*epsilon]: slightly beyond the strip, so contour
    rectangles around zeros near the strip edges fit.  A failed check names
    the first offending point.
    """
    scalar = np.ndim(k) == 0
    points = np.array([complex(k)]) if scalar else np.asarray(k, dtype=complex)
    if points.ndim != 1:
        raise ValueError("k must be a point or a 1-D array of points")
    eps = params.epsilon
    outside = ~(
        np.isfinite(points) & (-eps <= points.imag) & (points.imag <= 3.0 * eps)
    )
    if outside.any():
        bad = complex(points[np.argmax(outside)])
        if not (math.isfinite(bad.real) and math.isfinite(bad.imag)):
            raise RangeUnsupported(f"non-finite argument {bad!r}")
        raise RangeUnsupported(
            f"Im k = {bad.imag:g} outside evaluation band [{-eps:g}, {3 * eps:g}]"
        )
    a, d, j = params.a, params.d, np.arange(1, params.n_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate([
            1.0 + np.cumprod(
                _term_ratios(a, d, points[start:start + _POINT_BLOCK], j), axis=1
            ).sum(axis=1)
            # an empty input still makes one (empty) block
            for start in range(0, max(len(points), 1), _POINT_BLOCK)
        ])
    overflowed = ~np.isfinite(values)
    if overflowed.any():
        bad = complex(points[np.argmax(overflowed)])
        raise NonFiniteResult(f"series overflowed at k={bad!r}")
    return complex(values[0]) if scalar else values


class SharpFunction:
    """Callable wrapper around ``evaluate`` for the contour machinery.

    ``many`` is the vectorised form the contour sampler uses when an
    evaluator provides it: a 1-D array of points in, their values out.
    """

    def __init__(self, params: SharpParams):
        self.params = params

    def __call__(self, k: complex) -> complex:
        return evaluate(self.params, k)

    def many(self, points: np.ndarray) -> np.ndarray:
        return evaluate(self.params, points)

    def __repr__(self):
        p = self.params
        return f"SharpFunction(a={p.a:g}, d={p.d:g}, b={p.b})"


# Threshold for the estimated relative size of the first dropped term.  The
# natural-looking 1e-12 misclassifies the b=15/b=20 switchover (it would push
# every run above Im k ~ 25 to b=20); 1e-3 reproduces the observed automatic
# choices: 15 up to region_top = 34, 20 for 37..49 (at a=750, d=2).
_TRUNCATION_THRESHOLD = 1e-3
_B_CANDIDATE_STEP = 5
# Candidates b tried by the first pass (b <= 20 covers the reference run);
# each later pass doubles the count.
_B_FIRST_CANDIDATES = 4


def select_truncation(a: float, d: float, region_top: float) -> int:
    """Smallest b in {5, 10, 15, ...} whose estimated dropped-term size at
    k = i*region_top is below the calibrated threshold.

    The estimate is the dominant Gaussian decay exp(-d*B^2/(4a)) times the
    product-growth bound prod_l |1-e^((l+k)/a)| / |1-e^(l/a)| on the
    imaginary axis at the top of the evaluation region, B = floor(b*sqrt(a/d))
    the number of terms b keeps.  With t = region_top and m = expm1(l/a),
    |1-e^((l+it)/a)|^2 = m^2 + (1+m)*4*sin^2(t/(2a)), so the log of each
    factor is real arithmetic, 0.5*log1p((1+m)*4*sin^2(t/(2a))/m^2).  One
    cumulative sum of those logs gives every candidate's estimate at its B;
    when no candidate of a pass is below the threshold, the next pass
    doubles the number of candidates.  An estimate that is not finite (e^(l/a)
    overflows) raises ``RangeUnsupported``.
    """
    if not (a > 0 and d > 0):
        raise ValueError("a and d must be positive")
    if not (region_top > 0 and math.isfinite(region_top)):
        raise ValueError("region_top must be positive and finite")
    log_threshold = math.log(_TRUNCATION_THRESHOLD)
    root = math.sqrt(a / d)
    chord_sq = 4.0 * math.sin(region_top / (2.0 * a)) ** 2
    count = _B_FIRST_CANDIDATES
    while True:
        bs = range(_B_CANDIDATE_STEP, _B_CANDIDATE_STEP * count + 1, _B_CANDIDATE_STEP)
        n_terms = [math.floor(b * root) for b in bs]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = np.expm1(np.arange(1, n_terms[-1] + 1) / a)
            growth = np.cumsum(0.5 * np.log1p((1.0 + m) * chord_sq / (m * m)))
        for b, n in zip(bs, n_terms):
            if n < 1:
                continue
            log_estimate = -d * n * n / (4.0 * a) + growth[n - 1]
            if not math.isfinite(log_estimate):
                raise RangeUnsupported(
                    f"truncation estimate not finite at b={b} for a={a:g}, "
                    f"d={d:g}, region_top={region_top:g}"
                )
            if log_estimate < log_threshold:
                return b
        count *= 2


def linear_approximation(y: float, a: float, d: float) -> complex:
    """First-order prediction of the deformed zero for the classical
    critical-line zero at k = y*i.

    Combines eta at 3/2+yi and -1/2+yi with eta' at 1/2+yi; the correction
    is proportional to 1/(12a), so the prediction tends to y*i as a grows.
    """
    if not y > 0:
        raise ValueError("y must be positive")
    yi = complex(0.0, y)
    eta_prime = zeta_plus_derivative(0.5 + yi)
    if abs(eta_prime) < 1e-10:
        raise DerivativeNearZero(
            f"eta'(1/2 + {y:g}i) ~ 0; not a simple-zero ordinate"
        )
    numerator = (4.0 / d) * (0.5 + yi) * zeta_plus(1.5 + yi) - d * (
        -1.0 + yi
    ) * zeta_plus(-0.5 + yi)
    denominator = 12.0 * a * eta_prime
    za = yi * (1.0 - numerator / denominator)
    if not (math.isfinite(za.real) and math.isfinite(za.imag)):
        raise NonFiniteResult(
            f"first-order prediction at y={y:g}, a={a:g}, d={d:g} is {za!r}"
        )
    return za
