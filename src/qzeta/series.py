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
from collections.abc import Sequence

import numpy as np

from ._record import Value
from .errors import (
    DegenerateDenominator,
    DerivativeNearZero,
    NonFiniteResult,
    QZetaError,
    RangeUnsupported,
)
from .special import zeta_plus_triple

__all__ = [
    "MAX_SERIES_TERMS",
    "SharpParams",
    "evaluate",
    "select_truncation",
    "linear_approximation",
]


# Most series terms any configuration may keep.  The reference run keeps 387
# and the sweep at most about 1650; the cap stops a huge a from allocating
# gigabytes (select_truncation's and the kernel's arrays grow with n_terms).
MAX_SERIES_TERMS = 100_000


class SharpParams(Value):
    """Series configuration: deformation scale a, damping d, truncation b;
    also the series' evaluator for the contour machinery.

    The series keeps n_terms = floor(b * sqrt(a/d)) terms; b is the
    user-facing truncation multiplier (see ``select_truncation``).  Calling
    it at a point gives the series value there, and ``many``, the
    vectorised form the contour sampler uses, maps a 1-D array of points
    to their values (both through ``evaluate``).
    """

    __slots__ = ("a", "d", "b", "_rows")
    __match_args__ = ("a", "d", "b")

    def __init__(self, a: float, d: float, b: int):
        if not (a > 0 and math.isfinite(a)):
            raise ValueError("a must be positive and finite")
        if not (d > 0 and math.isfinite(d)):
            raise ValueError("d must be positive and finite")
        if b < 1:
            raise ValueError("b must be a positive integer")
        terms = b * math.sqrt(a / d)  # inf if a/d overflows
        if terms < 1:
            raise ValueError("truncation b*sqrt(a/d) keeps no terms")
        if terms >= MAX_SERIES_TERMS + 1:
            raise ValueError(
                f"truncation b*sqrt(a/d) keeps more than {MAX_SERIES_TERMS} terms"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_rows", None)  # the kernel's index rows, on first use

    @property
    def n_terms(self) -> int:
        return math.floor(self.b * math.sqrt(self.a / self.d))

    @property
    def epsilon(self) -> float:
        return math.sqrt(math.pi * self.a / (2.0 * self.d))

    @property
    def pole_line(self) -> float:
        """Im k = 2*epsilon, the top of the search strip."""
        return 2.0 * self.epsilon

    def in_strip(self, z: complex) -> bool:
        """The search strip: 0 < Im z < 2*epsilon, cut at |Re z| < 2*epsilon."""
        return 0.0 < z.imag < self.pole_line and abs(z.real) < self.pole_line

    def __call__(self, k: complex) -> complex:
        return complex(evaluate(self, np.array([complex(k)]))[0])

    def many(self, points: np.ndarray) -> np.ndarray:
        return evaluate(self, points)

    def _series_rows(self) -> tuple:
        """``_index_rows`` of the series' j = 1..n_terms-1, built on first use."""
        if self._rows is None:
            object.__setattr__(self, "_rows", _index_rows(self.a, np.arange(1, self.n_terms)))
        return self._rows


_GAUSS_GUARD = 700.0  # below exp overflow (~709); replacement exact there
# Points per kernel pass inside one ``evaluate`` call.  A block's working set
# (a few block x n_terms complex arrays) stays in cache and peak memory stays
# near that of one-point evaluation; at 289 and 387 terms, blocks of 8 points
# ran faster than blocks of 4 or of 16.
_POINT_BLOCK = 8


def _index_rows(a: float, j: np.ndarray) -> tuple:
    """The rows of ``_term_ratios`` that depend on the term index alone, for
    ascending consecutive indices j (any range, a single j included): j,
    alpha1, 1 + alpha1, alpha2, 1 + alpha2, and the Gaussian's indices
    m = j[0]-1..j[-1]."""
    alpha1 = np.expm1((1.0 - j) / a)
    alpha2 = np.expm1(j / a)
    return j, alpha1, 1.0 + alpha1, alpha2, 1.0 + alpha2, np.concatenate((j[:1] - 1, j))


def _term_ratios(a: float, d: float, k: np.ndarray, rows: tuple) -> np.ndarray:
    """Multiplicative updates from series term j-1 to term j, for the
    indices j of ``rows`` (from ``_index_rows(a, j)``), at every point of
    the 1-D array k; returns a (points, len(j)) array.  Callers silence
    numpy's overflow and invalid warnings; an overflow ends up non-finite in
    the result.

    Each exponential factor 1 - exp(u + v), with u depending on j alone and
    v on k alone, is written -(alpha + (1 + alpha)*beta), alpha = expm1(u)
    from the rows and beta = expm1(v) computed once per point: no per-term
    exp and no 1 - exp cancellation at small exponents.  With
    alpha1 = expm1(-(j-1)/a) and alpha2 = expm1(j/a), the factors are
    E1 = alpha1 + (1+alpha1)*expm1(-2k/a), E2 = alpha2 + (1+alpha2)*expm1(k/a),
    E3 = alpha1 + (1+alpha1)*expm1(-k/a) and -alpha2; their signs cancel.
    The Gaussian quotient shifts from (k+j-1)^2 to (k+j)^2, so it divides
    adjacent columns of G_m = exp(x_m) + 1, x_m = d*(k+m)^2/(4a),
    m = j[0]-1..j[-1], and the ratio is E1*E2*G_{j-1} / (E3*alpha2*G_j), one
    complex division per term.  Where either Gaussian exponent's real part
    exceeds the overflow guard, G_{j-1}/G_j is replaced by exp(x1-x2), which
    is exact to ~1e-290 there.  The block arithmetic runs in place, each
    element through the same operations, in the same order, as the formula.

    E3 vanishes exactly at the real points k = 1 - j; such a point raises
    ``DegenerateDenominator``.
    """
    j, alpha1, alpha1_plus1, alpha2, alpha2_plus1, m = rows
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
    k = k[:, None]
    ratios = alpha1_plus1 * np.expm1(-2.0 * k / a)
    np.add(alpha1, ratios, out=ratios)  # E1
    factor = alpha2_plus1 * np.expm1(k / a)
    np.add(alpha2, factor, out=factor)  # E2
    ratios *= factor
    np.multiply(alpha1_plus1, np.expm1(-k / a), out=factor)
    np.add(alpha1, factor, out=factor)  # E3
    factor *= alpha2  # E3*alpha2
    x = k + m
    x *= x
    np.multiply(d, x, out=x)
    x /= 4.0 * a
    shifted = np.exp(x)
    shifted += 1.0
    above, below = shifted[:, :-1], shifted[:, 1:]
    over = x.real > _GAUSS_GUARD
    if over.any():
        guard = over[:, :-1] | over[:, 1:]
        above = np.where(guard, np.exp(x[:, :-1] - x[:, 1:]), above)
        below = np.where(guard, 1.0, below)
    ratios *= above  # E1*E2*G_{j-1}
    factor *= below  # E3*alpha2*G_j
    ratios /= factor
    return ratios


def evaluate(params: SharpParams, points: np.ndarray) -> np.ndarray:
    """Truncated series values (term 0 = 1, n_terms terms in total) at a 1-D
    array of points, each bitwise the value the point alone gives.

    The points go through the kernel in the fewest blocks of at most
    _POINT_BLOCK + 1 points, of near-equal size, so a contour pass's 4c
    samples and its centre make ceil(c/2) blocks.  Term j is the running
    product of the first j term ratios, so each sum is one cumulative
    product over j = 1..n_terms-1.  Evaluation is permitted on Im k in
    [-epsilon, 3*epsilon]: slightly beyond the strip, so contour rectangles
    around zeros near the strip edges fit.  A failed check names the first
    offending point.
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 1:
        raise ValueError("points must be a 1-D array")
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
    a, d, rows = params.a, params.d, params._series_rows()
    count = len(points)
    blocks = max(1, -(-(count - 1) // _POINT_BLOCK))  # ceil((count-1)/_POINT_BLOCK)
    edges = [-(-i * count // blocks) for i in range(blocks + 1)]  # ceil(i*count/blocks)
    values = np.empty(count, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(edges, edges[1:]):
            ratios = _term_ratios(a, d, points[start:stop], rows)
            values[start:stop] = 1.0 + np.cumprod(ratios, axis=1, out=ratios).sum(axis=1)
    overflowed = ~np.isfinite(values)
    if overflowed.any():
        bad = complex(points[np.argmax(overflowed)])
        raise NonFiniteResult(f"series overflowed at k={bad!r}")
    return values


# Threshold for the estimated relative size of the first dropped term.  The
# natural-looking 1e-12 misclassifies the b=15/b=20 switchover (it would push
# every run above Im k ~ 25 to b=20); 1e-3 reproduces the observed automatic
# choices: 15 up to region_top = 34, 20 for 37..49 (at a=750, d=2).
_TRUNCATION_THRESHOLD = 1e-3
_B_CANDIDATE_STEP = 5


def select_truncation(a: float, d: float, region_tops: Sequence[float | QZetaError]) -> list:
    """For each top t of ``region_tops``, the smallest b in {5, 10, 15, ...}
    whose estimated dropped-term size at k = i*t is below the calibrated
    threshold: one entry per top, its b or the ``QZetaError`` that top alone
    raises.  A top that is already a ``QZetaError`` (its seed failed an
    earlier planning step) comes back unchanged; a or d not positive, or
    any other top not positive and finite, raises ``ValueError``.

    The estimate is the dominant Gaussian decay exp(-d*B^2/(4a)) times the
    product-growth bound prod_l |1-e^((l+k)/a)| / |1-e^(l/a)| on the
    imaginary axis at the top of the evaluation region, B = floor(b*sqrt(a/d))
    the number of terms b keeps.  With m = expm1(l/a),
    |1-e^((l+it)/a)|^2 = m^2 + (1+m)*4*sin^2(t/(2a)), so the log of each
    factor is real arithmetic, 0.5*log1p((1+m)*4*sin^2(t/(2a))/m^2).  One
    forward scan tries the candidates in order: each extends the running
    log sum of every top still without a b by the terms it adds, one
    sequential cumulative sum, so each term is summed once.  The first
    candidate is the smallest that keeps a term (b*sqrt(a/d) >= 1).  An
    estimate that is not finite (e^(l/a) overflows) gives
    ``RangeUnsupported``, and so does reaching a candidate that would keep
    more than MAX_SERIES_TERMS terms, before anything that long is
    allocated, or a first candidate past 2**53 (a/d may underflow to 0).
    """
    if not (a > 0 and d > 0):
        raise ValueError("a and d must be positive")
    tops = list(region_tops)
    results: list = [None] * len(tops)  # b or error per top
    chords = {}  # 4*sin^2(t/(2a)) of each top still without a b
    for i, top in enumerate(tops):
        if isinstance(top, QZetaError):
            results[i] = top
            continue
        if not (top > 0 and math.isfinite(top)):
            raise ValueError("region_top must be positive and finite")
        angle = top / (2.0 * a)
        if math.isfinite(angle):
            chords[i] = 4.0 * math.sin(angle) ** 2
        else:
            results[i] = RangeUnsupported(
                f"truncation estimate not finite for a={a:g}, d={d:g}, "
                f"region_top={top:g}"
            )
    log_threshold = math.log(_TRUNCATION_THRESHOLD)
    b = _B_CANDIDATE_STEP  # the first candidate that keeps a term
    root = math.sqrt(a / d)
    if b * root < 1:
        # past 2**53, rounding would decide a candidate's n_terms
        b = math.inf
        if root * 2.0**53 >= 1:
            b = _B_CANDIDATE_STEP * math.ceil(1.0 / (_B_CANDIDATE_STEP * root))
            while b * root < 1:
                b += _B_CANDIDATE_STEP
        if not b <= 2**53:
            for i in chords:
                results[i] = RangeUnsupported(
                    f"truncation b*sqrt(a/d) keeps no term for any b up to 2**53 "
                    f"at a={a:g}, d={d:g}, region_top={tops[i]:g}"
                )
            chords.clear()
    sums = dict.fromkeys(chords, 0.0)  # log growth over the terms summed
    summed = 0  # terms in each running sum
    while chords:
        if not b * root < MAX_SERIES_TERMS + 1:  # b*root may be inf
            for i in chords:
                results[i] = RangeUnsupported(
                    f"no truncation b keeping at most {MAX_SERIES_TERMS} "
                    f"series terms meets the threshold at a={a:g}, "
                    f"d={d:g}, region_top={tops[i]:g}"
                )
            break
        n = math.floor(b * root)
        with np.errstate(over="ignore"):
            m = np.expm1(np.arange(summed + 1, n + 1) / a)
        # column 0 holds each running sum, so the cumulative sum makes the
        # additions a sum over all n terms would
        table = np.empty((len(chords), n - summed + 1))
        table[:, 0] = [sums[i] for i in chords]
        growth = table[:, 1:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.multiply.outer(list(chords.values()), 1.0 + m, out=growth)
            growth /= m * m
            np.log1p(growth, out=growth)
            growth *= 0.5
            np.cumsum(table, axis=1, out=table)
        for i, total in zip(list(chords), table[:, -1].tolist()):
            log_estimate = -d * n * n / (4.0 * a) + total
            if not math.isfinite(log_estimate):
                results[i] = RangeUnsupported(
                    f"truncation estimate not finite at b={b} for "
                    f"a={a:g}, d={d:g}, region_top={tops[i]:g}"
                )
            elif log_estimate < log_threshold:
                results[i] = b
            else:
                sums[i] = total
                continue
            del chords[i]
        summed = n
        b += _B_CANDIDATE_STEP
    return results


def linear_approximation(ys: Sequence[float], a: float, d: float) -> list:
    """First-order prediction of the deformed zero for the classical
    critical-line zero at k = y*i, for each ordinate y of ``ys``: one entry
    per ordinate, its prediction or the ``QZetaError`` that ordinate alone
    raises.  An ordinate that is not positive raises ``ValueError``.

    Combines eta at 3/2+yi and -1/2+yi with eta' at 1/2+yi, all three from
    ``zeta_plus_triple``; the correction is proportional to 1/(12a), so the
    prediction tends to y*i as a grows.  The eta values of all ordinates
    come from one ``zeta_plus_triple`` call, so they share its passes.
    """
    if not all(y > 0 for y in ys):
        raise ValueError("y must be positive")
    zas: list = []
    for y_i, triple in zip(ys, zeta_plus_triple(ys)):
        try:
            if isinstance(triple, Exception):
                raise triple
            eta_prime, eta_right, eta_left = triple
            if abs(eta_prime) < 1e-10:
                raise DerivativeNearZero(
                    f"eta'(1/2 + {y_i:g}i) ~ 0; not a simple-zero ordinate"
                )
            yi = complex(0.0, y_i)
            numerator = (4.0 / d) * (0.5 + yi) * eta_right - d * (-1.0 + yi) * eta_left
            denominator = 12.0 * a * eta_prime
            za = yi * (1.0 - numerator / denominator)
            # a finite za may still have a modulus that overflows
            if not math.isfinite(math.hypot(za.real, za.imag)):
                raise NonFiniteResult(
                    f"first-order prediction at y={y_i:g}, a={a:g}, d={d:g} is {za!r}"
                )
            zas.append(za)
        except QZetaError as exc:
            zas.append(exc)
    return zas
