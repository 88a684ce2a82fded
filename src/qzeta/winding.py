"""Argument-principle machinery over axis-aligned rectangles.

Works for any analytic function supplied as a deterministic callable
complex -> complex that is finite and nonvanishing on the contours it is
probed on.

A rectangle boundary is sampled counterclockwise with c points per side
(4c points, corners included once), and the function arguments are unwrapped
into a continuous angle sequence.  Where consecutive unwrapped angles jump by
more than the gap threshold, the offending parameter interval is bisected on
all four sides at once, so the refined samples stay aligned side by side;
reports can then show the classic four-side angle sums.  The winding count,
the gap metric, and a first-moment estimate of the enclosed zero are all read
off the refined trace.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import ZeroOnContour

__all__ = [
    "AnalyticFunction",
    "Rectangle",
    "BoundaryTrace",
    "IntegrationResult",
    "sample_boundary",
    "refine_trace",
    "compute_char",
    "compute_fo",
    "fo_from_angles",
    "moment_zero_estimate",
    "integrate",
]

AnalyticFunction = Callable[[complex], complex]

_CONTOUR_FLOOR = 1e-280
_TWO_PI = 2.0 * math.pi

DEFAULT_GAP_THRESHOLD = 1.0  # radians; matches the gap metric's trigger
DEFAULT_MAX_DEPTH = 3


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle: center, half-width rd, half-height rad."""

    center: complex
    rd: float
    rad: float

    def __post_init__(self):
        if not (self.rd > 0 and self.rad > 0):
            raise ValueError("rectangle half-dimensions must be positive")

    def corners(self) -> tuple[complex, complex, complex, complex]:
        zn, rd, rad = self.center, self.rd, self.rad
        return (
            zn - rd - 1j * rad,
            zn + rd - 1j * rad,
            zn + rd + 1j * rad,
            zn - rd + 1j * rad,
        )

    def contains(self, z: complex) -> bool:
        """Strict interior test."""
        return (
            abs(z.real - self.center.real) < self.rd
            and abs(z.imag - self.center.imag) < self.rad
        )

    def point_at(self, side: int, t: float) -> complex:
        """Point at parameter t in [0, 1) along side 0..3, counterclockwise
        from the bottom-left corner."""
        cs = self.corners()
        start, end = cs[side], cs[(side + 1) % 4]
        return start + t * (end - start)


@dataclass
class BoundarySample:
    side: int
    interval: int
    offset: Fraction  # position within the interval, dyadic in [0, 1)
    point: complex
    value: complex
    angle: float = 0.0


@dataclass
class BoundaryTrace:
    """Ordered counterclockwise boundary samples with unwrapped angles.

    ``offsets`` is shared by all four sides: entry i lists the sample
    positions inside the i-th of the c per-side intervals (always starting
    at 0; refinement inserts dyadic midpoints).  ``closing_angle`` continues
    the unwrapped sequence back to the first sample, so
    (closing_angle - angles[0]) / 2*pi is the discrete winding estimate.
    ``function`` and ``cache`` (function values keyed by (side, interval,
    offset)) let ``refine_trace`` add samples without re-evaluating old ones.
    """

    rect: Rectangle
    c: int
    offsets: list[list[Fraction]]
    samples: list[BoundarySample]
    closing_angle: float
    function: AnalyticFunction = field(repr=False, compare=False)
    cache: dict = field(repr=False, compare=False)

    @property
    def winding(self) -> float:
        return (self.closing_angle - self.samples[0].angle) / _TWO_PI

    def per_side(self) -> int:
        return sum(len(group) for group in self.offsets)

    def max_gap(self) -> float:
        angles = [s.angle for s in self.samples] + [self.closing_angle]
        return max(
            abs(b - a) for a, b in zip(angles, angles[1:])
        )

    def display_rows(self) -> list[tuple[str, float]]:
        """Four-side angle sums, one row per shared sample position.

        Row "i" (1-based interval) sums the unwrapped angles at the i-th main
        point of each of the four sides; "i m" are the refined positions in
        t-order; the final row c+1 closes the boundary, so last minus first
        equals the full winding.
        """
        m = self.per_side()
        rows = []
        flat = 0
        for i, group in enumerate(self.offsets):
            for j in range(len(group)):
                label = str(i + 1) if j == 0 else f"{i + 1} {j}"
                total = sum(
                    self.samples[side * m + flat].angle for side in range(4)
                )
                rows.append((label, total))
                flat += 1
        closing = sum(
            self.samples[side * m].angle for side in (1, 2, 3)
        ) + self.closing_angle
        rows.append((str(self.c + 1), closing))
        return rows


def _evaluate_or_raise(f: AnalyticFunction, point: complex) -> complex:
    value = complex(f(point))
    if abs(value) < _CONTOUR_FLOOR:
        raise ZeroOnContour(
            f"|f| < {_CONTOUR_FLOOR:g} at boundary point {point!r}; "
            "perturb the rectangle"
        )
    return value


def _build_samples(
    f: AnalyticFunction, rect: Rectangle, c: int, offsets, cache: dict
) -> list[BoundarySample]:
    samples = []
    for side in range(4):
        for i in range(c):
            for off in offsets[i]:
                point = rect.point_at(side, (i + float(off)) / c)
                key = (side, i, off)
                if key not in cache:
                    cache[key] = _evaluate_or_raise(f, point)
                samples.append(BoundarySample(side, i, off, point, cache[key]))
    return samples


def _unwrap(samples: list[BoundarySample]) -> float:
    """Assign continuous angles; returns the closing angle."""
    first = samples[0]
    first.angle = cmath.phase(first.value)
    for prev, here in zip(samples, samples[1:]):
        here.angle = prev.angle + cmath.phase(here.value / prev.value)
    last = samples[-1]
    return last.angle + cmath.phase(first.value / last.value)


def sample_boundary(f: AnalyticFunction, rect: Rectangle, c: int) -> BoundaryTrace:
    """Evaluate f at c equally spaced points per side (counterclockwise from
    the bottom-left corner) and unwrap the argument sequence."""
    if c < 3:
        raise ValueError("need at least 3 points per side")
    offsets = [[Fraction(0)] for _ in range(c)]
    cache: dict = {}
    samples = _build_samples(f, rect, c, offsets, cache)
    return BoundaryTrace(rect, c, offsets, samples, _unwrap(samples), f, cache)


# per-side jump that forces a split regardless of the summed gaps; keeps
# every segment's phase change well under the pi branch limit
_SIDE_GAP_LIMIT = 2.8


def refine_trace(
    trace: BoundaryTrace,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> BoundaryTrace:
    """Bisect parameter intervals wherever consecutive displayed angles (the
    four-side sums) differ by more than gap_threshold; repeat up to max_depth
    passes.

    Bisection inserts the midpoint position on all four sides, keeping the
    side-by-side alignment of the displayed angle sums.  A single side
    jumping close to the branch limit forces a split too.  Gaps that survive
    max_depth passes are left for the gap metric to report.
    """
    f, cache = trace.function, trace.cache
    rect, c = trace.rect, trace.c
    offsets = [list(group) for group in trace.offsets]
    samples = list(trace.samples)
    closing = trace.closing_angle

    for _ in range(max_depth):
        m = sum(len(g) for g in offsets)
        angles = [s.angle for s in samples] + [closing]
        to_split = []
        flat = 0
        for i in range(c):
            group = offsets[i]
            for j in range(len(group)):
                summed_gap = 0.0
                side_gap = 0.0
                for side in range(4):
                    idx = side * m + flat
                    step = angles[idx + 1] - angles[idx]
                    summed_gap += step
                    side_gap = max(side_gap, abs(step))
                if abs(summed_gap) > gap_threshold or side_gap > _SIDE_GAP_LIMIT:
                    hi = group[j + 1] if j + 1 < len(group) else Fraction(1)
                    if hi - group[j] > Fraction(1, 2**max_depth):
                        to_split.append((i, j))
                flat += 1
        if not to_split:
            break
        for i, j in reversed(to_split):
            group = offsets[i]
            lo = group[j]
            hi = group[j + 1] if j + 1 < len(group) else Fraction(1)
            group.insert(j + 1, (lo + hi) / 2)
        samples = _build_samples(f, rect, c, offsets, cache)
        closing = _unwrap(samples)

    return BoundaryTrace(rect, c, offsets, samples, closing, f, cache)


def compute_char(trace: BoundaryTrace) -> float:
    """1 minus the discrete winding count; 0 flags one enclosed simple zero.

    Left unrounded: its distance from an integer is a quadrature diagnostic.
    """
    return 1.0 - trace.winding


def fo_from_angles(angles: list[float]) -> int:
    """Worst-gap metric over a consecutive angle sequence:
    max{1 + floor(2(|gap| - 1))} over gaps exceeding 1, else 0."""
    fo = 0
    for a, b in zip(angles, angles[1:]):
        gap = abs(b - a)
        if gap > 1.0:
            fo = max(fo, 1 + math.floor(2.0 * (gap - 1.0)))
    return fo


def compute_fo(trace: BoundaryTrace) -> int:
    """Gap metric of the displayed (four-side summed) angle sequence."""
    return fo_from_angles([value for _, value in trace.display_rows()])


def moment_zero_estimate(trace: BoundaryTrace) -> complex:
    """Location of the (assumed unique) enclosed simple zero.

    Discretizes (1/2*pi*i) * contour integral of (k - zn) f'/f dk over the
    c main points per side, as midpoint times branch-continuous log
    difference per segment (the refined sub-samples guarantee the branch
    tracking).  A local linear-model term removes the rule's leading error,
    making the estimate exact for linear functions on any rectangle; the zn
    shift removes the large-coordinate cancellation.
    """
    zn = trace.rect.center
    m = trace.per_side()
    mains = []
    flat = 0
    for group in trace.offsets:
        mains.append(flat)
        flat += len(group)
    order = [side * m + j for side in range(4) for j in mains]
    points = [trace.samples[idx].point for idx in order]
    values = [trace.samples[idx].value for idx in order]
    angles = [trace.samples[idx].angle for idx in order]
    points.append(trace.samples[0].point)
    values.append(trace.samples[0].value)
    angles.append(trace.closing_angle)

    total = 0.0 + 0.0j
    for i in range(len(order)):
        delta = complex(
            math.log(abs(values[i + 1])) - math.log(abs(values[i])),
            angles[i + 1] - angles[i],
        )
        contribution = (0.5 * (points[i] + points[i + 1]) - zn) * delta
        dv = values[i + 1] - values[i]
        if abs(dv) > 1e-14 * (abs(values[i]) + abs(values[i + 1])):
            # subtract the midpoint-log rule's error under the local linear
            # model f ~ (k - root)/slope; exact cancellation for linear f
            slope = (points[i + 1] - points[i]) / dv
            contribution -= slope * (
                0.5 * (values[i] + values[i + 1]) * delta - dv
            )
        total += contribution
    return zn + total / (2j * math.pi)


@dataclass
class IntegrationResult:
    """One contour integration: winding defect, gap metric, zero estimate,
    residual ratio against the rectangle center, and the refined trace."""

    char: float
    fo: int
    z_estimate: complex
    vv: float
    trace: BoundaryTrace
    inside: bool
    abs_center: float
    abs_estimate: float


def integrate(
    f: AnalyticFunction,
    rect: Rectangle,
    c: int,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> IntegrationResult:
    """sample -> refine -> winding/gap/zero-estimate/residual bundle."""
    trace = refine_trace(sample_boundary(f, rect, c), gap_threshold, max_depth)
    char = compute_char(trace)
    fo = compute_fo(trace)
    z_estimate = moment_zero_estimate(trace)
    abs_center = abs(complex(f(rect.center)))
    try:
        abs_estimate = abs(complex(f(z_estimate)))
    except Exception:
        abs_estimate = math.inf
    vv = abs_estimate / abs_center if abs_center > 0 else math.inf
    return IntegrationResult(
        char=char,
        fo=fo,
        z_estimate=z_estimate,
        vv=vv,
        trace=trace,
        inside=rect.contains(z_estimate),
        abs_center=abs_center,
        abs_estimate=abs_estimate,
    )
