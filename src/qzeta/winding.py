"""Argument-principle machinery over axis-aligned rectangles.

Works for any analytic function supplied as a deterministic callable
complex -> complex that is finite and nonvanishing on the contours it is
probed on.  An evaluator may also provide ``many(points)``, which maps a 1-D
complex array of points to the array of their values; the sampler then
evaluates each pass's new points in one call.

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
from typing import Callable

import numpy as np

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

_GAP_THRESHOLD = 1.0  # radians; matches the gap metric's trigger
_MAX_DEPTH = 3
_GRID = 2**_MAX_DEPTH  # integer sample offsets per parameter interval


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
class BoundaryTrace:
    """Counterclockwise boundary samples with unwrapped angles.

    ``offsets`` is shared by all four sides: entry i lists the sample
    positions inside the i-th of the c per-side intervals, as integers on a
    grid of _GRID steps per interval (always starting at 0; refinement
    inserts midpoints).  ``points``, ``samples`` (the function values) and
    ``angles`` hold one entry per boundary sample, side by side, so the n-th
    shared position of side s sits at index s*m + n with m = per_side().
    ``closing_angle`` continues the unwrapped sequence back to the first
    sample, so (closing_angle - angles[0]) / 2*pi is the discrete winding
    estimate.  ``function`` and ``cache`` (function values keyed by (side,
    grid position)) let ``refine_trace`` add samples without re-evaluating
    old ones.
    """

    rect: Rectangle
    c: int
    offsets: list[list[int]]
    points: list[complex]
    samples: list[complex]
    angles: list[float]
    closing_angle: float
    function: AnalyticFunction = field(repr=False, compare=False)
    cache: dict = field(repr=False, compare=False)

    @property
    def winding(self) -> float:
        return (self.closing_angle - self.angles[0]) / _TWO_PI

    def per_side(self) -> int:
        return sum(len(group) for group in self.offsets)

    def max_gap(self) -> float:
        angles = self.angles + [self.closing_angle]
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
        rows = [
            (
                str(i + 1) if j == 0 else f"{i + 1} {j}",
                sum(self.angles[side * m + n] for side in range(4)),
            )
            for n, (i, j) in enumerate(_positions(self.offsets))
        ]
        closing = sum(
            self.angles[side * m] for side in (1, 2, 3)
        ) + self.closing_angle
        rows.append((str(self.c + 1), closing))
        return rows


def _positions(offsets: list[list[int]]) -> list[tuple[int, int]]:
    """(interval, rank inside the interval) of each shared sample position,
    in t-order; the list index is the position's flat index n."""
    return [(i, j) for i, group in enumerate(offsets) for j in range(len(group))]


def _nonvanishing(value: complex, point: complex) -> complex:
    if abs(value) < _CONTOUR_FLOOR:
        raise ZeroOnContour(
            f"|f| < {_CONTOUR_FLOOR:g} at boundary point {point!r}; "
            "perturb the rectangle"
        )
    return value


def _sample(
    f: AnalyticFunction, rect: Rectangle, c: int, offsets, cache: dict
) -> tuple[list[complex], list[complex]]:
    """One pass's points and values in counterclockwise order.  Only the
    uncached points are evaluated: in one ``many`` call when f provides it,
    otherwise one call each."""
    corners = rect.corners()
    keys, points = [], []
    for side in range(4):
        start = corners[side]
        edge = corners[(side + 1) % 4] - start
        for i, group in enumerate(offsets):
            for off in group:
                pos = i * _GRID + off
                keys.append((side, pos))
                points.append(start + pos / (c * _GRID) * edge)
    new = [(key, point) for key, point in zip(keys, points) if key not in cache]
    if new:
        new_points = [point for _, point in new]
        many = getattr(f, "many", None)
        values = many(np.array(new_points)) if many else [f(k) for k in new_points]
        for (key, point), value in zip(new, values, strict=True):
            cache[key] = _nonvanishing(complex(value), point)
    return points, [cache[key] for key in keys]


def _unwrap(values: list[complex]) -> tuple[list[float], float]:
    """Continuous angles of the values and the closing angle."""
    angles = [cmath.phase(values[0])]
    for prev, here in zip(values, values[1:]):
        angles.append(angles[-1] + cmath.phase(here / prev))
    return angles, angles[-1] + cmath.phase(values[0] / values[-1])


def _trace(f, rect, c, offsets, cache) -> BoundaryTrace:
    points, values = _sample(f, rect, c, offsets, cache)
    angles, closing = _unwrap(values)
    return BoundaryTrace(rect, c, offsets, points, values, angles, closing, f, cache)


def sample_boundary(f: AnalyticFunction, rect: Rectangle, c: int) -> BoundaryTrace:
    """Evaluate f at c equally spaced points per side (counterclockwise from
    the bottom-left corner) and unwrap the argument sequence."""
    if c < 3:
        raise ValueError("need at least 3 points per side")
    return _trace(f, rect, c, [[0] for _ in range(c)], {})


# per-side jump that forces a split regardless of the summed gaps; keeps
# every segment's phase change well under the pi branch limit
_SIDE_GAP_LIMIT = 2.8


def refine_trace(trace: BoundaryTrace) -> BoundaryTrace:
    """Bisect parameter intervals wherever consecutive displayed angles (the
    four-side sums) differ by more than _GAP_THRESHOLD; repeat up to
    _MAX_DEPTH passes.

    Bisection inserts the midpoint position on all four sides, keeping the
    side-by-side alignment of the displayed angle sums.  A single side
    jumping close to the branch limit forces a split too.  Gaps that survive
    _MAX_DEPTH passes are left for the gap metric to report.
    """
    for _ in range(_MAX_DEPTH):
        offsets = [list(group) for group in trace.offsets]
        m = trace.per_side()
        angles = trace.angles + [trace.closing_angle]
        to_split = []
        for n, (i, j) in enumerate(_positions(offsets)):
            summed_gap = 0.0
            side_gap = 0.0
            for side in range(4):
                idx = side * m + n
                step = angles[idx + 1] - angles[idx]
                summed_gap += step
                side_gap = max(side_gap, abs(step))
            if abs(summed_gap) > _GAP_THRESHOLD or side_gap > _SIDE_GAP_LIMIT:
                group = offsets[i]
                hi = group[j + 1] if j + 1 < len(group) else _GRID
                if hi - group[j] > 1:
                    to_split.append((i, j))
        if not to_split:
            break
        for i, j in reversed(to_split):
            group = offsets[i]
            hi = group[j + 1] if j + 1 < len(group) else _GRID
            group.insert(j + 1, (group[j] + hi) // 2)
        trace = _trace(trace.function, trace.rect, trace.c, offsets, trace.cache)
    return trace


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
    mains = [n for n, (_, j) in enumerate(_positions(trace.offsets)) if j == 0]
    order = [side * m + n for side in range(4) for n in mains]
    points = [trace.points[idx] for idx in order] + [trace.points[0]]
    values = [trace.samples[idx] for idx in order] + [trace.samples[0]]
    angles = [trace.angles[idx] for idx in order] + [trace.closing_angle]

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


def integrate(f: AnalyticFunction, rect: Rectangle, c: int) -> IntegrationResult:
    """sample -> refine -> winding/gap/zero-estimate/residual bundle."""
    trace = refine_trace(sample_boundary(f, rect, c))
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
