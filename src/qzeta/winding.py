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
reports can then show the classic four-side angle sums.  A refinement pass
evaluates only the points it inserts and recomputes only the phase increments
next to them.  The winding count, the gap metric, and a first-moment estimate
of the enclosed zero are all read off the refined trace.  ``integrate`` is the
one entry point: it samples, refines and measures, and its result carries the
refined trace.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate, groupby
from operator import sub, truediv
from typing import Callable

from ._record import Record, Value
from .errors import EVALUATION_FAULTS, NonFiniteResult, ZeroOnContour

__all__ = [
    "AnalyticFunction",
    "Rectangle",
    "BoundaryTrace",
    "IntegrationResult",
    "integrate",
]

AnalyticFunction = Callable[[complex], complex]

_CONTOUR_FLOOR = 1e-280
_TWO_PI = 2.0 * math.pi

_GAP_THRESHOLD = 1.0  # radians; matches the gap metric's trigger
# per-side jump that forces a split regardless of the summed gaps; keeps
# every segment's phase change well under the pi branch limit
_SIDE_GAP_LIMIT = 2.8
_MAX_DEPTH = 3
_GRID = 2**_MAX_DEPTH  # integer sample offsets per parameter interval


class Rectangle(Value):
    """Axis-aligned rectangle: center, half-width rd, half-height rad."""

    __slots__ = __match_args__ = ("center", "rd", "rad")

    def __init__(self, center: complex, rd: float, rad: float):
        if not (rd > 0 and rad > 0):
            raise ValueError("rectangle half-dimensions must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "rd", rd)
        object.__setattr__(self, "rad", rad)

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


class BoundaryTrace(Record):
    """Counterclockwise boundary samples with unwrapped angles.

    ``positions`` is shared by all four sides: the ascending sample
    positions along a side, as integers on a grid of _GRID steps for each of
    its c parameter intervals (the main points are the multiples of _GRID;
    refinement inserts midpoints).  ``points``, ``samples`` (the function
    values) and ``angles`` hold one entry per boundary sample, side by side,
    so the n-th position of side s sits at index s*m + n with
    m = len(positions).
    ``closing_angle`` continues the unwrapped sequence back to the first
    sample, so (closing_angle - angles[0]) / 2*pi is the discrete winding
    estimate.
    """

    __slots__ = __match_args__ = (
        "rect", "c", "positions", "points", "samples", "angles", "closing_angle",
    )

    def __init__(self, rect: Rectangle, c: int, positions: list[int], points: list[complex],
                 samples: list[complex], angles: list[float], closing_angle: float):
        self.rect = rect
        self.c = c
        self.positions = positions
        self.points = points
        self.samples = samples
        self.angles = angles
        self.closing_angle = closing_angle

    @property
    def winding(self) -> float:
        return (self.closing_angle - self.angles[0]) / _TWO_PI

    def display_rows(self) -> list[tuple[str, float]]:
        """Four-side angle sums, one row per shared sample position.

        Row "i" (1-based interval) sums the unwrapped angles at the i-th main
        point of each of the four sides; "i m" are the refined positions in
        t-order; the final row c+1 closes the boundary, so last minus first
        equals the full winding.
        """
        labels = [
            str(i + 1) if j == 0 else f"{i + 1} {j}"
            for i, group in groupby(self.positions, lambda pos: pos // _GRID)
            for j in range(len(list(group)))
        ]
        return list(zip(labels + [str(self.c + 1)], _row_sums(self)))


def _row_sums(trace: BoundaryTrace) -> list[float]:
    """The values of ``display_rows``: the four sides' angles summed per
    shared position, then the closing row."""
    a, m = trace.angles, len(trace.positions)
    rows = list(map(sum, zip(a, a[m:], a[2 * m :], a[3 * m :])))
    rows.append(sum((a[m], a[2 * m], a[3 * m])) + trace.closing_angle)
    return rows


def _sample(f: AnalyticFunction, sides, c: int, positions, extra=()):
    """Points at the shared grid positions, side by side counterclockwise,
    and f there, then at the extra points: in one ``many`` call when f
    provides it, otherwise one call each.  ``sides`` holds each side's start
    corner and its edge vector.  Names the first boundary point where |f| is
    below the floor, else the first point where f is not finite."""
    ts = [pos / (c * _GRID) for pos in positions]
    points = [start + t * edge for start, edge in sides for t in ts]
    many = getattr(f, "many", None)
    wanted = [*points, *extra]
    if many:
        import numpy as np  # an evaluator with ``many`` takes a numpy array

        values = list(map(complex, many(np.array(wanted))))
        if len(values) != len(wanted):
            raise ValueError(f"{len(values)} values for {len(wanted)} points")
    else:
        values = list(map(complex, map(f, wanted)))
    # one min() over |f| decides whether to look for the offender; a nan
    # ahead of a sub-floor value makes min() return the nan, which fails
    # ">=" as well
    try:
        clear = min(map(abs, values[: len(points)])) >= _CONTOUR_FLOOR
    except OverflowError:  # |f| past the float range; the loop meets it in order
        clear = False
    if not clear:
        for value, point in zip(values, points):
            if abs(value) < _CONTOUR_FLOOR:
                raise ZeroOnContour(
                    f"|f| < {_CONTOUR_FLOOR:g} at boundary point {point!r}; "
                    "perturb the rectangle"
                )
    if not all(map(cmath.isfinite, values)):
        point = next(p for p, value in zip(wanted, values) if not cmath.isfinite(value))
        raise NonFiniteResult(f"f is not finite at {point!r}")
    return points, values


def _traced(f, rect, c, passes, extra=()) -> tuple[BoundaryTrace, list[complex]]:
    """The trace after up to ``passes`` refinement passes, and f at the extra
    points, which are evaluated with the opening pass.

    A pass bisects, on all four sides at once, each parameter interval whose
    four-side angle sum (or a single side) jumps past its threshold.  It
    keeps the phase increment ``steps[k]`` (sample k to the next) of samples
    that stay adjacent and computes only the two around each inserted
    sample; the angles are their running sum, the same float additions in
    the same order as a fresh unwrap.  Gaps that survive the last pass are
    left for the gap metric to report.
    """
    if c < 3:
        raise ValueError("need at least 3 points per side")
    corners = rect.corners()
    sides = [(start, end - start) for start, end in zip(corners, corners[1:] + corners[:1])]
    positions = list(range(0, c * _GRID, _GRID))
    points, values = _sample(f, sides, c, positions, extra)
    values, extra_values = values[: 4 * c], values[4 * c :]
    steps = list(map(cmath.phase, map(truediv, values[1:] + values[:1], values)))
    angles = list(accumulate(steps, initial=cmath.phase(values[0])))
    for _ in range(passes):
        m, ends = len(positions), positions[1:] + [c * _GRID]
        # the split test reads angle differences, not the stored increments:
        # the two differ in the last bit
        gaps = list(map(sub, angles[1:], angles))
        split = [
            n
            for n, (g0, g1, g2, g3) in enumerate(
                zip(gaps, gaps[m:], gaps[2 * m :], gaps[3 * m :])
            )
            if (
                abs(g0 + g1 + g2 + g3) > _GAP_THRESHOLD
                or abs(g0) > _SIDE_GAP_LIMIT
                or abs(g1) > _SIDE_GAP_LIMIT
                or abs(g2) > _SIDE_GAP_LIMIT
                or abs(g3) > _SIDE_GAP_LIMIT
            )
            and ends[n] - positions[n] > 1
        ]
        if not split:
            break
        mids = [(positions[n] + ends[n]) // 2 for n in split]
        new_points, new_values = _sample(f, sides, c, mids)
        # insert from the back, so the indices still to visit hold; the last
        # sample of side 3 is followed by sample 0 (the closing segment)
        ks = [side * m + n for side in range(4) for n in split]
        for k, point, value in reversed(list(zip(ks, new_points, new_values))):
            steps[k] = cmath.phase(value / values[k])
            steps.insert(k + 1, cmath.phase(values[(k + 1) % (4 * m)] / value))
            values.insert(k + 1, value)
            points.insert(k + 1, point)
        positions = sorted(positions + mids)
        angles = list(accumulate(steps, initial=cmath.phase(values[0])))
    closing = angles.pop()
    return BoundaryTrace(rect, c, positions, points, values, angles, closing), extra_values


def fo_from_angles(angles: list[float]) -> int:
    """Worst-gap metric over a consecutive angle sequence:
    max{1 + floor(2(|gap| - 1))} over gaps exceeding 1, else 0."""
    # 1 + floor(2(gap - 1)) never decreases as the gap grows, so the worst
    # gap gives the maximum; max() starts from 0.0, which no nan gap replaces
    worst = max([0.0, *map(abs, map(sub, angles[1:], angles))])
    return 1 + math.floor(2.0 * (worst - 1.0)) if worst > 1.0 else 0


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
    m = len(trace.positions)
    mains = [n for n, pos in enumerate(trace.positions) if pos % _GRID == 0]
    order = [side * m + n for side in range(4) for n in mains]
    points, samples, angles = trace.points, trace.samples, trace.angles
    # one pass over the main samples, each segment carrying the previous
    # sample's point, value, |value|, log and angle; the last segment closes
    # on sample 0 at the closing angle
    later = order[1:]
    p0, v0, a0 = points[0], samples[0], angles[0]
    abs0 = abs(v0)
    log0 = math.log(abs0)
    total = 0.0 + 0.0j
    for idx, a1 in zip(later + [0], [*map(angles.__getitem__, later), trace.closing_angle]):
        p1, v1 = points[idx], samples[idx]
        abs1 = abs(v1)
        log1 = math.log(abs1)
        delta = complex(log1 - log0, a1 - a0)
        contribution = (0.5 * (p0 + p1) - zn) * delta
        dv = v1 - v0
        if abs(dv) > 1e-14 * (abs0 + abs1):
            # subtract the midpoint-log rule's error under the local linear
            # model f ~ (k - root)/slope, slope = (p1 - p0)/dv; exact for linear f
            contribution -= (p1 - p0) / dv * (0.5 * (v0 + v1) * delta - dv)
        total += contribution
        p0, v0, abs0, log0, a0 = p1, v1, abs1, log1, a1
    return zn + total / (2j * math.pi)


class IntegrationResult(Record):
    """One contour integration: winding defect, gap metric, zero estimate,
    residual ratio against the rectangle center, and the refined trace."""

    __slots__ = __match_args__ = (
        "char", "fo", "z_estimate", "trace", "abs_center", "value_estimate",
    )

    def __init__(self, char: float, fo: int, z_estimate: complex, trace: BoundaryTrace,
                 abs_center: float, value_estimate: complex | None):
        # 1 minus the discrete winding count, 0 for one enclosed simple zero;
        # left unrounded, as its distance from an integer is a quadrature
        # diagnostic
        self.char = char
        self.fo = fo  # gap metric of the display rows' (four-side summed) angles
        self.z_estimate = z_estimate
        self.trace = trace
        self.abs_center = abs_center
        # f(z_estimate); None on an evaluation fault or |f| past the float range
        self.value_estimate = value_estimate

    @property
    def abs_estimate(self) -> float:
        """|f(z_estimate)|; inf when value_estimate is None."""
        return math.inf if self.value_estimate is None else abs(self.value_estimate)

    @property
    def vv(self) -> float:
        """Residual ratio |f(z_estimate)| / |f(center)|; inf at a zero center."""
        return self.abs_estimate / self.abs_center if self.abs_center > 0 else math.inf

    @property
    def inside(self) -> bool:
        """Whether the estimate lies strictly inside the rectangle."""
        return self.trace.rect.contains(self.z_estimate)


def integrate(f: AnalyticFunction, rect: Rectangle, c: int) -> IntegrationResult:
    """sample -> refine -> winding/gap/zero-estimate/residual bundle.  The
    rectangle center is evaluated with the opening samples."""
    trace, (center_value,) = _traced(f, rect, c, _MAX_DEPTH, [rect.center])
    z_estimate = moment_zero_estimate(trace)
    try:
        value_estimate = complex(f(z_estimate))
        abs(value_estimate)  # raises OverflowError past the float range
    except EVALUATION_FAULTS:
        value_estimate = None
    return IntegrationResult(
        char=1.0 - trace.winding,
        fo=fo_from_angles(_row_sums(trace)),
        z_estimate=z_estimate,
        trace=trace,
        abs_center=abs(center_value),
        value_estimate=value_estimate,
    )
