import cmath
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qzeta import (
    NonFiniteResult,
    Rectangle,
    SharpParams,
    ZeroOnContour,
    integrate,
)
from qzeta.winding import _MAX_DEPTH, _traced, fo_from_angles, moment_zero_estimate


def poly_from_roots(roots, scale=1.0):
    def f(k):
        value = complex(scale)
        for r in roots:
            value *= k - r
        return value

    return f


class BatchLinear:
    """k - root, with the vectorised ``many`` method of an evaluator."""

    def __init__(self, root):
        self.root = root

    def __call__(self, k):
        return k - self.root

    def many(self, points):
        return points - self.root


class SpecialValues:
    """1 everywhere but at the given points, with a ``many`` method."""

    def __init__(self, special):
        self.special = special

    def __call__(self, k):
        return self.special.get(k, 1.0 + 0j)

    def many(self, points):
        return [self(k) for k in points]


class TestRectangle:
    def test_corners_and_containment(self):
        r = Rectangle(1 + 2j, 0.5, 0.25)
        assert r.corners()[0] == 0.5 + 1.75j
        assert r.contains(1 + 2j)
        assert not r.contains(1.5 + 2j)  # boundary is not inside

    def test_validation(self):
        with pytest.raises(ValueError):
            Rectangle(0j, 0.0, 0.1)


class TestSampling:
    def test_minimum_density(self):
        with pytest.raises(ValueError):
            _traced(lambda k: k + 5, Rectangle(0j, 1.0, 0.5), 2, 0)

    def test_constant_function(self):
        trace = _traced(lambda k: 2 + 1j, Rectangle(0j, 1.0, 0.5), 4, 0)[0]
        assert trace.winding == 0.0
        assert len(set(trace.angles)) == 1

    def test_zero_on_contour_detected(self):
        corner = 1.0 + 0.5j
        with pytest.raises(ZeroOnContour):
            _traced(lambda k: k - corner, Rectangle(0j, 1.0, 0.5), 4, 0)

    def test_zero_on_contour_detected_in_batch(self):
        corner = 1.0 + 0.5j
        with pytest.raises(ZeroOnContour, match=re.escape(repr(corner))):
            _traced(BatchLinear(corner), Rectangle(0j, 1.0, 0.5), 4, 0)

    @pytest.mark.parametrize("batch", [False, True], ids=["pointwise", "many"])
    @pytest.mark.parametrize(
        "special, named",
        [
            ({-1 - 0.5j: math.nan, 1 - 0.5j: 0.0}, 1 - 0.5j),
            # the first below the floor is named, not the smallest
            ({-1 - 0.5j: math.nan, 1 + 0.5j: 1e-300, -1 + 0.5j: 0.0}, 1 + 0.5j),
            # abs() of the later value overflows
            ({-1 - 0.5j: 0.0, 1 - 0.5j: complex(1.7e308, 1.7e308)}, -1 - 0.5j),
        ],
        ids=["nan-then-zero", "nan-then-two-below-the-floor", "zero-then-overflow"],
    )
    def test_first_point_below_the_floor_is_named(self, special, named, batch):
        # the corners are samples 0, c, 2c and 3c, in sampling order
        f = SpecialValues(special) if batch else lambda k: special.get(k, 1.0 + 0j)
        with pytest.raises(ZeroOnContour, match=re.escape(f"boundary point {named!r};")):
            _traced(f, Rectangle(0j, 1.0, 0.5), 4, 0)

    @pytest.mark.parametrize("batch", [False, True], ids=["pointwise", "many"])
    @pytest.mark.parametrize(
        "special, named",
        [
            ({1 + 0.5j: math.inf, 1 - 0.5j: complex(0.0, math.nan)}, 1 - 0.5j),
            # the centre is evaluated after the boundary
            ({0j: math.nan}, 0j),
        ],
        ids=["boundary", "centre"],
    )
    def test_first_point_not_finite_is_named(self, special, named, batch):
        f = SpecialValues(special) if batch else lambda k: special.get(k, 1.0 + 0j)
        with pytest.raises(NonFiniteResult, match=re.escape(f"f is not finite at {named!r}")):
            _traced(f, Rectangle(0j, 1.0, 0.5), 4, 0, [0j])

    def test_angles_are_unwrapped_principal_args(self):
        f = poly_from_roots([0.2 + 0.1j])
        trace = _traced(f, Rectangle(0j, 1.0, 0.5), 6, 0)[0]
        angles = trace.angles + [trace.closing_angle]
        for a, b in zip(angles, angles[1:]):
            assert abs(b - a) <= math.pi
        for angle, value in zip(trace.angles, trace.samples, strict=True):
            residue = (angle - cmath.phase(value)) / (2 * math.pi)
            assert abs(residue - round(residue)) < 1e-9


class TestRefinement:
    def test_no_op_when_gaps_small(self):
        trace = _traced(lambda k: k + 10, Rectangle(0j, 1.0, 0.5), 6, 0)[0]
        refined = integrate(lambda k: k + 10, Rectangle(0j, 1.0, 0.5), 6).trace
        assert len(refined.positions) == len(trace.positions)

    def test_cubic_winding_after_refinement(self):
        center = 0.2 + 0.3j
        f = lambda k: (k - center) ** 3
        trace = integrate(f, Rectangle(center, 0.5, 0.25), 4).trace
        assert abs(trace.winding - 3.0) <= 0.01

    def test_max_gap_never_increases(self):
        def max_gap(trace):
            angles = trace.angles + [trace.closing_angle]
            return max(abs(b - a) for a, b in zip(angles, angles[1:]))

        f = SharpParams(750.0, 2.0, 15)
        rect = Rectangle(0.130263 + 14.1465j, 0.0477578, 0.0238789)
        raw = _traced(f, rect, 4, 0)[0]
        refined = integrate(f, rect, 4).trace
        assert max_gap(refined) <= max_gap(raw) + 1e-12

    def test_refined_offsets_and_points_on_the_grid(self):
        rect = Rectangle(0.130263 + 14.1465j, 0.0477578, 0.0238789)
        # c = 3 is no power of two, so t = pos / (3 * grid) rounds
        trace = integrate(PAPER_B15, rect, 3).trace
        grid = 2**_MAX_DEPTH
        assert len(trace.positions) > trace.c
        assert all(
            type(pos) is int and 0 <= pos < trace.c * grid for pos in trace.positions
        )
        assert trace.positions == sorted(set(trace.positions))
        assert set(range(0, trace.c * grid, grid)) <= set(trace.positions)
        m = len(trace.positions)
        assert len(trace.points) == len(trace.samples) == len(trace.angles) == 4 * m
        corners = rect.corners()
        for side in range(4):
            start, end = corners[side], corners[(side + 1) % 4]
            for n, pos in enumerate(trace.positions):
                t = (pos // grid + pos % grid / grid) / trace.c
                assert trace.points[side * m + n] == start + t * (end - start)

    def test_display_rows_close_the_boundary(self):
        f = poly_from_roots([0.1 + 0.2j, 3 + 3j])
        trace = integrate(f, Rectangle(0j, 1.0, 0.6), 5).trace
        rows = trace.display_rows()
        total = rows[-1][1] - rows[0][1]
        assert abs(total - 2 * math.pi * trace.winding) < 1e-9


class TestGapMetric:
    def test_formula_cases(self):
        assert fo_from_angles([0.0, 0.5, 1.0]) == 0
        assert fo_from_angles([0.0, 1.4]) == 1  # 1 + floor(2*0.4)
        assert fo_from_angles([0.0, 2.3]) == 3  # 1 + floor(2*1.3)

    def test_refined_trace_usually_clean(self):
        f = poly_from_roots([0.0j])
        assert integrate(f, Rectangle(0j, 1.0, 0.5), 6).fo == 0


class TestChar:
    def test_single_zero(self):
        f = poly_from_roots([0.1 - 0.05j])
        assert abs(integrate(f, Rectangle(0j, 1.0, 0.5), 4).char) <= 0.01

    def test_double_zero(self):
        f = lambda k: (k - 0.1j) ** 2
        assert abs(integrate(f, Rectangle(0j, 1.0, 0.5), 4).char + 1.0) <= 0.01

    def test_orientation_reflection_negates_count(self):
        center = 0.5 + 0.5j
        f = poly_from_roots([0.4 + 0.45j, 0.7 + 0.6j])  # two roots inside

        def reflected(k):
            # mirror the argument about the center's horizontal axis: the
            # boundary is then traversed effectively clockwise
            return f((k - center).conjugate() + center)

        rect = Rectangle(center, 0.6, 0.4)
        char_f = integrate(f, rect, 6).char
        char_g = integrate(reflected, rect, 6).char
        assert abs((char_g - 1.0) + (char_f - 1.0)) < 0.02


class TestMomentEstimate:
    def test_linear_targets_anywhere_inside(self):
        rng = random.Random(2)
        for _ in range(25):
            rect = Rectangle(
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0.2, 1.5),
                rng.uniform(0.1, 1.0),
            )
            k0 = rect.center + complex(
                rng.uniform(-0.9, 0.9) * rect.rd, rng.uniform(-0.9, 0.9) * rect.rad
            )
            trace = integrate(lambda k: k - k0, rect, 6).trace
            estimate = moment_zero_estimate(trace)
            assert abs(estimate - k0) <= 1e-6 * (rect.rd + rect.rad)

    def test_random_cubics(self):
        rng = random.Random(3)
        for _ in range(40):
            rect = Rectangle(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                rng.uniform(0.3, 1.0),
                rng.uniform(0.2, 0.8),
            )
            diam = 2 * math.hypot(rect.rd, rect.rad)
            inside = rect.center + complex(
                rng.uniform(-0.5, 0.5) * rect.rd, rng.uniform(-0.5, 0.5) * rect.rad
            )
            a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            outside = [
                rect.center + 5 * diam * cmath.exp(1j * a1),
                rect.center + 7 * diam * cmath.exp(1j * a2),
            ]
            f = poly_from_roots([inside] + outside)
            result = integrate(f, rect, 24)
            assert abs(result.char) < 0.02
            assert abs(result.z_estimate - inside) <= 1e-4 * diam

    def test_rational_with_outside_pole(self):
        rng = random.Random(11)
        for _ in range(20):
            rect = Rectangle(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                rng.uniform(0.3, 0.8),
                rng.uniform(0.2, 0.5),
            )
            diam = 2 * math.hypot(rect.rd, rect.rad)
            p = rect.center + complex(
                rng.uniform(-0.5, 0.5) * rect.rd, rng.uniform(-0.5, 0.5) * rect.rad
            )
            q = rect.center + 4 * diam * cmath.exp(1j * rng.uniform(0, 6.28))
            r = rect.center + 5 * diam * cmath.exp(1j * rng.uniform(0, 6.28))
            f = lambda k: (k - p) * (k - q) / (k - r)
            result = integrate(f, rect, 24)
            assert abs(result.char) < 0.02
            assert abs(result.z_estimate - p) <= 1e-4 * diam


class TestWindingIntegrality:
    def test_random_polynomials(self):
        rng = random.Random(17)
        cases = 0
        while cases < 200:
            rect = Rectangle(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                rng.uniform(0.3, 1.2),
                rng.uniform(0.2, 1.0),
            )
            margin = 0.2 * min(rect.rd, rect.rad)
            degree = rng.randint(1, 4)
            roots = []
            for _ in range(degree):
                root = rect.center + complex(
                    rng.uniform(-2.5, 2.5) * rect.rd, rng.uniform(-2.5, 2.5) * rect.rad
                )
                roots.append(root)
            # keep every root clear of the boundary
            def boundary_distance(r):
                dx = abs(r.real - rect.center.real) - rect.rd
                dy = abs(r.imag - rect.center.imag) - rect.rad
                if dx <= 0 and dy <= 0:
                    return min(-dx, -dy)
                return math.hypot(max(dx, 0), max(dy, 0))

            if any(boundary_distance(r) < margin for r in roots):
                continue
            f = poly_from_roots(roots)
            char = integrate(f, rect, 6).char
            assert abs(char - round(char)) < 0.02
            # count correctness needs the sampling to resolve root clusters;
            # with pairwise-separated roots c=6 suffices
            separated = all(
                abs(r1 - r2) > 0.5 * min(rect.rd, rect.rad)
                for i, r1 in enumerate(roots)
                for r2 in roots[i + 1 :]
            )
            if separated:
                n_inside = sum(1 for r in roots if rect.contains(r))
                assert round(char) == 1 - n_inside
            cases += 1

    def test_argument_principle_with_poles(self):
        rng = random.Random(23)
        cases = 0
        while cases < 40:
            rect = Rectangle(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0, 0.7
            )
            margin = 0.2 * min(rect.rd, rect.rad)
            points = [
                rect.center
                + complex(rng.uniform(-2, 2) * rect.rd, rng.uniform(-2, 2) * rect.rad)
                for _ in range(3)
            ]
            roots, poles = points[:2], points[2:]

            def boundary_distance(r):
                dx = abs(r.real - rect.center.real) - rect.rd
                dy = abs(r.imag - rect.center.imag) - rect.rad
                if dx <= 0 and dy <= 0:
                    return min(-dx, -dy)
                return math.hypot(max(dx, 0), max(dy, 0))

            if any(boundary_distance(p) < margin for p in points):
                continue

            def f(k):
                value = 1.0 + 0.0j
                for r in roots:
                    value *= k - r
                for p in poles:
                    value /= k - p
                return value

            char = integrate(f, rect, 8).char
            expected = 1 - sum(1 for r in roots if rect.contains(r)) + sum(
                1 for p in poles if rect.contains(p)
            )
            assert abs(char - expected) < 0.02
            cases += 1


PAPER_B15 = SharpParams(750.0, 2.0, 15)
PAPER_B20 = SharpParams(750.0, 2.0, 20)


class CountingSeries:
    """The series of ``params``, counting its vectorised calls and their
    points."""

    def __init__(self, params):
        self.params = params
        self.batches = 0
        self.points = 0

    def __call__(self, k):
        return self.params(k)

    def many(self, points):
        self.batches += 1
        self.points += len(points)
        return self.params.many(points)


class TestBatchedSampling:
    @pytest.mark.parametrize(
        "params,rect",
        [
            (PAPER_B15, Rectangle(0.130263 + 14.1465j, 0.0477578, 0.0238789)),
            (PAPER_B20, Rectangle(3.11028 + 47.5578j, 0.5, 0.25)),
        ],
        ids=["zero1", "zero9"],
    )
    def test_batched_and_pointwise_integrations_agree(self, params, rect):
        # the first integrations of zeros 1 and 9 both refine, so the
        # batched path runs for the opening pass and for refinement passes
        batched = CountingSeries(params)
        calls = []

        def plain(k):
            calls.append(k)
            return params(k)

        a = integrate(batched, rect, 4)
        b = integrate(plain, rect, 4)
        assert batched.batches >= 2
        assert len(a.trace.positions) > a.trace.c
        assert (a.char, a.fo, a.z_estimate, a.vv) == (b.char, b.fo, b.z_estimate, b.vv)
        assert a.trace.positions == b.trace.positions
        assert a.trace.points == b.trace.points
        assert a.trace.samples == b.trace.samples
        assert a.trace.angles == b.trace.angles
        assert a.trace.closing_angle == b.trace.closing_angle
        assert a.trace.display_rows() == b.trace.display_rows()
        # each boundary point once, the center riding in the opening batch
        assert batched.points == len(a.trace.samples) + 1
        # a plain callable: the opening points and the center, the inserted
        # points, then the estimate
        assert len(calls) == len(b.trace.samples) + 2
        assert calls[16] == rect.center
        assert set(calls[:16] + calls[17:-1]) == set(b.trace.points)
        assert calls[-1] == b.z_estimate


class TestPaperRectangles:
    def test_zero1_first_integration(self):
        f = PAPER_B15
        rect = Rectangle(0.130263 + 14.1465j, 0.0477578, 0.0238789)
        result = integrate(f, rect, 4)
        assert abs(result.char) <= 0.01
        assert abs(result.trace.winding - 1.0) <= 1e-9
        assert abs(result.z_estimate - (0.130488 + 14.1452j)) <= 1e-3
        assert result.inside

    def test_zero9_first_integration_misses(self):
        f = PAPER_B20
        rect = Rectangle(3.11028 + 47.5578j, 0.5, 0.25)
        result = integrate(f, rect, 4)
        assert abs(result.char - 1.0) <= 0.01

    def test_zero2_second_integration(self):
        f = PAPER_B15
        rect = Rectangle(0.351984 + 21.0721j, 0.064767, 0.0323835)
        result = integrate(f, rect, 4)
        assert abs(result.char) <= 0.01
        assert abs(result.z_estimate - (0.35165 + 21.0705j)) <= 1e-3
        # the residual ratio tracks the reference value (0.2509) only at
        # order level: the quadrature there is not published
        assert 0.1 <= result.vv <= 0.45

    def test_zero6_first_integration_keeps_a_gap(self):
        f = PAPER_B20
        rect = Rectangle(1.76753 + 38.1895j, 0.5, 0.25)
        result = integrate(f, rect, 4)
        assert abs(result.char) <= 0.01
        assert result.fo == 1


def reference_integrate(f, rect, c):
    """The dict-cache trace and integration that the incremental
    refinement in qzeta.winding must reproduce bit for bit: every pass
    rebuilds all points, evaluates the ones not in the cache and unwraps
    the whole boundary again."""
    grid = 2**_MAX_DEPTH
    corners = rect.corners()
    cache = {}

    def sample(offsets):
        keys, points = [], []
        for side in range(4):
            start = corners[side]
            edge = corners[(side + 1) % 4] - start
            for i, group in enumerate(offsets):
                for off in group:
                    pos = i * grid + off
                    keys.append((side, pos))
                    points.append(start + pos / (c * grid) * edge)
        for key, point in zip(keys, points):
            if key not in cache:
                cache[key] = complex(f(point))
        values = [cache[key] for key in keys]
        angles = [cmath.phase(values[0])]
        for prev, here in zip(values, values[1:]):
            angles.append(angles[-1] + cmath.phase(here / prev))
        return points, values, angles, angles[-1] + cmath.phase(values[0] / values[-1])

    offsets = [[0] for _ in range(c)]
    points, values, angles, closing = sample(offsets)
    for _ in range(_MAX_DEPTH):
        m = sum(len(group) for group in offsets)
        extended = angles + [closing]
        to_split, n = [], 0
        for i, group in enumerate(offsets):
            for j in range(len(group)):
                summed_gap = side_gap = 0.0
                for side in range(4):
                    step = extended[side * m + n + 1] - extended[side * m + n]
                    summed_gap += step
                    side_gap = max(side_gap, abs(step))
                hi = group[j + 1] if j + 1 < len(group) else grid
                if (abs(summed_gap) > 1.0 or side_gap > 2.8) and hi - group[j] > 1:
                    to_split.append((i, j))
                n += 1
        if not to_split:
            break
        for i, j in reversed(to_split):
            group = offsets[i]
            hi = group[j + 1] if j + 1 < len(group) else grid
            group.insert(j + 1, (group[j] + hi) // 2)
        points, values, angles, closing = sample(offsets)

    m = sum(len(group) for group in offsets)
    labels = [
        str(i + 1) if j == 0 else f"{i + 1} {j}"
        for i, group in enumerate(offsets)
        for j in range(len(group))
    ]
    rows = [
        (label, sum(angles[side * m + n] for side in range(4)))
        for n, label in enumerate(labels)
    ]
    rows.append((str(c + 1), sum(angles[side * m] for side in (1, 2, 3)) + closing))

    zn = rect.center
    mains, n = [], 0
    for group in offsets:
        mains.append(n)
        n += len(group)
    order = [side * m + n for side in range(4) for n in mains]
    ps = [points[idx] for idx in order] + [points[0]]
    vs = [values[idx] for idx in order] + [values[0]]
    ans = [angles[idx] for idx in order] + [closing]
    total = 0.0 + 0.0j
    for i in range(len(order)):
        delta = complex(
            math.log(abs(vs[i + 1])) - math.log(abs(vs[i])), ans[i + 1] - ans[i]
        )
        contribution = (0.5 * (ps[i] + ps[i + 1]) - zn) * delta
        dv = vs[i + 1] - vs[i]
        if abs(dv) > 1e-14 * (abs(vs[i]) + abs(vs[i + 1])):
            slope = (ps[i + 1] - ps[i]) / dv
            contribution -= slope * (0.5 * (vs[i] + vs[i + 1]) * delta - dv)
        total += contribution
    z_estimate = zn + total / (2j * math.pi)
    abs_center = abs(complex(f(rect.center)))
    try:
        value_estimate = complex(f(z_estimate))
        abs_estimate = abs(value_estimate)
    except ZeroDivisionError:
        value_estimate, abs_estimate = None, math.inf
    return {
        "positions": [i * grid + off for i, group in enumerate(offsets) for off in group],
        "points": points,
        "samples": values,
        "angles": angles,
        "closing_angle": closing,
        "display_rows": rows,
        "char": 1.0 - (closing - angles[0]) / (2 * math.pi),
        "fo": fo_from_angles([value for _, value in rows]),
        "z_estimate": z_estimate,
        "vv": abs_estimate / abs_center if abs_center > 0 else math.inf,
        "inside": rect.contains(z_estimate),
        "abs_center": abs_center,
        "abs_estimate": abs_estimate,
        "value_estimate": value_estimate,
    }


def assert_matches_reference(f, rect, c):
    """integrate and its refined trace against the reference; repr compares
    floats bit for bit, signs of zeros included."""
    ref = reference_integrate(f, rect, c)
    result = integrate(f, rect, c)
    trace = result.trace
    got = {
        "positions": trace.positions,
        "points": trace.points,
        "samples": trace.samples,
        "angles": trace.angles,
        "closing_angle": trace.closing_angle,
        "display_rows": trace.display_rows(),
    }
    for key, value in got.items():
        assert repr(value) == repr(ref[key]), key
    for key in ("char", "fo", "z_estimate", "vv", "inside", "abs_center", "abs_estimate",
                "value_estimate"):
        assert repr(getattr(result, key)) == repr(ref[key]), key
    return result.trace


def rational(roots, poles):
    def f(k):
        value = 1.0 + 0.0j
        for r in roots:
            value *= k - r
        for p in poles:
            value /= k - p
        return value

    return f


def drifting(r, s, w):
    """(k - r)(1 + (k - r)/s) exp(i w (k - r)), the shape of the benchmark's
    generic targets: a root at r, a second one at r - s and a phase drift w."""

    def f(k):
        u = k - r
        return u * (1.0 + u / s) * cmath.exp(1j * w * u)

    return f


unit = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def targets(draw):
    """A rectangle and a polynomial, rational or drifting target whose roots
    and poles fall inside, near or outside it; roots near the boundary, and
    the drift along every side, force deep refinement."""
    rect = Rectangle(
        complex(draw(unit), draw(unit)),
        draw(st.floats(0.2, 1.2)),
        draw(st.floats(0.2, 1.0)),
    )
    spots = [
        rect.center + complex(u * rect.rd, v * rect.rad)
        for u, v in draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=4))
    ]
    for z in spots:
        # keep roots and poles off the boundary itself
        assume(min(abs(abs(z.real - rect.center.real) - rect.rd),
                   abs(abs(z.imag - rect.center.imag) - rect.rad)) > 1e-6)
    if draw(st.booleans()):
        s = cmath.rect(draw(st.floats(6.0, 10.0)), draw(st.floats(0.0, 2.0 * math.pi)))
        return rect, drifting(spots[0], s, draw(st.floats(0.5, 3.0)))
    n_poles = draw(st.integers(0, len(spots) - 1))
    # f is also evaluated at the center, so no pole sits there
    assume(all(abs(p - rect.center) > 1e-6 for p in spots[:n_poles]))
    return rect, rational(spots[n_poles:], spots[:n_poles])


class TestIncrementalRefinement:
    """Incremental passes agree bit for bit with full re-sampling."""

    @given(targets(), st.sampled_from([3, 4, 5, 6, 9]))
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_cache_reference(self, target, c):
        rect, f = target
        assert_matches_reference(f, rect, c)

    @pytest.mark.parametrize("c", [3, 4, 5, 6, 9])
    def test_closing_segment_split_to_depth_three(self, c):
        # a root just outside the left side, near its bottom end: the last
        # interval of side 3, which closes on sample 0, is split three times
        rect = Rectangle(0j, 1.0, 0.5)
        trace = assert_matches_reference(rational([-1.001 - 0.49j], []), rect, c)
        last = (c - 1) * 2**_MAX_DEPTH
        assert any(pos % 2 for pos in trace.positions if pos > last)
