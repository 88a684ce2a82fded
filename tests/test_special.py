import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qzeta import (
    PoleAtOne,
    QZetaError,
    RangeUnsupported,
    REFERENCE_ZEROS,
    classical_zeros,
    hardy_z,
    riemann_zeta,
    zeta_plus,
    zeta_plus_derivative,
)
import qzeta.special as special
from qzeta.special import _B_OVER_FACT, _BERNOULLI, _gram_points, _siegel_theta

# High-precision oracle values, frozen from a 40-digit termwise series
# computation (mpmath) before the implementation existed.
ZETA_AT_MINUS_HALF_21I = complex(-2.149726494071592934, 0.5637820089753549896)
ETA_PRIME_AT_CRITICAL = complex(1.879221628955020394, -0.1143077885454221602)

EULER_GAMMA = 0.5772156649015328606

# y_max values at which classical_zeros must reproduce pointwise_scan
SCAN_Y_MAX = [15.0, 48.5406, 61.0, 77.14, 95.0, 100.0]


def bernoulli_numbers(n_max):
    """B_0..B_n_max from sum_{j<=m} C(m+1, j) B_j = 0, in exact rationals."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


class TestBernoulliTable:
    def test_pairs_are_bernoulli_numbers(self):
        exact = bernoulli_numbers(18)
        assert {k: Fraction(*pair) for k, pair in _BERNOULLI.items()} == {
            k: exact[k] for k in range(2, 19, 2)
        }

    def test_ratios_match_fraction_rounding(self):
        rebuilt = {
            k: float(Fraction(*pair) / math.factorial(k))
            for k, pair in _BERNOULLI.items()
        }
        assert _B_OVER_FACT == rebuilt


class TestRiemannZeta:
    def test_basel_value(self):
        assert abs(riemann_zeta(2 + 0j) - math.pi**2 / 6) < 1e-12

    def test_zeta_zero_and_minus_one(self):
        assert abs(riemann_zeta(0j) + 0.5) < 1e-12
        assert abs(riemann_zeta(-1 + 0j) + 1 / 12) < 1e-10

    def test_first_nontrivial_zero_is_small(self):
        assert abs(riemann_zeta(0.5 + 14.134725j)) < 1e-4

    def test_high_precision_oracle(self):
        assert abs(riemann_zeta(-0.5 + 21.0220j) - ZETA_AT_MINUS_HALF_21I) < 1e-9

    def test_pole_raises(self):
        with pytest.raises(PoleAtOne):
            riemann_zeta(1 + 0j)
        with pytest.raises(PoleAtOne):
            riemann_zeta(1 + 1e-13j)

    def test_unsupported_region(self):
        with pytest.raises(RangeUnsupported):
            riemann_zeta(-2.5 + 0j)
        with pytest.raises(RangeUnsupported):
            riemann_zeta(0.5 + 201j)
        with pytest.raises(RangeUnsupported):
            riemann_zeta(complex(float("nan"), 0.0))

    def test_conjugate_symmetry(self):
        rng = random.Random(11)
        for _ in range(50):
            s = complex(rng.uniform(-2, 4), rng.uniform(-200, 200))
            if abs(s - 1) < 0.01:
                continue
            left = riemann_zeta(s.conjugate())
            right = riemann_zeta(s).conjugate()
            assert abs(left - right) < 1e-12


class TestZetaPlus:
    def test_value_at_one_is_ln2(self):
        assert abs(zeta_plus(1 + 0j) - math.log(2)) < 1e-12

    def test_value_at_zero_is_half(self):
        assert abs(zeta_plus(0j) - 0.5) < 1e-12

    def test_smooth_through_the_pole(self):
        eta_prime_at_1 = EULER_GAMMA * math.log(2) - 0.5 * math.log(2) ** 2
        for delta in (1e-9, 1e-7, 1e-5):
            s = 1 + delta * (0.6 + 0.8j)
            first_order = math.log(2) + eta_prime_at_1 * (s - 1)
            assert abs(zeta_plus(s) - first_order) < 1e-9

    def test_critical_line_zero_shared(self):
        assert abs(zeta_plus(0.5 + 25.0109j)) < 1e-3

    def test_functional_equation_consistency(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-2, 4), rng.uniform(-200, 200))
            if abs(s - 1) < 0.6:
                continue
            product = (1 - 2 ** (1 - s)) * riemann_zeta(s)
            assert abs(zeta_plus(s) - product) < 1e-11
            checked += 1


class TestZetaPlusDerivative:
    def test_eta_prime_at_zero(self):
        expected = 0.5 * math.log(math.pi / 2)
        assert abs(zeta_plus_derivative(0j) - expected) < 1e-10

    def test_eta_prime_at_one(self):
        expected = EULER_GAMMA * math.log(2) - 0.5 * math.log(2) ** 2
        assert abs(zeta_plus_derivative(1 + 0j) - expected) < 1e-10

    def test_high_precision_oracle(self):
        value = zeta_plus_derivative(0.5 + 14.1347j)
        assert abs(value - ETA_PRIME_AT_CRITICAL) < 1e-8

    def test_against_central_differences(self):
        rng = random.Random(3)
        h = 1e-5
        for _ in range(50):
            s = complex(rng.uniform(-0.5, 2.5), rng.uniform(5, 50))
            numeric = (zeta_plus(s + h) - zeta_plus(s - h)) / (2 * h)
            assert abs(zeta_plus_derivative(s) - numeric) < 1e-6


class TestClassicalZeros:
    def test_paper_table_to_four_decimals(self):
        expected = [14.1347, 21.0220, 25.0109, 30.4249, 32.9351,
                    37.5862, 40.9187, 43.3271, 48.0052]
        found = classical_zeros(48.5406)
        assert len(found) == 9
        for y, ref in zip(found, expected):
            assert abs(y - ref) < 5e-5

    def test_empty_below_first_zero(self):
        assert classical_zeros(10.0) == []

    def test_first_zero_to_1e6(self):
        found = classical_zeros(15.0)
        assert len(found) == 1
        assert abs(found[0] - 14.134725141734693) < 1e-6

    def test_increasing_and_small_residual(self):
        found = classical_zeros(48.5406)
        assert found == sorted(found)
        for y in found:
            assert abs(zeta_plus(complex(0.5, y))) < 1e-5

    def test_range_cap(self):
        with pytest.raises(RangeUnsupported):
            classical_zeros(100.5)

    def test_full_supported_range(self):
        found = classical_zeros(100.0)
        assert len(found) == 29  # known count of zeros below 100
        for y, ref in zip(found, REFERENCE_ZEROS):
            assert abs(y - ref) < 1e-6

    def test_block_grid_matches_scalar_hardy_z(self):
        grid = np.arange(2.0, 100.0, 0.05).tolist() + [100.0]
        block = hardy_z(grid)
        scalar = np.array([hardy_z(t) for t in grid])
        assert np.max(np.abs(block - scalar)) < 1e-12
        assert np.array_equal(np.sign(block), np.sign(scalar))
        for t in (2.0, 14.134725, 48.5406, 100.0):
            assert hardy_z([t])[0] == hardy_z(t)
            assert type(hardy_z(t)) is float

    @pytest.mark.parametrize("y_max", SCAN_Y_MAX)
    def test_scan_matches_pointwise_scan(self, y_max):
        assert classical_zeros(y_max) == pointwise_scan(y_max)

    def test_hardy_z_budget(self, monkeypatch):
        # evaluating every bisection midpoint took 755 ordinates in 27
        # blocks; a count of 0 means hardy_z is no longer called through the
        # module global, which the benchmark's tracer wraps
        ordinates = []
        hardy = special.hardy_z

        def counting(ts):
            ordinates.extend(ts)
            return hardy(ts)

        monkeypatch.setattr(special, "hardy_z", counting)
        classical_zeros(100.0)
        assert 0 < len(ordinates) <= 300


class TestRootBrackets:
    """The Illinois root brackets decide the bisection's midpoint signs; the
    ordinates must not depend on how far Illinois got."""

    @pytest.mark.parametrize("y_max", SCAN_Y_MAX)
    def test_every_midpoint_evaluated(self, monkeypatch, y_max):
        # wider than every interval: Illinois takes no step, so each root
        # bracket is its whole interval and the replay evaluates every midpoint
        monkeypatch.setattr(special, "_ROOT_WIDTH", 10.0)
        calls = record_illinois(monkeypatch)
        assert classical_zeros(y_max) == pointwise_scan(y_max)
        [(cells, brackets, blocks, _)] = calls
        assert blocks == []
        assert brackets == [(t_lo, t_hi) for t_lo, t_hi, _, _ in cells]

    @pytest.mark.parametrize("y_max", SCAN_Y_MAX)
    def test_step_cap_ends_illinois(self, monkeypatch, y_max):
        # narrower than the float spacing: only the step cap stops Illinois
        monkeypatch.setattr(special, "_ROOT_WIDTH", 1e-15)
        calls = record_illinois(monkeypatch)
        assert classical_zeros(y_max) == pointwise_scan(y_max)
        [(_, _, blocks, _)] = calls
        assert len(blocks) == special._ROOT_STEPS

    def test_brackets_hold_the_zeros(self, monkeypatch):
        calls = record_illinois(monkeypatch)
        classical_zeros(100.0)
        [(cells, brackets, _, values)] = calls
        expected = pointwise_scan(100.0)
        assert len(brackets) == len(expected) == 29
        for ((r_lo, r_hi), (t_lo, t_hi, z_lo, z_hi)), y in zip(
            sorted(zip(brackets, cells)), expected
        ):
            assert t_lo <= r_lo < r_hi <= t_hi
            assert r_lo - 5e-8 <= y <= r_hi + 5e-8
            f_lo = values.get(r_lo, z_lo)
            f_hi = values.get(r_hi, z_hi)
            assert f_lo * z_lo > 0.0 and f_hi * z_lo < 0.0


class TestGramPoints:
    def test_thirty_points_below_100(self):
        gram = _gram_points(100.0)
        assert len(gram) == 30
        assert 2.0 < gram[0] and gram[-1] <= 100.0
        assert gram == sorted(gram)

    def test_theta_at_gram_points(self):
        for n, g in enumerate(_gram_points(100.0), start=-1):
            assert abs(_siegel_theta(g) - n * math.pi) < 1e-9

    def test_count_law_holds(self):
        zeros = classical_zeros(100.0)
        for n, g in enumerate(_gram_points(100.0), start=-1):
            assert sum(y <= g for y in zeros) == n + 1

    def test_moved_gram_point_fails_count_check(self, monkeypatch):
        # g_0 ~ 17.85 moved past zero 2: Z has one sign at both ends of the
        # probe interval (9.67, 21.07), so its cells are scanned, and the
        # two zeros found there break the count at g_0.
        gram = _gram_points(100.0)
        moved = gram[:1] + [REFERENCE_ZEROS[1] + 0.05] + gram[2:]
        monkeypatch.setattr(special, "_gram_points", lambda y_max: moved)
        with pytest.raises(QZetaError, match="2 zeros found up to the Gram point g_0"):
            classical_zeros(100.0)


def record_illinois(monkeypatch):
    """Wrap ``special._illinois_lockstep``; each call appends (cells, root
    brackets, hardy_z block sizes, {ordinate: Z} of its evaluations)."""
    calls = []
    illinois = special._illinois_lockstep

    def recording(cells):
        hardy = special.hardy_z
        blocks, values = [], {}

        def hardy_recording(ts):
            out = hardy(ts)
            blocks.append(len(ts))
            values.update(zip(ts, out.tolist()))
            return out

        special.hardy_z = hardy_recording
        try:
            brackets = illinois(cells)
        finally:
            special.hardy_z = hardy
        calls.append((cells, brackets, blocks, values))
        return brackets

    monkeypatch.setattr(special, "_illinois_lockstep", recording)
    return calls


@functools.lru_cache(maxsize=None)
def pointwise_scan(y_max):
    """Sign-change scan and bisection with one scalar hardy_z call per
    ordinate, the reference the block-evaluated grid must reproduce.
    Cached: callers share the returned list and must not change it."""
    grid = np.arange(2.0, y_max, 0.05).tolist() + [y_max]
    zeros = []
    t_prev, z_prev = grid[0], hardy_z(grid[0])
    for t in grid[1:]:
        z_here = hardy_z(t)
        if z_prev == 0.0:
            zeros.append(t_prev)
        elif z_prev * z_here < 0.0:
            lo, hi, f_lo = t_prev, t, z_prev
            while hi - lo > 1e-7:
                mid = 0.5 * (lo + hi)
                f_mid = hardy_z(mid)
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            zeros.append(0.5 * (lo + hi))
        t_prev, z_prev = t, z_here
    return zeros
