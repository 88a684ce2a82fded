import functools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# y_max values at which classical_zeros is checked against mpmath.zetazero
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
        # no zero lies below 14; with no Gram point up to y_max (g_(-1) ~
        # 9.67), Z is not evaluated at all: its theta overflows at 1e-300
        for y_max in (1e-300, 1.0, 2.0, 9.0, 10.0, 14.0):
            assert classical_zeros(y_max) == []

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
    def test_matches_zetazero(self, y_max):
        found = classical_zeros(y_max)
        expected = zetazero_ordinates(y_max)
        assert len(found) == len(expected)
        for y, ref in zip(found, expected):
            assert abs(y - ref) < 1e-9

    def test_hardy_z_budget(self, monkeypatch):
        # one probe block, then one block per Illinois step: 242 ordinates in
        # 9 blocks; a count of 0 means hardy_z is no longer called through
        # the module global, which the benchmark's tracer wraps
        blocks = []
        hardy = special.hardy_z

        def counting(ts):
            blocks.append(len(ts))
            return hardy(ts)

        monkeypatch.setattr(special, "hardy_z", counting)
        classical_zeros(100.0)
        assert 0 < sum(blocks) <= 250
        assert len(blocks) <= 9


class TestRootBrackets:
    """Each ordinate is the midpoint of its Illinois root bracket."""

    @pytest.mark.parametrize("y_max", SCAN_Y_MAX)
    def test_step_cap_ends_illinois(self, monkeypatch, y_max):
        # narrower than the float spacing: Illinois stops at the step cap,
        # or earlier once every bracket is two adjacent floats (the one cell
        # below 15 gets there in 9 steps); the wider brackets the cap leaves
        # cost accuracy (2.4e-7 at 100)
        monkeypatch.setattr(special, "_ROOT_WIDTH", 1e-15)
        calls = record_illinois(monkeypatch)
        found = classical_zeros(y_max)
        [(_, brackets, blocks, _)] = calls
        closed = all(math.nextafter(lo, hi) == hi for lo, hi in brackets)
        assert len(blocks) == special._ROOT_STEPS or (
            closed and len(blocks) < special._ROOT_STEPS
        )
        expected = zetazero_ordinates(y_max)
        assert len(found) == len(expected)
        for y, ref in zip(found, expected):
            assert abs(y - ref) < 1e-6

    def test_brackets_hold_the_zeros(self, monkeypatch):
        calls = record_illinois(monkeypatch)
        classical_zeros(100.0)
        [(cells, brackets, _, values)] = calls
        expected = zetazero_ordinates(100.0)
        assert len(brackets) == len(expected) == 29
        for ((r_lo, r_hi), (t_lo, t_hi, z_lo, z_hi)), y in zip(
            sorted(zip(brackets, cells)), expected
        ):
            assert t_lo <= r_lo < r_hi <= t_hi
            assert r_hi - r_lo <= special._ROOT_WIDTH
            assert r_lo - 1e-12 <= y <= r_hi + 1e-12
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
        # probe interval (9.67, 21.07), which holds zeros 1 and 2, so no zero
        # is found there and the count breaks at g_0.
        gram = _gram_points(100.0)
        moved = gram[:1] + [REFERENCE_ZEROS[1] + 0.05] + gram[2:]
        monkeypatch.setattr(special, "_gram_points", lambda y_max: moved)
        with pytest.raises(QZetaError, match="0 zeros found up to the Gram point g_0"):
            classical_zeros(100.0)


def complex_directed_powers(s, n, rows):
    """``special._directed_powers`` from fresh logs of v = 1..n (``rows``
    ignored), assembled as one complex expression mags * (cos - 1j*sign*sin):
    the reference its tabulated logs, shared phase rows and two real
    products match."""
    values = np.arange(1, n + 1)
    logs = np.log(values)
    mags = np.exp(-s.real[:, None] * logs)
    phases = np.mod(
        np.abs(s.imag).astype(np.longdouble)[:, None]
        * np.log(values.astype(np.longdouble)),
        special._TWO_PI_LD,
    ).astype(np.float64)
    sign = np.where(s.imag >= 0, 1.0, -1.0)[:, None]
    return logs, mags * (np.cos(phases) - 1j * sign * np.sin(phases))


def choose_terms_reference(s, target):
    """``special._choose_terms`` with the rising product recomputed in every
    pass of the N-growing loop, as first written."""
    nu = special._EM_ORDER // 2
    sigma = s.real
    abs_s = abs(s)
    n = max(20, math.ceil(abs(s.imag)))
    while True:
        prod = 1.0
        for j in range(2 * nu + 1):
            prod *= abs_s + j
        bound = (
            abs(_B_OVER_FACT[2 * nu + 2])
            * prod
            * n ** (-sigma - 2 * nu - 1)
            * (abs_s + 2 * nu + 1)
            / (sigma + 2 * nu + 1)
        )
        if bound <= target:
            return n
        if n >= special._MAX_TERMS:
            return None
        n = min(special._MAX_TERMS, (3 * n) // 2 + 1)


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


class TestChooseTerms:
    # the targets of zeta and far eta, of near-pole eta, and of eta'
    @pytest.mark.parametrize("divisor", [1.0, 2.0, 10.0])
    def test_equals_loop_reference(self, divisor):
        target = special._TARGET_ABS_ERROR / divisor
        for sigma in np.linspace(-2.0, 4.0, 61):
            for t in np.linspace(-200.0, 200.0, 81):
                s = complex(sigma, t)
                expected = choose_terms_reference(s, target)
                if expected is None:
                    with pytest.raises(RangeUnsupported):
                        special._choose_terms(s, target)
                else:
                    assert special._choose_terms(s, target) == expected


class TestLogTables:
    def test_slices_equal_fresh_logs(self, monkeypatch):
        monkeypatch.setattr(special, "_log_tables", (np.empty(0), np.empty(0)))
        top = special._MAX_TERMS
        sizes = [1, 2, 255, 256, 257, 511, 512, 513, 2047, 2049, 8193, top - 1, top]
        # the tables grow by doubling from 256 and stop at _MAX_TERMS
        lengths = [256] * 4 + [512] * 3 + [1024, 2048, 4096] + [top] * 3
        # a shorter request after the largest reads a slice of the full table
        for n, length in zip(sizes + [300], lengths + [top]):
            logs, logs_ld = special._logs(n)
            assert len(special._log_tables[0]) == len(special._log_tables[1])
            assert len(special._log_tables[0]) == length
            values = np.arange(1, n + 1)
            assert logs.dtype == np.float64 and logs_ld.dtype == np.longdouble
            assert (logs.view(np.uint64) == np.log(values).view(np.uint64)).all()
            assert (logs_ld == np.log(values.astype(np.longdouble))).all()

    def test_not_built_at_import(self):
        code = "import qzeta.special as s; print(len(s._log_tables[0]))"
        process = subprocess.run(
            [sys.executable, "-c", code],
            cwd=Path(special.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.stdout.strip() == "0"


class TestDirectedPowers:
    @pytest.mark.parametrize("count", range(1, 41))
    def test_equals_complex_assembly(self, count):
        rng = np.random.default_rng(count)
        s = rng.uniform(-2.0, 4.0, count) + 1j * rng.uniform(-200.0, 200.0, count)
        s[1::2] = s[0::2][: count // 2].conj()  # conjugate pairs
        if count % 2 and count > 1:
            s[-1] = s[-1].real  # the unpaired point is real
        n = int(rng.integers(2, 400))
        ref_logs, ref_powers = complex_directed_powers(s, n, None)
        # rows of exactly n terms, and the first n columns of longer rows
        for rows_n in (n, 2 * n + 7):
            rows = special._phase_rows(s, rows_n)
            logs, powers = special._directed_powers(s, n, rows)
            assert (powers == ref_powers).all()
            assert (bits(powers) == bits(ref_powers)).all()
            assert (logs == ref_logs).all()
            # conjugate arguments give exactly conjugate rows
            assert (powers[1::2] == powers[0::2][: count // 2].conj()).all()

    def test_public_values_bitwise(self, monkeypatch):
        rng = random.Random(3)
        ts = [rng.uniform(1.0, 100.0) for _ in range(40)]
        points = [complex(rng.uniform(-2.0, 4.0), rng.uniform(-100.0, 100.0))
                  for _ in range(30)]
        # near the pole (both eta branches), on the real axis, near a zero
        points += [1.2 + 0.1j, 1.0005 + 0j, 2.0 + 0j, -1.5 + 0j, 0.5 + 14.1347j]
        ys = [rng.uniform(0.01, 199.0) for _ in range(20)] + [14.1347, 1e-300]

        def values():
            return (
                bits(hardy_z(ts)),
                bits([hardy_z(t) for t in ts[:5]]),
                bits([zeta_plus(s) for s in points]),
                bits([zeta_plus_derivative(s) for s in points]),
                bits([riemann_zeta(s) for s in points]),
                bits([special.zeta_plus_triple(y) for y in ys]),
            )

        fast = values()
        monkeypatch.setattr(special, "_directed_powers", complex_directed_powers)
        for got, ref in zip(fast, values()):
            assert (got == ref).all()

    @given(st.floats(min_value=0.0, max_value=200.0, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_triple_equals_public_calls(self, y):
        triple = special.zeta_plus_triple(y)
        yi = complex(0.0, y)
        expected = (
            zeta_plus_derivative(0.5 + yi),
            zeta_plus(1.5 + yi),
            zeta_plus(-0.5 + yi),
        )
        assert (bits(triple) == bits(expected)).all()


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


def zetazero_ordinates(y_max):
    """Ordinates of the zeta zeros up to y_max <= 100, from mpmath.zetazero."""
    return [y for y in zetazeros_below_100() if y <= y_max]


@functools.lru_cache(maxsize=None)
def zetazeros_below_100():
    return tuple(float(mpmath.zetazero(n).imag) for n in range(1, 30))
