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
    QZetaError,
    RangeUnsupported,
    classical_zeros,
    hardy_z,
    zeta_plus_triple,
)
import qzeta.special as special
from qzeta.special import REFERENCE_ZEROS, _B_OVER_FACT, _BERNOULLI, _gram_points, _siegel_theta

# High-precision oracle values, frozen from a 40-digit termwise series
# computation (mpmath) before the implementation existed.
ZETA_AT_MINUS_HALF_21I = complex(-2.149726494071592934, 0.5637820089753549896)
ETA_PRIME_AT_CRITICAL = complex(1.879221628955020394, -0.1143077885454221602)

# y_max values at which classical_zeros is checked against mpmath.zetazero
SCAN_Y_MAX = [15.0, 48.5406, 61.0, 77.14, 95.0, 100.0]


def eta(s, derivative=False):
    """eta(s), or eta'(s), from ``special._eta_values`` (|s - 1| >= 1/2):
    the one-point grid of ordinate Im s and line (Re s, derivative)."""
    s = complex(s)
    [[value]] = special._eta_values([s.imag], [(s.real, derivative)])
    return value


def bernoulli_numbers(n_max):
    """B_0..B_n_max from sum_{j<=m} C(m+1, j) B_j = 0, in exact rationals."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


class TestBernoulliTable:
    def test_pairs_are_bernoulli_numbers(self):
        # B2..B10: the corrections of order _EM_ORDER = 8, then the
        # remainder bound's B10
        exact = bernoulli_numbers(10)
        assert {k: Fraction(*pair) for k, pair in _BERNOULLI.items()} == {
            k: exact[k] for k in range(2, 11, 2)
        }

    def test_ratios_match_fraction_rounding(self):
        rebuilt = {
            k: float(Fraction(*pair) / math.factorial(k))
            for k, pair in _BERNOULLI.items()
        }
        assert _B_OVER_FACT == rebuilt


class TestRiemannZeta:
    """zeta through the package's two Euler-Maclaurin paths: eta
    (``_eta_values``), with zeta = eta / (1 - 2^(1-s)), and Hardy Z, with
    |Z(t)| = |zeta(1/2 + it)|."""

    def test_basel_value(self):
        assert abs(eta(2) / (1 - 2**-1) - math.pi**2 / 6) < 1e-12

    def test_zeta_zero_and_minus_one(self):
        assert abs(eta(0) / (1 - 2) + 0.5) < 1e-12
        assert abs(eta(-1) / (1 - 4) + 1 / 12) < 1e-10

    def test_first_nontrivial_zero_is_small(self):
        assert abs(hardy_z([14.134725])[0]) < 1e-4

    def test_high_precision_oracle(self):
        s = -0.5 + 21.0220j
        [(_, _, eta_left)] = zeta_plus_triple([s.imag])
        assert abs(eta_left / (1 - 2 ** (1 - s)) - ZETA_AT_MINUS_HALF_21I) < 1e-9
        ts = [10.0, 14.134725, 50.0, 100.0, 150.0, 199.9]
        with mpmath.workdps(30):
            for t, z in zip(ts, hardy_z(ts)):
                assert abs(z - float(mpmath.siegelz(t))) < 1e-12

    def test_unsupported_region(self):
        with pytest.raises(RangeUnsupported, match="outside supported region"):
            special._validate_point(-2.5 + 0j)
        with pytest.raises(RangeUnsupported, match="non-finite"):
            special._validate_point(complex(float("nan"), 0.0))
        high, nan = zeta_plus_triple([201.0, float("nan")])
        assert isinstance(high, RangeUnsupported) and isinstance(nan, RangeUnsupported)
        with pytest.raises(RangeUnsupported):
            hardy_z([201.0])

    def test_hardy_z_domain(self):
        # below t = 5 theta's Stirling series is not accurate enough
        for ts in ([4.9], [0.0], [-14.134725], [20.0, -3.0]):
            with pytest.raises(RangeUnsupported, match="t >= 5"):
                hardy_z(ts)
        with mpmath.workdps(30):
            assert abs(hardy_z([5.0])[0] - float(mpmath.siegelz(5.0))) < 1e-12

    def test_conjugate_symmetry(self):
        rng = random.Random(11)
        for _ in range(50):
            s = complex(rng.uniform(-2, 4), rng.uniform(-200, 200))
            if abs(s - 1) < 0.5:
                continue
            for derivative in (False, True):
                left = eta(s.conjugate(), derivative)
                right = eta(s, derivative).conjugate()
                assert abs(left - right) < 1e-12


class TestZetaPlus:
    def test_value_at_zero_is_half(self):
        assert abs(eta(0) - 0.5) < 1e-12

    def test_critical_line_zero_shared(self):
        assert abs(eta(0.5 + 25.0109j)) < 1e-3

    def test_triple_against_mpmath(self):
        """On the 29 zero ordinates below 100 each of the three values is
        within 1e-13 relative of mpmath; measured worst 6.6e-14, and
        5.5e-14, 3.4e-14 and 2.6e-12 absolute for eta'(1/2 + iy),
        eta(3/2 + iy) and eta(-1/2 + iy)."""
        ys = classical_zeros(100.0)
        with mpmath.workdps(30):
            for y, triple in zip(ys, zeta_plus_triple(ys)):
                expected = (
                    mpmath.diff(mpmath.altzeta, mpmath.mpc(0.5, y)),
                    mpmath.altzeta(mpmath.mpc(1.5, y)),
                    mpmath.altzeta(mpmath.mpc(-0.5, y)),
                )
                for value, exact in zip(triple, map(complex, expected)):
                    assert abs(value - exact) < 1e-13 * abs(exact)

    def test_functional_equation_consistency(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-2, 4), rng.uniform(-200, 200))
            if abs(s - 1) < 0.6:
                continue
            with mpmath.workdps(30):
                expected = complex(mpmath.altzeta(s))
            # Left of Re s = 0 the N direct terms grow like n^(-Re s), and N
            # reaches thousands at large |Im s|, so their rounding, about
            # 2^-52 * sum n^(-Re s), passes 1e-12: 8.9e-6 (5e-10 relative)
            # at s = -2.0 - 139.5i.
            tolerance = 1e-11 if s.real >= 0 else 1e-9 * abs(expected)
            assert abs(eta(s) - expected) < tolerance
            checked += 1


class TestZetaPlusDerivative:
    def test_eta_prime_at_zero(self):
        expected = 0.5 * math.log(math.pi / 2)
        assert abs(eta(0, derivative=True) - expected) < 1e-10

    def test_high_precision_oracle(self):
        [(value, _, _)] = zeta_plus_triple([14.1347])
        assert abs(value - ETA_PRIME_AT_CRITICAL) < 1e-8

    def test_against_central_differences(self):
        rng = random.Random(3)
        h = 1e-5
        for _ in range(50):
            s = complex(rng.uniform(-0.5, 2.5), rng.uniform(5, 50))
            numeric = (eta(s + h) - eta(s - h)) / (2 * h)
            assert abs(eta(s, derivative=True) - numeric) < 1e-6


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
            assert abs(eta(complex(0.5, y))) < 1e-5

    def test_range_cap(self):
        with pytest.raises(RangeUnsupported):
            classical_zeros(100.5)

    def test_full_supported_range(self):
        found = classical_zeros(100.0)
        assert len(found) == 29  # known count of zeros below 100
        for y, ref in zip(found, REFERENCE_ZEROS):
            assert abs(y - ref) < 1e-6

    def test_block_grid_matches_scalar_hardy_z(self):
        grid = np.arange(5.0, 100.0, 0.05).tolist() + [100.0]
        block = hardy_z(grid)
        scalar = np.array([hardy_z([t])[0] for t in grid])
        assert isinstance(block, np.ndarray) and block.dtype == np.float64
        assert np.max(np.abs(block - scalar)) < 1e-12
        assert np.array_equal(np.sign(block), np.sign(scalar))
        assert hardy_z([]).shape == (0,)

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


def complex_directed_powers(s, n):
    """ln v and v**(-s) for v = 1..n at every point of the 1-D array s, one
    row per point, from fresh logs and one complex expression
    mags * (cos - 1j*sign*sin), with the phase |Im s|*ln(v) reduced mod 2*pi
    in long double: the reference that the package's tabulated logs, shared
    phase and magnitude rows and two real products match."""
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


def zeta_values_reference(ts, n):
    """``special._zeta_values`` with the direct terms of each point from
    ``complex_directed_powers``: zeta(1/2 + it) from N = n terms."""
    s = 0.5 + 1j * np.asarray(ts, dtype=np.float64)
    _, powers = complex_directed_powers(s, n)
    n_pows = powers[:, -1]
    totals = powers[:, :-1].sum(axis=1) + 0.5 * n_pows
    return [
        special._em_corrections(s_i, n, total, None, n_pow, None)[0] + n_pow * n / (s_i - 1.0)
        for s_i, total, n_pow in zip(s.tolist(), totals.tolist(), n_pows.tolist())
    ]


def eta_point_by_point(s, derivative):
    """eta(s), or eta'(s), from the point's own ``complex_directed_powers``
    row, with its direct terms summed as one row, then the Euler-Maclaurin
    corrections and eta's factor 1 - 2^(1-s) in the operations and order of
    ``_eta_values``: the reference its shared passes match."""
    n = special._choose_terms(s, special._TARGET_ABS_ERROR / (10.0 if derivative else 1.0))
    logs, powers = complex_directed_powers(np.array([s]), n)
    n_pows = powers[:, -1]
    [total] = (powers[:, :-1].sum(axis=1) + 0.5 * n_pows).tolist()
    log_n = float(logs[-1])
    [deriv] = (-(logs[:-1] * powers[:, :-1]).sum(axis=1) - 0.5 * log_n * n_pows).tolist()
    [n_pow] = n_pows.tolist()
    regular, regular_prime = special._em_corrections(
        s, n, total, deriv if derivative else None, n_pow, log_n
    )
    u = s - 1.0
    zeta = regular + n_pow * n / u
    if not derivative:
        return (1.0 - 2.0 ** (1.0 - s)) * zeta
    power = np.exp(-u * special._LN2)  # 2^(1-s)
    phi = -(power - 1.0)  # 1 - 2^(1-s)
    zeta_prime = regular_prime - n_pow * n * (math.log(n) * u + 1.0) / (u * u)
    return complex(special._LN2 * power * zeta + phi * zeta_prime)


class TestChooseTerms:
    # the targets of zeta and eta and of eta', and one between them
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
    """The direct terms v**(-s): Hardy Z's critical-line sum and the eta
    evaluator's shared passes against ``complex_directed_powers``."""

    @pytest.mark.parametrize("count", range(1, 41))
    def test_equals_complex_assembly(self, monkeypatch, count):
        rng = np.random.default_rng(count)
        ts = rng.uniform(5.0, 200.0, count)
        n = int(rng.integers(2, 400))
        expected = bits(zeta_values_reference(ts, n))
        # log tables as first built for n, then slices of the full tables
        monkeypatch.setattr(special, "_log_tables", (np.empty(0), np.empty(0)))
        for table_n in (n, special._MAX_TERMS):
            special._logs(table_n)
            assert (bits(special._zeta_values(ts, n)) == expected).all()
            # each point of the block is bitwise the point alone
            alone = [special._zeta_values(ts[i:i + 1], n)[0] for i in range(count)]
            assert (bits(alone) == expected).all()

    def test_one_magnitude_row_per_block(self, monkeypatch):
        # P ordinates at N terms take N magnitudes v^(-1/2), not P*N
        ts = np.linspace(5.0, 200.0, 40).tolist()
        n = special._choose_terms(complex(0.5, max(ts)))
        sizes = []
        exp = np.exp

        def counting(x, *args, **kwargs):
            out = exp(x, *args, **kwargs)
            sizes.append(np.size(out))
            return out

        monkeypatch.setattr(np, "exp", counting)
        hardy_z(ts)
        assert sizes == [n]

    def test_public_values_bitwise(self, monkeypatch):
        rng = random.Random(3)
        ts = [rng.uniform(5.0, 100.0) for _ in range(40)]
        ys = [rng.uniform(0.01, 199.0) for _ in range(20)] + [14.1347, 1e-300]

        def values():
            return (
                bits(hardy_z(ts)),
                bits([hardy_z([t])[0] for t in ts[:5]]),
                bits([zeta_plus_triple([y])[0] for y in ys]),
            )

        fast = values()
        monkeypatch.setattr(special, "_zeta_values", zeta_values_reference)
        for got, ref in zip(fast, values()):
            assert (got == ref).all()

    @given(st.lists(
        st.floats(min_value=0.0, max_value=200.0, exclude_min=True),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=100, deadline=None)
    def test_triple_equals_public_calls(self, ys):
        """Each triple of a batch is bitwise the triple of its ordinate
        alone."""
        for y, triple in zip(ys, zeta_plus_triple(ys)):
            assert (bits(triple) == bits(zeta_plus_triple([y])[0])).all()

    def test_triple_entry_errors(self):
        triples = zeta_plus_triple([250.0, 14.1347, math.nan])
        assert [type(t) for t in triples] == [RangeUnsupported, tuple, RangeUnsupported]
        [alone] = zeta_plus_triple([250.0])
        assert type(alone) is RangeUnsupported and str(alone) == str(triples[0])
        assert zeta_plus_triple([]) == []

    def test_shared_passes_equal_points_alone(self):
        # random ordinates of both signs with 0, a duplicate and a pair
        # +-y, so that phase rows of equal |y| and real points occur, and
        # random lines with sigma in [-2, 4], both flags on one sigma among
        # them; a sigma that would put a grid point within 1/2 of the zeta
        # pole is drawn again
        rng = random.Random(4)
        for _ in range(6):
            ys = [rng.uniform(-200.0, 200.0) for _ in range(rng.randint(1, 5))]
            ys += [0.0, ys[0], -ys[-1]]
            rng.shuffle(ys)
            lines, count = [], rng.randint(1, 4)
            while len(lines) < count:
                sigma = rng.uniform(-2.0, 4.0)
                if all(abs(complex(sigma - 1.0, y)) >= 0.5 for y in ys):
                    lines.append((sigma, rng.random() < 0.5))
            lines.append((lines[0][0], not lines[0][1]))
            grid = special._eta_values(ys, lines)
            assert [len(row) for row in grid] == [len(lines)] * len(ys)
            expected = [
                [eta_point_by_point(complex(sigma, y), derivative) for sigma, derivative in lines]
                for y in ys
            ]
            assert (bits(sum(grid, [])) == bits(sum(expected, []))).all()

    def test_triple_lines_equal_points_alone(self):
        ys = [14.1347, -14.1347, 0.0, 199.9, 1e-300, 14.1347]
        expected = [
            [eta_point_by_point(complex(sigma, y), derivative)
             for sigma, derivative in special._TRIPLE_LINES]
            for y in ys
        ]
        grid = special._eta_values(ys, special._TRIPLE_LINES)
        assert (bits(sum(grid, [])) == bits(sum(expected, []))).all()
        assert special._eta_values([], special._TRIPLE_LINES) == []


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
