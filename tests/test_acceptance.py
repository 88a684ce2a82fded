"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7's truncation check bounds how far the terms dropped by the
series truncation can move each zero, and compares that bound with the
zero's reported error in the paper's table.  At the paper's b=15, zeros 4
and 5 have the largest relative tails, 1.57e-7 and 2.56e-6; the zero
shifts these allow, 5.0e-8 and 9.9e-7, stay within those zeros' errors of
1.0e-6 and 1.3e-6.
"""

import cmath
import json
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qzeta import (
    Rectangle,
    RunConfig,
    SharpParams,
    Verdict,
    emit_json,
    execute,
    integrate,
    linear_approximation,
    select_truncation,
    zeta_plus_triple,
)
from qzeta.series import _index_rows, _term_ratios
from qzeta.special import REFERENCE_ZEROS
from qzeta.winding import moment_zero_estimate

# 45-digit zeros of the truncated series at the paper's parameters
ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.json"

PAPER_TABLE = {
    # index: (y, za, b, final z, de, vv)
    1: (14.1347, 0.1303 + 14.1465j, 15, 0.1304 + 14.1450j, 1.0e-6, 1.0e-6),
    2: (21.0220, 0.3504 + 21.0771j, 15, 0.3514 + 21.0702j, 1.0e-6, 1.0e-6),
    3: (25.0109, 0.5745 + 24.9643j, 15, 0.5641 + 24.9586j, 1.0e-6, 1.0e-6),
    4: (30.4249, 0.9134 + 30.4077j, 15, 0.9046 + 30.4014j, 1.0e-6, 1.9e-5),
    5: (32.9351, 1.0998 + 33.0854j, 15, 1.1051 + 33.0341j, 1.3e-6, 1.16e-4),
    6: (37.5862, 1.7675 + 38.1895j, 20, 1.6449 + 37.9659j, 4.0e-5, 1.05e-3),
    7: (40.9187, 1.9141 + 40.7816j, 20, 1.9080 + 40.8119j, 3.1e-5, 1.39e-2),
    8: (43.3271, 2.4497 + 43.3138j, 20, 2.2860 + 43.2485j, 3.0e-5, 1.59e-3),
    9: (48.0052, 3.1103 + 47.5578j, 20, 2.9259 + 47.8424j, 6.2e-6, 3.05e-3),
}


def _line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} criterion {criterion}: {detail}")
    return ok


def _truncation_shift_bound(rect, b):
    """Largest relative Cauchy tail |S_{B+50} - S_B| / |S_{B+50}| at 8 points
    on the boundary of ``rect`` (B = n_terms at truncation b), and the zero
    shift it allows, (L/2 pi) times that tail for the perimeter L."""
    n = SharpParams(750.0, 2.0, b).n_terms
    corners = rect.corners()
    points = np.array([
        start + t * (end - start)
        for start, end in zip(corners, corners[1:] + corners[:1])
        for t in (0.0, 0.5)
    ])
    # term j is the running product of the ratios 1..j; S_B sums terms 0..B-1
    rows = _index_rows(750.0, np.arange(1, n + 50))
    terms = np.cumprod(_term_ratios(750.0, 2.0, points, rows), axis=1)
    sums = 1.0 + np.cumsum(terms, axis=1)
    s_short, total = sums[:, n - 2], sums[:, -1]
    tail = float(np.max(np.abs(s_short - total) / np.abs(total)))
    perimeter = 4.0 * (rect.rd + rect.rad)
    return tail, perimeter / (2.0 * math.pi) * tail


class TestCriterion1LinearApproximations:
    def test_nine_predictions_match_table(self):
        start = time.perf_counter()
        worst = 0.0
        rows = list(PAPER_TABLE.values())
        zas = linear_approximation([y for y, *_ in rows], 750.0, 2.0)
        for (_, za_ref, _, _, _, _), za in zip(rows, zas):
            worst = max(worst, abs(za.real - za_ref.real), abs(za.imag - za_ref.imag))
        elapsed = time.perf_counter() - start
        ok = worst < 5e-4 and elapsed < 5.0
        assert _line(1, ok, f"worst |za - table| = {worst:.2e}, {elapsed:.2f}s")


class TestCriterion2FinalZeros:
    def test_nine_very_good_zeros(self, paper_run):
        records = paper_run.records
        ok = len(records) == 9 and paper_run.elapsed < 300.0
        worst = 0.0
        for index, record in enumerate(records, start=1):
            _, _, _, z_ref, _, _ = PAPER_TABLE[index]
            worst = max(worst, abs(record.z - z_ref))
            ok = ok and record.verdict is Verdict.VERY_GOOD and abs(record.z - z_ref) < 2e-3
        assert _line(
            2, ok, f"worst |z - final list| = {worst:.2e}, run {paper_run.elapsed:.1f}s"
        )

    def test_zeros_match_truncated_series_oracle(self, paper_run):
        """Each zero lies within 1e-3 of the 45-digit zero of the same
        truncated series (perfbench/oracle.json), and zeros 1-5 lie within
        their reported de."""
        fixture = json.loads(ORACLE.read_text())
        exact = {
            (e["a"], e["d"], e["b"], e["index"]): complex(*map(float, e["z"]))
            for e in fixture["paper9"]
        }
        errors = {
            seed.index: abs(record.z - exact[(750, 2, seed.b, seed.index)])
            for seed, record in zip(paper_run.seeds, paper_run.records)
        }
        ok = len(errors) == 9 and max(errors.values()) < 1e-3
        for index, record in enumerate(paper_run.records[:5], start=1):
            ok = ok and errors[index] <= record.de
        assert _line(
            2, ok, "|z - oracle| = "
            + ", ".join(f"{errors[i]:.1e}" for i in sorted(errors))
        )


class TestCriterion3Truncation:
    def test_automatic_b_matches_table(self, paper_run):
        ok = True
        for seed in paper_run.seeds:
            expected = PAPER_TABLE[seed.index][2]
            ok = ok and seed.b == expected
        assert _line(3, ok, f"b = {[s.b for s in paper_run.seeds]}")

    def test_select_truncation_directly(self):
        assert select_truncation(750.0, 2.0, [14.15, 33.1, 48.1]) == [15, 15, 20]


class TestCriterion4MissDetection:
    def test_seed_rectangle_of_zero9_misses(self, paper_run):
        f = SharpParams(750.0, 2.0, 20)
        rect = Rectangle(3.11028 + 47.5578j, 0.5, 0.25)
        result = integrate(f, rect, 4)
        char_ok = abs(result.char - 1.0) <= 0.05
        record9 = paper_run.records[8]
        converged = record9.verdict is Verdict.VERY_GOOD
        ok = char_ok and converged
        assert _line(
            4, ok, f"char = {result.char:.4f}, retried search verdict = "
            f"{record9.verdict.value}"
        )


class TestCriterion5VariantScheduling:
    def test_zeros_4_and_9_deferred_and_completed(self, paper_run):
        numbered = list(enumerate(paper_run.records, start=1))
        deferred = sorted(
            index for index, r in numbered if 2 in r.variants_visited
        )
        completed_in_v2 = all(
            max(r.variants_visited) == 2
            for index, r in numbered
            if index in (4, 9)
        )
        others_direct = all(
            r.variants_visited == (1,)
            for index, r in numbered
            if index not in (4, 9)
        )
        ok = deferred == [4, 9] and completed_in_v2 and others_direct
        assert _line(5, ok, f"variant-2 zeros = {deferred}")


class TestCriterion6ResidualRatios:
    def test_vv_and_de_bands(self, paper_run):
        ok = True
        details = []
        for index, record in enumerate(paper_run.records, start=1):
            _, _, _, _, de_ref, vv_ref = PAPER_TABLE[index]
            # "within a factor of 10" of the reference values; being more
            # accurate than the reference cannot fail the vv comparison
            # (the criterion's own gloss for zero 1 is one-sided)
            ok = ok and record.vv_final <= 10.0 * vv_ref
            ok = ok and record.de is not None
            ok = ok and 0.1 * de_ref <= record.de <= 10.0 * de_ref
        vv1 = paper_run.records[0].vv_final
        vv7 = paper_run.records[6].vv_final
        ok = ok and vv1 <= 1e-5
        ok = ok and 1e-3 <= vv7 <= 1e-1
        assert _line(6, ok, f"vv1 = {vv1:.2e}, vv7 = {vv7:.2e}")


class TestCriterion7PropertySuite:
    started = None

    @classmethod
    def setup_class(cls):
        cls.started = time.perf_counter()

    def test_winding_integrality_on_random_polynomials(self):
        rng = random.Random(41)
        cases = 0
        worst = 0.0
        while cases < 200:
            rect = Rectangle(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                rng.uniform(0.3, 1.2),
                rng.uniform(0.2, 1.0),
            )
            margin = 0.2 * min(rect.rd, rect.rad)
            roots = [
                rect.center
                + complex(rng.uniform(-2.5, 2.5) * rect.rd,
                          rng.uniform(-2.5, 2.5) * rect.rad)
                for _ in range(rng.randint(1, 4))
            ]

            def boundary_distance(r):
                dx = abs(r.real - rect.center.real) - rect.rd
                dy = abs(r.imag - rect.center.imag) - rect.rad
                if dx <= 0 and dy <= 0:
                    return min(-dx, -dy)
                return math.hypot(max(dx, 0), max(dy, 0))

            if any(boundary_distance(r) < margin for r in roots):
                continue

            def f(k, roots=roots):
                value = 1.0 + 0.0j
                for r in roots:
                    value *= k - r
                return value

            trace = integrate(f, rect, 6).trace
            char = 1.0 - trace.winding
            worst = max(worst, abs(char - round(char)))
            cases += 1
        ok = worst < 0.02
        assert _line(7, ok, f"winding integrality worst defect = {worst:.2e}")

    def test_cubic_roots_recovered(self):
        rng = random.Random(43)
        worst = 0.0
        for _ in range(30):
            rect = Rectangle(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                rng.uniform(0.3, 1.0),
                rng.uniform(0.2, 0.8),
            )
            diam = 2 * math.hypot(rect.rd, rect.rad)
            inside = rect.center + complex(
                rng.uniform(-0.5, 0.5) * rect.rd, rng.uniform(-0.5, 0.5) * rect.rad
            )
            outs = [
                rect.center + 5 * diam * cmath.exp(1j * rng.uniform(0, 6.28)),
                rect.center + 7 * diam * cmath.exp(1j * rng.uniform(0, 6.28)),
            ]

            def f(k, rs=[inside] + outs):
                value = 1.0 + 0.0j
                for r in rs:
                    value *= k - r
                return value

            trace = integrate(f, rect, 24).trace
            estimate = moment_zero_estimate(trace)
            worst = max(worst, abs(estimate - inside) / diam)
        ok = worst < 1e-4
        assert _line(7, ok, f"cubic root recovery worst = {worst:.2e} diam")

    def test_eta_triple_against_mpmath(self):
        """The three eta values each paper prediction combines,
        eta'(1/2 + iy), eta(3/2 + iy) and eta(-1/2 + iy), match mpmath's
        altzeta (30 digits) at the nine paper ordinates."""
        worst = 0.0
        with mpmath.workdps(30):
            for y, triple in zip(REFERENCE_ZEROS, zeta_plus_triple(REFERENCE_ZEROS)):
                expected = (
                    mpmath.diff(mpmath.altzeta, mpmath.mpc(0.5, y)),
                    mpmath.altzeta(mpmath.mpc(1.5, y)),
                    mpmath.altzeta(mpmath.mpc(-0.5, y)),
                )
                for value, exact in zip(triple, map(complex, expected)):
                    worst = max(worst, abs(value - exact) / abs(exact))
        ok = worst < 1e-13
        assert _line(7, ok, f"eta triple worst relative error vs mpmath = {worst:.2e}")

    @pytest.mark.parametrize("index", sorted(PAPER_TABLE))
    def test_truncation_cauchy_property(self, index):
        """The terms dropped at the paper's truncation move the zero by less
        than its reported error, and five steps of b fewer would not.

        With B = n_terms and the Cauchy difference D = S_{B+50} - S_B, the
        zero of S_{B+50} = S_B + D lies, to first order in D/S, at the zero
        of S_B shifted by the first moment
        dz = (1/2 pi i) * contour integral of D/S dk, taken over a
        rectangle that encloses that zero alone.  Bounding the integrand by
        its largest modulus on the boundary gives |dz| <= (L/2 pi) max|D/S|,
        with L = 6 rd the perimeter of the initial search rectangle
        Rectangle(za, rd, rd/2).  The max is sampled at 8 boundary points.
        At the table's b the bound must not exceed the table's de; at b - 5
        it must exceed de, so the check still rejects an under-converged
        truncation.
        """
        y, _, b, _, de, _ = PAPER_TABLE[index]
        [za] = linear_approximation([y], 750.0, 2.0)
        rd = min(0.5, 0.365 * abs(za - 1j * y))
        rect = Rectangle(za, rd, rd / 2)

        tail, shift = _truncation_shift_bound(rect, b)
        _, shift_short = _truncation_shift_bound(rect, b - 5)
        ok = shift <= de < shift_short
        _line(
            7, ok, f"truncation zero {index}: tail {tail:.2e}, zero shift "
            f"<= {shift:.2e}, de {de:.1e} (b={b}); shift <= "
            f"{shift_short:.2e} at b={b - 5}"
        )
        assert shift <= de, (
            f"zero {index}: tail {tail:.2e} at b={b} may move the zero by "
            f"{shift:.2e}, more than its error {de:.1e}"
        )
        assert shift_short > de, (
            f"zero {index}: shift bound {shift_short:.2e} at b={b - 5} does "
            f"not exceed de {de:.1e}; the check cannot reject that truncation"
        )

    def test_runtime_budget(self):
        elapsed = time.perf_counter() - self.started
        ok = elapsed < 120.0
        assert _line(7, ok, f"property suite took {elapsed:.1f}s")


class TestCriterion8Determinism:
    def test_back_to_back_json_is_byte_identical(self):
        first = emit_json(execute(RunConfig()))
        second = emit_json(execute(RunConfig()))
        ok = first == second
        assert _line(8, ok, f"{len(first)} bytes compared")


class TestStripSanity:
    def test_accepted_zeros_stay_in_strip(self, paper_run):
        half_band = 2.0 * SharpParams(750.0, 2.0, 15).epsilon
        for record in paper_run.records:
            assert 0.0 < record.z.imag
            assert abs(record.z.real) < half_band
