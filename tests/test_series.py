import cmath
import math
import random

import mpmath
import pytest

from qzeta import (
    DegenerateDenominator,
    RangeUnsupported,
    SharpParams,
    evaluate,
    linear_approximation,
    select_truncation,
    term_ratio,
)

PAPER_ZA = [
    (14.134725141734693, 0.1303 + 14.1465j),
    (21.022039638771554, 0.3504 + 21.0771j),
    (25.010857580145688, 0.5745 + 24.9643j),
    (30.424876125859513, 0.9134 + 30.4077j),
    (32.935061587739189, 1.0998 + 33.0854j),
    (37.586178158825671, 1.7675 + 38.1895j),
    (40.918719012147495, 1.9141 + 40.7816j),
    (43.327073280914999, 2.4497 + 43.3138j),
    (48.005150881167159, 3.1103 + 47.5578j),
]

# Converged zero of the 290-term series near the first seed, frozen from a
# 40-digit Newton run.
TRUE_ZERO_1 = complex(0.1303891258790380, 14.145005917167339)


def scratch_term(params, k, j):
    """Independent term oracle: the running product is rebuilt from scratch
    for every term (no recurrence between terms).  Factors are grouped per
    index l, since the plain numerator/denominator products underflow well
    before the truncation length."""
    a, d = params.a, params.d
    product = 1.0 + 0.0j
    for l in range(1, j + 1):
        top = (1 - cmath.exp(-(l + 2 * k - 1) / a)) * (1 - cmath.exp((l + k) / a))
        bottom = (1 - cmath.exp(-(l + k - 1) / a)) * (1 - cmath.exp(l / a))
        product *= top / bottom
    gauss = (cmath.exp(d * k * k / (4 * a)) + 1) / (
        cmath.exp(d * (k + j) ** 2 / (4 * a)) + 1
    )
    return product * gauss


def scratch_sum(params, k):
    return sum(scratch_term(params, k, j) for j in range(params.n_terms))


def mpmath_sum(params, k):
    """The series summed in mpmath, with the unguarded Gaussian quotient."""
    with mpmath.workdps(30):
        a, d, k = mpmath.mpf(params.a), mpmath.mpf(params.d), mpmath.mpc(k)
        total = 0
        product = 1
        for j in range(params.n_terms):
            if j:
                product *= (
                    (1 - mpmath.exp(-(j + 2 * k - 1) / a))
                    * (1 - mpmath.exp((j + k) / a))
                    / ((1 - mpmath.exp(-(j + k - 1) / a)) * (1 - mpmath.exp(j / a)))
                )
            total += product * (mpmath.exp(d * k * k / (4 * a)) + 1) / (
                mpmath.exp(d * (k + j) ** 2 / (4 * a)) + 1
            )
        return complex(total)


class TestSharpParams:
    def test_derived_quantities(self):
        p = SharpParams(750.0, 2.0, 15)
        assert 0 < p.q < 1
        assert abs(p.q - math.exp(-1 / 750)) < 1e-15
        assert p.n_terms == math.floor(15 * math.sqrt(375.0))
        assert abs(p.epsilon**2 - math.pi * 750 / 4) < 1e-12 * p.epsilon**2
        assert p.strip.lower == 0.0
        assert abs(p.strip.upper - 2 * p.epsilon) < 1e-12

    @pytest.mark.parametrize("a,d,b", [(750, 2, 15), (750, 2, 20), (100, 7, 9), (3, 1, 2)])
    def test_term_count_exact(self, a, d, b):
        p = SharpParams(float(a), float(d), b)
        assert p.n_terms == math.floor(b * math.sqrt(a / d))

    def test_validation(self):
        with pytest.raises(ValueError):
            SharpParams(-1.0, 2.0, 15)
        with pytest.raises(ValueError):
            SharpParams(750.0, 0.0, 15)
        with pytest.raises(ValueError):
            SharpParams(750.0, 2.0, 0)


class TestTermRatio:
    def test_first_ratio_matches_scratch_oracle(self):
        # at k = 0 exactly the j=1 factor is 0/0 (see the degeneracy test),
        # so the first-ratio check runs just off the singular point
        p = SharpParams(750.0, 2.0, 15)
        for k in (0.01 + 0j, 1e-4 + 1e-4j):
            ratio = term_ratio(p, k, 1)
            oracle = scratch_term(p, k, 1) / scratch_term(p, k, 0)
            assert abs(ratio - oracle) / abs(oracle) < 1e-13

    def test_fifth_ratio_at_seed(self):
        p = SharpParams(750.0, 2.0, 15)
        k = 0.1303 + 14.1465j
        ratio = term_ratio(p, k, 5)
        oracle = scratch_term(p, k, 5) / scratch_term(p, k, 4)
        assert abs(ratio - oracle) / abs(oracle) < 1e-12

    def test_guard_branch_consistency(self):
        # pick parameters with Gaussian exponents just below the guard; the
        # collapsed quotient must match the direct one
        a, d = 1.0, 50.0
        k = 0.05 + 0.1j
        j = 7  # d*(k+j)^2/(4a) ~ 620, inside the safe zone
        w1, w2 = k + j - 1, k + j
        x1 = d * w1 * w1 / (4 * a)
        x2 = d * w2 * w2 / (4 * a)
        assert x1.real < 700 and x2.real < 700
        direct = (cmath.exp(x1) + 1) / (cmath.exp(x2) + 1)
        collapsed = cmath.exp(x1 - x2)
        assert abs(direct - collapsed) / abs(direct) < 1e-12

    def test_degenerate_denominator(self):
        p = SharpParams(750.0, 2.0, 15)
        with pytest.raises(DegenerateDenominator):
            term_ratio(p, 0j, 1)  # j + k - 1 == 0: the factor vanishes
        with pytest.raises(DegenerateDenominator):
            term_ratio(p, complex(-2.0, 0.0), 3)


class TestEvaluate:
    def test_single_term_is_one(self):
        p = SharpParams(3.0, 1.0, 1)
        assert p.n_terms == 1
        for k in (0j, 0.3 + 0.2j, -0.1 + 1.5j):
            assert evaluate(p, k) == 1.0 + 0j

    def test_matches_scratch_oracle_on_random_points(self):
        p = SharpParams(750.0, 2.0, 15)
        rng = random.Random(5)
        for _ in range(20):
            k = complex(rng.uniform(0, 2), rng.uniform(0, 5))
            ours = evaluate(p, k)
            oracle = scratch_sum(p, k)
            assert abs(ours - oracle) / abs(oracle) < 1e-12

    def test_truncation_insensitivity(self):
        k = 0.5 + 20j
        v15 = evaluate(SharpParams(750.0, 2.0, 15), k)
        v25 = evaluate(SharpParams(750.0, 2.0, 25), k)
        assert abs(v15 - v25) / abs(v25) < 1e-9

    def test_converged_zero_residual(self):
        p = SharpParams(750.0, 2.0, 15)
        ratio = abs(evaluate(p, TRUE_ZERO_1)) / abs(evaluate(p, 0.1303 + 14.1465j))
        assert ratio <= 1e-5

    def test_domain_check(self):
        p = SharpParams(750.0, 2.0, 15)
        with pytest.raises(RangeUnsupported):
            evaluate(p, complex(0.0, -2.0 * p.epsilon))

    def test_overflow_guard_keeps_results_finite(self):
        # 30 terms at a=1, d=50: the Gaussian exponents pass the overflow
        # guard from j=8 on, so the collapsed quotient carries the tail
        p = SharpParams(1.0, 50.0, 213)
        k = 0.05 + 0.1j
        assert p.n_terms == 30
        assert (p.d * (k + p.n_terms - 1) ** 2 / (4 * p.a)).real > 700
        value = evaluate(p, k)
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        oracle = mpmath_sum(p, k)
        assert abs(value - oracle) / abs(oracle) < 1e-12

    def test_degenerate_denominator(self):
        # j + k - 1 == 0 at j=1: the first term's denominator vanishes
        with pytest.raises(DegenerateDenominator):
            evaluate(SharpParams(750.0, 2.0, 15), 0j)


class TestSelectTruncation:
    @pytest.mark.parametrize(
        "region_top,expected",
        [(14.15, 15), (33.1, 15), (34.0, 15), (37.0, 20), (48.1, 20), (49.0, 20)],
    )
    def test_calibration(self, region_top, expected):
        assert select_truncation(750.0, 2.0, region_top) == expected


class TestLinearApproximation:
    def test_paper_table(self):
        for y, za_ref in PAPER_ZA:
            za = linear_approximation(y, 750.0, 2.0)
            assert abs(za.real - za_ref.real) < 5e-4
            assert abs(za.imag - za_ref.imag) < 5e-4

    def test_correction_scales_inversely_with_a(self):
        y = 14.1347
        offset_a = abs(linear_approximation(y, 750.0, 2.0) - 1j * y)
        offset_10a = abs(linear_approximation(y, 7500.0, 2.0) - 1j * y)
        assert abs(offset_a / offset_10a - 10.0) < 1e-3 * 10.0

    def test_limit_toward_classical_zero(self):
        za = linear_approximation(14.1347, 1e6, 2.0)
        assert abs(za.real) < 2e-4
        assert abs(za.imag - 14.1347) < 2e-4
