import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta import (
    DegenerateDenominator,
    NonFiniteResult,
    RangeUnsupported,
    SharpParams,
    evaluate,
    linear_approximation,
    select_truncation,
    term_ratio,
)
from qzeta.series import MAX_SERIES_TERMS

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


def mpmath_ratio(params, k, j):
    """The j-th term ratio in 40-digit mpmath, with the unguarded Gaussian
    quotient."""
    with mpmath.workdps(40):
        a, d, k = mpmath.mpf(params.a), mpmath.mpf(params.d), mpmath.mpc(k)
        return complex(
            (1 - mpmath.exp(-(j + 2 * k - 1) / a))
            * (1 - mpmath.exp((j + k) / a))
            / ((1 - mpmath.exp(-(j + k - 1) / a)) * (1 - mpmath.exp(j / a)))
            * (mpmath.exp(d * (k + j - 1) ** 2 / (4 * a)) + 1)
            / (mpmath.exp(d * (k + j) ** 2 / (4 * a)) + 1)
        )


class TestSharpParams:
    def test_derived_quantities(self):
        p = SharpParams(750.0, 2.0, 15)
        assert 0 < p.q < 1
        assert abs(p.q - math.exp(-1 / 750)) < 1e-15
        assert p.n_terms == math.floor(15 * math.sqrt(375.0))
        assert abs(p.epsilon**2 - math.pi * 750 / 4) < 1e-12 * p.epsilon**2

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

    def test_term_cap(self):
        # sqrt(a/d) = 20000 exactly, so b = 5 keeps exactly the cap
        a = (MAX_SERIES_TERMS / 5) ** 2
        assert SharpParams(a, 1.0, 5).n_terms == MAX_SERIES_TERMS
        # the last keeps infinitely many: a/d overflows
        for a, d, b in [(a, 1.0, 6), (1e12, 1.0, 5), (1e308, 1e-10, 5)]:
            with pytest.raises(ValueError, match=f"more than {MAX_SERIES_TERMS}"):
                SharpParams(a, d, b)


class TestTermRatio:
    def test_first_ratio_matches_mpmath(self):
        # at k = 0 exactly the j=1 factor is 0/0 (see the degeneracy test),
        # so the first-ratio check runs just off the singular point, where
        # double-precision 1 - exp(...) loses up to ~1e-10 to cancellation
        p = SharpParams(750.0, 2.0, 15)
        for k in (0.01 + 0j, 1e-4 + 1e-4j):
            ratio = term_ratio(p, k, 1)
            oracle = mpmath_ratio(p, k, 1)
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

    @pytest.mark.parametrize("j", [1, 2, 3, 17, 288])
    def test_degenerate_only_on_the_real_point(self, j):
        # the denominator vanishes at k = 1 - j exactly; just off it the
        # ratio is large but finite, in term_ratio and in the whole sum
        p = SharpParams(750.0, 2.0, 15)
        k = complex(1 - j)
        with pytest.raises(DegenerateDenominator, match=f"at j={j},"):
            term_ratio(p, k, j)
        with pytest.raises(DegenerateDenominator, match=f"at j={j},"):
            evaluate(p, k)
        # neither the neighbouring indices' factors at k nor index j's just
        # off k vanish
        for near, index in [(k, j + 1), (k, j - 1), (k + 1e-9, j), (k + 1e-12j, j)]:
            if index >= 1:
                ratio = term_ratio(p, near, index)
                assert math.isfinite(ratio.real) and math.isfinite(ratio.imag)
        # the real point 0.5 makes the batch go through the per-point check
        values = evaluate(p, np.array([k + 1e-9, k + 1e-12j, 0.5]))
        assert np.isfinite(values).all()

    def test_underflowed_factors_raise(self):
        # valid but absurd scales: e1*e2 and e3*alpha2 both underflow to 0,
        # so the ratio is 0/0; it must raise, not come back as nan
        p = SharpParams(1e303, 1e303, 3)
        with pytest.raises(NonFiniteResult):
            term_ratio(p, 0.5, 1)
        with pytest.raises(NonFiniteResult):
            evaluate(p, 0.5)


# The reference run's two truncations and a guard-active one (see
# test_overflow_guard_keeps_results_finite).
BATCH_PARAMS = [
    SharpParams(750.0, 2.0, 15),
    SharpParams(750.0, 2.0, 20),
    SharpParams(1.0, 50.0, 213),
]


@st.composite
def batches(draw):
    """A parameter set and 1..40 points of its evaluation band, kept off the
    real points k = 1 - j where a denominator factor vanishes."""
    params = draw(st.sampled_from(BATCH_PARAMS))
    eps = params.epsilon
    point = st.builds(complex, st.floats(0.01, 4.0), st.floats(-eps, 3.0 * eps))
    return params, draw(st.lists(point, min_size=1, max_size=40))


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

    @pytest.mark.parametrize("offset", [0.3, 0.3j])
    def test_accuracy_near_the_first_zero(self, offset):
        # 1 - exp(...) evaluated directly loses 6.7e-10 of relative accuracy
        # at the 0.3j point to cancellation; the expm1 factors keep 1.4e-10
        p = SharpParams(750.0, 2.0, 15)
        k = TRUE_ZERO_1 + offset
        oracle = mpmath_sum(p, k)
        assert abs(evaluate(p, k) - oracle) / abs(oracle) < 3e-10

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

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_pointwise_exactly(self, batch):
        params, ks = batch
        values = evaluate(params, np.array(ks))
        assert isinstance(values, np.ndarray) and values.shape == (len(ks),)
        assert values.tolist() == [evaluate(params, k) for k in ks]

    def test_scalar_argument_returns_python_complex(self):
        p = SharpParams(750.0, 2.0, 15)
        assert type(evaluate(p, 0.13 + 14.15j)) is complex
        assert type(evaluate(p, np.complex128(0.13 + 14.15j))) is complex

    def test_out_of_band_point_is_named(self):
        p = SharpParams(750.0, 2.0, 15)
        outside = complex(0.5, 3.5 * p.epsilon)
        ks = np.array([0.5 + 14j, outside, complex(0.5, -2.0 * p.epsilon)])
        with pytest.raises(RangeUnsupported) as batch_error:
            evaluate(p, ks)
        with pytest.raises(RangeUnsupported) as point_error:
            evaluate(p, outside)
        assert str(batch_error.value) == str(point_error.value)

    def test_degenerate_point_in_batch(self):
        p = SharpParams(750.0, 2.0, 15)
        with pytest.raises(DegenerateDenominator) as batch_error:
            evaluate(p, np.array([0.5 + 14j, 0j, 0.5 + 20j]))
        with pytest.raises(DegenerateDenominator) as point_error:
            evaluate(p, 0j)
        assert str(batch_error.value) == str(point_error.value)


def select_truncation_by_candidate(a, d, region_top):
    """The candidate-by-candidate form of ``select_truncation``: each b's
    estimate rebuilt from complex exponentials over its own terms."""
    b = 5
    while True:
        n_terms = math.floor(b * math.sqrt(a / d))
        if n_terms >= 1:
            ls = np.arange(1, n_terms + 1)
            growth = np.log(np.abs(1.0 - np.exp((ls + 1j * region_top) / a)))
            growth -= np.log(np.abs(1.0 - np.exp(ls / a)))
            if -d * n_terms * n_terms / (4.0 * a) + growth.sum() < math.log(1e-3):
                return b
        b += 5


class TestSelectTruncation:
    @pytest.mark.parametrize(
        "region_top,expected",
        [(14.15, 15), (33.1, 15), (34.0, 15), (37.0, 20), (48.1, 20), (49.0, 20)],
    )
    def test_calibration(self, region_top, expected):
        assert select_truncation(750.0, 2.0, region_top) == expected
        assert select_truncation_by_candidate(750.0, 2.0, region_top) == expected

    @given(
        st.floats(100.0, 5000.0), st.floats(0.5, 5.0), st.floats(1.0, 120.0)
    )
    @settings(max_examples=200, deadline=None)
    def test_same_b_as_candidate_loop(self, a, d, region_top):
        assert select_truncation(a, d, region_top) == (
            select_truncation_by_candidate(a, d, region_top)
        )

    def test_later_passes_extend_the_candidates(self):
        # b = 30 lies beyond the first pass's candidates
        assert select_truncation(3000.0, 1.0, 100.0) == 30
        assert select_truncation_by_candidate(3000.0, 1.0, 100.0) == 30

    @pytest.mark.parametrize("a,d", [(1e-3, 1e-3), (1e-3, 1.0)])
    def test_overflowing_estimate_raises(self, a, d):
        # e^(l/a) overflows at the first term, so no estimate is finite
        with pytest.raises(RangeUnsupported) as info:
            select_truncation(a, d, 1.0)
        assert f"a={a:g}, d={d:g}, region_top=1" in str(info.value)

    def test_term_cap(self):
        # b = 5 keeps 5e6 terms at a = 1e12, d = 1: nothing to try
        with pytest.raises(RangeUnsupported, match="at most 100000 series terms"):
            select_truncation(1e12, 1.0, 14.0)
        # at a = 1e8, d = 1, b = 5 and 10 keep 5e4 and 1e5 terms and b = 15
        # too many: 10 passes at region_top 1, and at 14 neither does
        assert select_truncation(1e8, 1.0, 1.0) == 10
        assert select_truncation_by_candidate(1e8, 1.0, 1.0) == 10
        with pytest.raises(RangeUnsupported) as info:
            select_truncation(1e8, 1.0, 14.0)
        assert "a=1e+08, d=1, region_top=14" in str(info.value)


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
