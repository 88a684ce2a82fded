import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qzeta.search
from qzeta import (
    Assessment,
    RangeUnsupported,
    Rectangle,
    RunConfig,
    Verdict,
    classical_zeros,
    execute,
    integrate,
    plan_seeds,
    run_variants,
)
from qzeta.pipeline import PAPER_Y_MAX
from qzeta.search import (
    SearchState,
    assess,
    escalation_schedule,
    initial_rectangle,
    newton_refine,
    step_policy,
)


def product_of_roots(roots):
    def f(k):
        value = 1.0 + 0.0j
        for r in roots:
            value *= k - r
        return value

    return f


class TestInitialRectangle:
    def test_sized_by_seed_displacement(self):
        rect = initial_rectangle(0.130263 + 14.1465j, 14.1347)
        assert abs(rect.rd - 0.0477578) < 1e-4
        assert abs(rect.rad - 0.0238789) < 1e-4
        assert rect.center == 0.130263 + 14.1465j

    def test_cap_at_half(self):
        rect = initial_rectangle(1.76753 + 38.1895j, 37.5862)
        assert rect.rd == 0.5
        assert rect.rad == 0.25

    def test_degenerate_seed_floor(self):
        rect = initial_rectangle(14.1347j, 14.1347)
        assert rect.rd == 1e-3

    def test_aspect_ratio(self):
        rect = initial_rectangle(0.3 + 20.01j, 20.0)
        assert abs(rect.rad / rect.rd - 0.5) < 1e-15


def _state(**overrides):
    base = dict(
        zna=0.3 + 20j,
        zn=0.3 + 20j,
        rd=0.1,
    )
    base.update(overrides)
    return SearchState(**base)


def _result_for(f, rect, c=4):
    return integrate(f, rect, c)


class TestAssess:
    def test_miss_is_not_good(self):
        # no zero inside: winding 0 -> char 1
        f = product_of_roots([5 + 5j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        verdict = assess(result, _state())
        assert verdict is Assessment.NOT_GOOD

    def test_gap_metric_violation_blocks_good(self):
        f = product_of_roots([0.3 + 20j + 0.01j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        result.fo = 3  # beyond FO_GOOD_MAX
        verdict = assess(result, _state())
        assert verdict is Assessment.NOT_GOOD

    def test_residual_ratio_violation(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        result.value_estimate = complex(0.9 * result.abs_center)  # residual ratio 0.9
        # force the estimate away from the incumbent so no waiver applies
        state = _state(zna=0.25 + 20.01j)
        assert assess(result, state) is Assessment.NOT_GOOD
        # an estimate on the incumbent confirms the location: the ratio is waived
        assert assess(result, _state(zna=result.z_estimate)) is Assessment.GOOD

    def test_estimate_outside_the_rectangle_is_not_good(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        assert assess(result, _state()) is Assessment.GOOD
        result.z_estimate = 0.401 + 20.002j  # just past the right side
        assert not result.inside
        assert assess(result, _state()) is Assessment.NOT_GOOD

    def test_residual_above_the_slack_needs_the_incumbent(self):
        # |f| at the estimate may exceed the best accepted value by 25% only
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        result.value_estimate = 1e-4 + 0j
        far = 0.25 + 20.01j  # an incumbent the estimate does not confirm
        assert assess(result, _state(zna=far, accepted=[(far, 1e-4 / 1.2)])) is Assessment.GOOD
        assert assess(result, _state(zna=far, accepted=[(far, 1e-4 / 1.3)])) is Assessment.NOT_GOOD
        on = _state(zna=result.z_estimate, accepted=[(far, 1e-4 / 1.3)])
        assert assess(result, on) is Assessment.GOOD

    @pytest.mark.parametrize(
        "at_estimate",
        [RangeUnsupported("Im k = 9 too high"), complex(1.7e308, 1.7e308)],
        ids=["raises", "past-the-float-range"],
    )
    def test_failed_evaluation_at_the_estimate_is_not_good(self, at_estimate):
        # the same integration as a good one, except that f fails only at the
        # moment estimate: it raises there, or returns a value abs() rejects
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        clean = _result_for(f, rect)
        assert assess(clean, _state()) is Assessment.GOOD

        def g(k):
            if k == clean.z_estimate:
                if isinstance(at_estimate, Exception):
                    raise at_estimate
                return at_estimate
            return f(k)

        result = _result_for(g, rect)
        assert result.z_estimate == clean.z_estimate
        assert result.value_estimate is None
        assert result.abs_estimate == math.inf
        assert result.vv == math.inf
        assert assess(result, _state()) is Assessment.NOT_GOOD

    def test_programming_error_at_the_estimate_propagates(self):
        # only EVALUATION_FAULTS make an estimate not good; a TypeError there
        # is a fault in f, as it is at a boundary sample
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        clean = _result_for(f, rect)

        def g(k):
            if k == clean.z_estimate:
                raise TypeError("bad operand")
            return f(k)

        with pytest.raises(TypeError, match="bad operand"):
            _result_for(g, rect)

    def test_first_good_is_only_good(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        verdict = assess(result, _state())
        assert verdict is Assessment.GOOD

    def test_second_consecutive_good_concludes_in_second_phase(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect, c=6)
        state = _state(
            phase=1,
            consecutive_good=1,
            opening_vv=0.1,
            accepted=[(0.3100001 + 20.002j, 1.0)],
        )
        assert assess(result, state) is Assessment.VERY_GOOD
        # a step of 1e-4 into the estimate (de 1e-5, above the 1e-6 floor)
        # concludes only in the confirmation pass at the escalated density
        state.accepted = [(result.z_estimate + 1e-4, 1.0)]
        assert assess(result, state) is Assessment.VERY_GOOD
        state.phase = 0
        assert assess(result, state) is Assessment.GOOD
        # with de at the floor the opening density concludes too
        state.accepted = [(result.z_estimate + 1e-6, 1.0)]
        assert assess(result, state) is Assessment.VERY_GOOD
        # a step of 3e-3 puts de at 3e-4, past DE_ADMISSIBLE
        state.phase = 1
        state.accepted = [(result.z_estimate + 3e-3, 1.0)]
        assert assess(result, state) is Assessment.GOOD
        # a gap metric of 2 is good, but too coarse to conclude
        state.accepted = [(0.3100001 + 20.002j, 1.0)]
        result.fo = 2
        assert assess(result, state) is Assessment.GOOD

    def test_sloppy_opening_blocks_variant_one(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect, c=6)
        state = _state(
            phase=1,
            consecutive_good=1,
            opening_vv=0.7,  # above SEED_VV_LIMIT
            accepted=[(0.3100001 + 20.002j, 1.0)],
        )
        assert assess(result, state) is Assessment.GOOD
        state.variant = 1  # later variants are exempt
        assert assess(result, state) is Assessment.VERY_GOOD


class TestStepPolicy:
    def test_good_halves_and_recenters(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        state = _state()
        step_policy(state, Assessment.GOOD, result)
        assert state.rd == 0.05 and state.rect.rad == 0.025
        assert state.consecutive_good == 1
        assert state.zna == result.z_estimate
        expected_zn = (result.z_estimate + result.vv * (0.3 + 20j)) / (1 + result.vv)
        assert abs(state.zn - expected_zn) < 1e-15

    def test_miss_doubles_and_drifts(self):
        f = product_of_roots([5 + 5j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        state = _state(consecutive_good=1)
        step_policy(state, Assessment.NOT_GOOD, result)
        assert state.rd == 0.2 and state.rect.rad == 0.1
        assert state.consecutive_good == 0
        drift = state.zn - (0.3 + 20j)
        assert abs(drift - (result.z_estimate - (0.3 + 20j)) / 4) < 1e-15

    def test_other_failure_recenters_at_incumbent(self):
        f = product_of_roots([0.31 + 20.002j])
        rect = Rectangle(0.3 + 20j, 0.1, 0.05)
        result = _result_for(f, rect)
        result.char = 0.3  # non-integral winding defect
        state = _state(zn=0.35 + 20.01j, zna=0.29 + 20.001j)
        step_policy(state, Assessment.NOT_GOOD, result)
        assert state.zn == 0.29 + 20.001j
        assert state.rd == 0.1  # same size


class TestEstimateDe:
    def test_floor(self):
        state = _state(accepted=[(0.3 + 20j, 1.0), (0.3 + 20j, 0.5)])
        assert state.de == 1e-6

    def test_movement_scale(self):
        state = _state(accepted=[(0.3 + 20j, 1.0), (0.3005 + 20j, 0.5)])
        assert abs(state.de - 5e-5) < 1e-18

    def test_insufficient_history(self):
        assert _state().de is None
        assert _state(accepted=[(0.3 + 20j, 1.0)]).de is None


class TestNewtonRefine:
    def test_linear_exact_in_one_step(self):
        root = 0.7 - 1.2j
        f = lambda k: k - root
        z, accepted, value = newton_refine(f, 0.8 - 1.1j, f(0.8 - 1.1j), allowance=0.5)
        assert accepted
        # exact up to the central-difference rounding (~1e-10 relative)
        assert abs(z - root) < 1e-9
        assert value == f(z)

    def test_movement_allowance_rejects_distant_jumps(self):
        root = 0.7 - 1.2j
        f = lambda k: k - root
        z, accepted, value = newton_refine(f, 0.8 - 1.1j, f(0.8 - 1.1j), allowance=1e-6)
        assert not accepted
        assert z == 0.8 - 1.1j
        assert value is None

    def test_smooth_quadratic_convergence(self):
        root = 1.5 + 3j
        f = lambda k: (k - root) * (k + 10)
        z, accepted, _ = newton_refine(f, 1.52 + 3.01j, f(1.52 + 3.01j), allowance=0.1)
        assert accepted
        assert abs(z - root) < 1e-9

    def test_no_value_at_the_start_rejects(self):
        # the search passes None when its evaluation at z0 raised
        calls = []
        z, accepted, value = newton_refine(calls.append, 0.8 - 1.1j, None, allowance=0.5)
        assert (z, accepted, value, calls) == (0.8 - 1.1j, False, None, [])


def _one_seed(f, y, za):
    (record,) = run_variants([f], [(y, za)])
    return record


class TestLocateZero:
    def test_linear_target(self):
        record = _one_seed(lambda k: k - (0.3 + 20j), 20.0, 0.29 + 20.01j)
        assert record.verdict is Verdict.VERY_GOOD
        assert abs(record.z - (0.3 + 20j)) < 1e-6
        assert len(record.trace_log) <= 3

    def test_halving_and_aspect_preserved(self):
        record = _one_seed(lambda k: k - (0.3 + 20j), 20.0, 0.29 + 20.01j)
        rects = [a.result.trace.rect for a in record.trace_log]
        for before, after in zip(rects, rects[1:]):
            assert after.rd == before.rd / 2  # every step here is good
        for rect in rects:
            assert abs(rect.rad / rect.rd - 0.5) < 1e-15

    def test_containment_of_concluded_zero(self):
        record = _one_seed(lambda k: k - (0.3 + 20j), 20.0, 0.29 + 20.01j)
        final = record.trace_log[-1]
        assert final.result.trace.rect.contains(final.result.z_estimate)

    def test_monotone_residuals_on_good_subsequence(self):
        roots = [0.3 + 20j, 3 + 22j, -2 + 18j]
        record = _one_seed(product_of_roots(roots), 20.0, 0.29 + 20.01j)
        values = [
            a.result.abs_estimate
            for a in record.trace_log
            if a.assessment is not Assessment.NOT_GOOD
        ]
        for before, after in zip(values, values[1:]):
            assert after <= before * 1.0000001

    def test_determinism(self):
        f = product_of_roots([0.3 + 20j, 3 + 22j])
        first = _one_seed(f, 20.0, 0.29 + 20.01j)
        second = _one_seed(f, 20.0, 0.29 + 20.01j)
        assert first.z == second.z
        assert len(first.trace_log) == len(second.trace_log)
        for a, b in zip(first.trace_log, second.trace_log):
            assert a.result.trace.rect == b.result.trace.rect
            assert a.result.char == b.result.char
            assert a.result.z_estimate == b.result.z_estimate

    def test_search_failed_when_nothing_encloses(self):
        record = _one_seed(lambda k: 2.0 + 0j, 2.0, 0.1 + 2j)  # nonvanishing
        assert record.verdict is Verdict.FAILED
        assert record.z == 0.1 + 2j and record.de is None


class TestRunVariants:
    def test_three_separated_roots(self):
        roots = [0.2 + 10j, 0.5 + 14j, -0.3 + 18j]
        f = product_of_roots(roots)
        seeds = [(10.0, 0.21 + 10.02j), (14.0, 0.49 + 13.98j), (18.0, -0.28 + 18.01j)]
        records = run_variants([f] * 3, seeds)
        assert len(records) == 3  # in seed order: record i holds root i
        for record, root in zip(records, roots):
            assert record.verdict is Verdict.VERY_GOOD
            assert abs(record.z - root) < 1e-6
            assert record.variants_visited == (1,)

    def test_empty_seed_list(self):
        assert run_variants([], []) == []

    def test_per_seed_functions(self):
        functions = [product_of_roots([0.1 + 9j]), product_of_roots([0.2 + 11j])]
        seeds = [(9.0, 0.11 + 9.01j), (11.0, 0.19 + 11.01j)]
        records = run_variants(functions, seeds)
        assert abs(records[0].z - (0.1 + 9j)) < 1e-6
        assert abs(records[1].z - (0.2 + 11j)) < 1e-6

    def test_function_count_mismatch(self):
        with pytest.raises(ValueError):
            run_variants([lambda k: k], [(9.0, 9j), (11.0, 11j)])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(5.0, 50.0),  # y
                st.floats(-0.5, 2.0),  # Re of the root
                st.floats(-0.3, 0.3),  # Im of the root minus y
                st.floats(0.01, 0.3),  # |root - za|
                st.floats(0.0, 6.28),  # direction of za from the root
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_seed_order_changes_no_record(self, draws):
        functions, seeds = [], []
        for y, re, dy, dist, angle in draws:
            root = complex(re, y + dy)
            functions.append(product_of_roots([root, root + 4 - 3j]))
            seeds.append((y, root + dist * complex(math.cos(angle), math.sin(angle))))
        forward = run_variants(functions, seeds)
        backward = run_variants(functions[::-1], seeds[::-1])[::-1]
        assert [_bits(r) for r in forward] == [_bits(r) for r in backward]

    def test_exact_repeat_reuses_the_last_result(self, monkeypatch):
        # at a = 2000 the fourth seed recentres on an unmoved estimate at an
        # unchanged size and density; each of those attempts logs the result
        # before it again instead of integrating.  How often this happens
        # follows the rounding of numpy's SIMD loops (5 of 14 attempts on a
        # host with AVX-512), so the counts are checked against each other
        seeds, functions = plan_seeds(RunConfig(a=2000.0))
        seed, f = seeds[3], functions[3]
        assert round(seed.y, 4) == 30.4249
        calls = []
        monkeypatch.setattr(
            qzeta.search, "integrate", lambda *args: calls.append(args) or integrate(*args)
        )
        (record,) = run_variants([f], [(seed.y, seed.za)])
        repeats = 0
        for before, attempt in zip(record.trace_log, record.trace_log[1:]):
            trace = attempt.result.trace
            if (trace.rect, trace.c) != (before.result.trace.rect, before.result.trace.c):
                continue
            repeats += 1
            assert attempt.result is before.result
            # an integration would have given the same result
            fresh = integrate(f, trace.rect, trace.c)
            assert _bits_of(fresh) == _bits_of(attempt.result)
        assert repeats >= 1
        assert len(calls) == len(record.trace_log) - repeats


def _bits(record):
    """Everything a record reports, floats as exact reprs: z, de, vv_final,
    verdict, and each attempt's rectangle, density and angles."""
    attempts = [
        (
            a.variant,
            a.assessment,
            repr(a.result.trace.rect),
            a.result.trace.c,
            [repr(angle) for angle in a.result.trace.angles],
            repr(a.result.trace.closing_angle),
        )
        for a in record.trace_log
    ]
    return (repr(record.z), repr(record.de), repr(record.vv_final), record.verdict, attempts)


def _bits_of(result):
    """What an integration reports, floats as exact reprs."""
    return tuple(map(repr, (result.char, result.fo, result.z_estimate, result.abs_center,
                            result.abs_estimate, result.trace.angles)))


class TestBudget:
    """Variant v gives each of its two densities max(1, c // 2) integrations,
    with c its opening density, so the schedule bounds every zero."""

    @pytest.mark.parametrize("c, budget", [(4, 4 + 6 + 4), (8, 8 + 12 + 9)], ids=["c4", "c8"])
    def test_never_vanishing_target_uses_the_schedule_budget(self, c, budget):
        (record,) = run_variants([lambda k: 2.0 + 0j], [(2.0, 0.1 + 2j)], c=c)
        assert record.verdict is Verdict.FAILED
        assert len(record.trace_log) == budget
        assert record.variants_visited == (1, 2, 3)
        # each variant opens at its density of the schedule
        schedule = escalation_schedule(c)
        for variant, c_open in enumerate(schedule, start=1):
            densities = [a.result.trace.c for a in record.trace_log if a.variant == variant]
            assert densities[0] == c_open
            assert set(densities) == set(schedule[variant - 1 : variant + 1])

    def test_zero_9_at_c8_visits_variant_3(self):
        y9 = classical_zeros(PAPER_Y_MAX)[-1]
        config = RunConfig(y_max=None, y_list=(y9,), c=8)
        (record,) = execute(config).records
        assert record.variants_visited == (1, 2, 3)
        assert record.verdict is Verdict.GOOD_ONLY


class TestFinish:
    """A search takes |f(za)| from the opening integration (its rectangle is
    centred on za), and |f(z)| from the accepted estimate or, when Newton
    moved z, from Newton's last evaluation; after its last integration it
    calls f only through Newton."""

    @staticmethod
    def _searched(monkeypatch, f, y, za):
        calls = []

        def counting(k):
            calls.append(k)
            return f(k)

        def integrate_then_forget(f, rect, c):
            result = integrate(f, rect, c)
            calls.clear()  # keep only the calls after the last integration
            return result

        monkeypatch.setattr(qzeta.search, "integrate", integrate_then_forget)
        record = run_variants([counting], [(y, za)])[0]
        assert record.trace_log[0].result.trace.rect.center == za
        return record, calls

    def test_failed_search_calls_nothing(self, monkeypatch):
        record, calls = self._searched(monkeypatch, lambda k: 2.0 + 0j, 2.0, 0.1 + 2j)
        assert record.verdict is Verdict.FAILED
        assert record.vv_final == 1.0
        assert calls == []

    def test_polished_zero_skips_the_seed(self, monkeypatch):
        f = product_of_roots([0.3 + 20j, 3 + 22j])
        record, calls = self._searched(monkeypatch, f, 20.0, 0.29 + 20.01j)
        assert record.newton_applied
        assert 0.29 + 20.01j not in calls
        assert calls.count(record.z) == 1  # Newton's evaluation is reused
        assert record.vv_final == abs(f(record.z)) / abs(f(0.29 + 20.01j))

    def test_unpolished_zero_reuses_its_value(self, monkeypatch):
        f = product_of_roots([0.3 + 20j, 3 + 22j])
        monkeypatch.setattr(qzeta.search, "NEWTON_MAX_ITERS", 0)  # no step: rejected
        record, calls = self._searched(monkeypatch, f, 20.0, 0.29 + 20.01j)
        assert record.verdict is Verdict.VERY_GOOD
        assert not record.newton_applied
        # Newton opens on the concluding integration's value of f at z
        assert calls == []
        assert record.vv_final == abs(f(record.z)) / abs(f(0.29 + 20.01j))

    @staticmethod
    def _counted_run(functions, seeds):
        calls = []

        def counted(f):
            return lambda k: calls.append(k) or f(k)

        return run_variants([counted(f) for f in functions], seeds), len(calls)

    def test_polish_saves_one_call_per_concluded_zero(self, monkeypatch):
        f = product_of_roots([0.3 + 20j, 3 + 22j])
        functions = [f, f, lambda k: k - (0.3 + 20j), lambda k: 2.0 + 0j]
        seeds = [(20.0, 0.29 + 20.01j), (22.0, 2.99 + 22.01j), (20.0, 0.29 + 20.01j),
                 (2.0, 0.1 + 2j)]
        records, calls = self._counted_run(functions, seeds)
        # the polish as it was: open on its own evaluation of f at z
        monkeypatch.setattr(
            qzeta.search, "newton_refine",
            lambda f, z0, f_z0, allowance: newton_refine(f, z0, complex(f(z0)), allowance),
        )
        fresh, fresh_calls = self._counted_run(functions, seeds)
        concluded = sum(r.verdict is Verdict.VERY_GOOD for r in records)
        assert concluded == 3
        assert fresh_calls - calls == concluded
        assert [_bits(r) for r in records] == [_bits(r) for r in fresh]
        assert [r.newton_applied for r in records] == [r.newton_applied for r in fresh]


class TestReportedEstimate:
    """A concluded zero reports its last estimate; any other zero reports
    the accepted estimate with the smallest |f|, with the error of the step
    into it."""

    def test_good_only_zero_reports_its_best_estimate(self):
        # at c=5 zero 9 ends good only, and its last accepted estimate is
        # not its best one
        y9 = classical_zeros(PAPER_Y_MAX)[-1]
        (record,) = execute(RunConfig(y_max=None, y_list=(y9,), c=5)).records
        assert record.verdict is Verdict.GOOD_ONLY
        abs_za = record.trace_log[0].result.abs_center
        accepted = [
            a.result for a in record.trace_log if a.assessment is not Assessment.NOT_GOOD
        ]
        i = min(range(len(accepted)), key=lambda j: accepted[j].abs_estimate)
        assert 0 < i < len(accepted) - 1
        assert record.vv_final == min(r.abs_estimate for r in accepted) / abs_za
        assert record.z == accepted[i].z_estimate
        assert record.de == max(1e-6, 0.1 * abs(record.z - accepted[i - 1].z_estimate))


class TestStoppedSearch:
    """An evaluation fault (a package error or an arithmetic one) raised
    while integrating one seed fails that seed only: its record keeps the
    finished integrations and names the error.  One raised by the polish
    rejects the polish.  Any other error propagates."""

    @staticmethod
    def _failing_after(f, calls_allowed, error=RangeUnsupported("Im k = 9 too high")):
        calls = []

        def g(k):
            if len(calls) >= calls_allowed:
                raise error
            calls.append(k)
            return f(k)

        return g

    def test_error_before_any_integration(self):
        f = self._failing_after(product_of_roots([0.3 + 20j]), 0)
        (record,) = run_variants([f], [(20.0, 0.29 + 20.01j)])
        assert record.verdict is Verdict.FAILED
        assert record.trace_log == []
        assert record.z == 0.29 + 20.01j
        assert record.de is None
        assert record.vv_final == 1.0
        assert record.reason == "RangeUnsupported: Im k = 9 too high"

    def test_finished_integrations_are_kept(self):
        f = product_of_roots([0.3 + 20j, 3 + 22j])
        (full,) = run_variants([f], [(20.0, 0.29 + 20.01j)])
        calls = []
        integrate(lambda k: calls.append(k) or f(k), full.trace_log[0].result.trace.rect,
                  full.trace_log[0].result.trace.c)
        # a package error, then an arithmetic fault, in the second integration
        for error in (RangeUnsupported("Im k = 9 too high"), OverflowError("math range error")):
            stopped = self._failing_after(f, len(calls), error)
            (record,) = run_variants([stopped], [(20.0, 0.29 + 20.01j)])
            assert record.verdict is Verdict.FAILED
            assert record.reason == f"{type(error).__name__}: {error}"
            assert _bits(record)[4] == _bits(full)[4][:1]

    def test_other_seeds_keep_their_records(self):
        f = product_of_roots([0.3 + 20j, 3 + 22j])
        seeds = [(20.0, 0.29 + 20.01j), (22.0, 2.99 + 22.01j)]
        records = run_variants([self._failing_after(f, 0), f], seeds)
        assert [r.verdict for r in records] == [Verdict.FAILED, Verdict.VERY_GOOD]
        assert records[1].reason is None
        assert _bits(records[1]) == _bits(run_variants([f], seeds[1:])[0])

    @pytest.mark.parametrize(
        "faulty,reason",
        [
            # abs() overflows on the boundary
            (lambda k: complex(1.7e308, 1.7e308), "OverflowError: absolute value too large"),
            # divides by zero at the opening centre
            (lambda k: 1 / (k - (0.1 + 2j)), "ZeroDivisionError: complex division by zero"),
        ],
        ids=["overflow", "zero-division"],
    )
    def test_arithmetic_fault_fails_only_its_seed(self, faulty, reason):
        f = product_of_roots([0.3 + 20j])
        seeds = [(2.0, 0.1 + 2j), (20.0, 0.29 + 20.01j)]
        records = run_variants([faulty, f], seeds)
        assert [r.verdict for r in records] == [Verdict.FAILED, Verdict.VERY_GOOD]
        assert records[0].trace_log == []
        assert records[0].reason == reason
        assert records[1].reason is None
        assert _bits(records[1]) == _bits(run_variants([f], seeds[1:])[0])

    def test_programming_errors_still_raise(self):
        f = self._failing_after(product_of_roots([0.3 + 20j]), 5, TypeError())
        with pytest.raises(TypeError):
            run_variants([f], [(20.0, 0.29 + 20.01j)])

    @staticmethod
    def _concluded(monkeypatch):
        """A target whose polish evaluates f, its seed, its record without
        the polish, and the calls its search makes up to the conclusion."""
        root = 0.31 + 20.002j
        f = lambda k: (k - root) * (1 + (k - root) / 5) * (1 + 0.3j)
        seed = (20.0, 0.29 + 20.01j)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(qzeta.search, "NEWTON_MAX_ITERS", 0)  # the polish calls nothing
            (unpolished,) = run_variants([lambda k: calls.append(k) or f(k)], [seed])
        assert run_variants([f], [seed])[0].newton_applied
        return f, seed, unpolished, len(calls)

    def test_programming_error_in_the_polish_raises(self, monkeypatch):
        f, seed, _, searched = self._concluded(monkeypatch)
        with pytest.raises(TypeError):
            run_variants([self._failing_after(f, searched, TypeError())], [seed])

    def test_arithmetic_fault_in_the_polish_rejects_it(self, monkeypatch):
        f, seed, unpolished, searched = self._concluded(monkeypatch)
        error = ZeroDivisionError("complex division by zero")
        (record,) = run_variants([self._failing_after(f, searched, error)], [seed])
        assert record.verdict is Verdict.VERY_GOOD
        assert not record.newton_applied
        assert record.reason is None
        assert record.z == record.trace_log[-1].result.z_estimate
        assert _bits(record) == _bits(unpolished)

    def test_search_without_error_has_no_reason(self):
        (record,) = run_variants([lambda k: 2.0 + 0j], [(2.0, 0.1 + 2j)])
        assert record.verdict is Verdict.FAILED
        assert record.reason is None


class TestEscalationSchedule:
    def test_validation(self):
        assert escalation_schedule(3) == (3, 5, 7)
        assert escalation_schedule(4) == (4, 6, 9)
        for c in (2, 0, -4):
            with pytest.raises(ValueError, match="3 or more"):
                escalation_schedule(c)
        with pytest.raises(ValueError, match="3 or more"):
            RunConfig(c=2)
        with pytest.raises(ValueError, match="3 or more"):
            run_variants([lambda k: k], [(9.0, 9j)], c=2)
        # at most 64 + 96 + 72 integrations per zero
        assert escalation_schedule(64) == (64, 96, 144)
        for c in (65, 10**6):
            with pytest.raises(ValueError, match="at most 64"):
                escalation_schedule(c)
        with pytest.raises(ValueError, match="at most 64"):
            RunConfig(c=65)
        # a density that is not an int fails at construction, not in the search
        for c in (4.5, 4.0, math.nan):
            with pytest.raises(ValueError, match=r"c must be an int .*, got"):
                escalation_schedule(c)
            with pytest.raises(ValueError, match="c must be an int"):
                RunConfig(y_max=15.0, c=c)


# The workloads of the gate audit: the reference run and the CLI's --a 2000
# and --a 3000 runs.
AUDIT_RUNS = {
    "paper9": RunConfig(),
    "--a 2000": RunConfig(a=2000.0),
    "--a 3000": RunConfig(a=3000.0),
    "--a 750 --d 1": RunConfig(a=750.0, d=1.0),
}


def _audit_records(run):
    """(z, verdict, integration count, Newton accepted) per zero of one audit
    workload."""
    return [
        (r.z, r.verdict, len(r.trace_log), r.newton_applied)
        for r in execute(AUDIT_RUNS[run]).records
    ]


# each workload's records with every gate as it stands
_audit_baseline = functools.lru_cache(maxsize=None)(_audit_records)


class TestGateAudit:
    """Each gate of ``assess`` decides at least one record of a named
    workload: disabled, it moves that workload's records.  A record moves
    when its z, verdict, integration count or Newton acceptance does.  The
    named workloads move at numpy's baseline SIMD loops too, where the
    counts differ in places (``_CONFIRM_FRACTION`` moves 2 paper9 records
    on an AVX-512 host and 3 at the baseline)."""

    # gate: (its disabled value, the workloads whose records it moves, those
    # of them where a verdict moves)
    DISABLED = {
        # the opening-ratio rule: one paper9 record, one --a 2000 verdict
        "SEED_VV_LIMIT": (math.inf, ["paper9", "--a 2000"], ["--a 2000"]),
        # the confirm-location waiver: two paper9 records, one a verdict
        "_CONFIRM_FRACTION": (-1.0, ["paper9"], ["paper9"]),
        # the good gap-metric ceiling and the residual-ratio ceiling
        "FO_GOOD_MAX": (math.inf, ["--a 3000"], []),
        "VV_MAX": (math.inf, ["--a 3000"], []),
        # the error-estimate ceiling: zero 6 of --a 750 --d 1 ends good only
        # after 14 integrations, very good after 4 without it
        "DE_ADMISSIBLE": (math.inf, ["--a 750 --d 1"], ["--a 750 --d 1"]),
    }

    @pytest.mark.parametrize("gate", DISABLED)
    def test_disabled_gate_moves_records(self, monkeypatch, gate):
        value, runs, verdict_runs = self.DISABLED[gate]
        before = {run: _audit_baseline(run) for run in runs}
        monkeypatch.setattr(qzeta.search, gate, value)
        for run in runs:
            after = _audit_records(run)
            assert len(after) == len(before[run])
            assert after != before[run], run
            if run in verdict_runs:
                assert [r[1] for r in after] != [r[1] for r in before[run]], run
