"""Automated per-zero search: shrinking-rectangle contour integrations with
good/very-good verdicts, escalating sampling densities, error estimation,
and a Newton polish.

One search takes one zero from its seed to its record.  It drives
``integrate`` over a sequence of rectangles.  A good integration (winding
says exactly one zero, small gap metric, residual ratio under control,
estimate inside and not worse than the best so far) halves the rectangle and
recenters it between the old center and the new estimate, weighting by the
residual ratio.  The second consecutive good integration may conclude the
zero ("very good") when the gap metric, the error estimate, and the residual
are all admissible.  A variant gives the zero two sampling densities and a
budget of ``max(1, c // 2)`` integrations per density, with c the variant's
opening density; a zero that does not conclude enters the next variant at
the following density, restarting from its last good estimate.  The variants
run in turn until one concludes or the schedule is spent, so the density
schedule alone bounds the integrations of each zero; a concluded zero is
then polished by Newton.  ``run_variants`` is the one entry point, for one
seed or many.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import Record
from .errors import EVALUATION_FAULTS
from .winding import AnalyticFunction, IntegrationResult, Rectangle, integrate

__all__ = [
    "Assessment",
    "Verdict",
    "escalation_schedule",
    "IntegrationAttempt",
    "ZeroRecord",
    "run_variants",
]


class Assessment(Enum):
    NOT_GOOD = "not_good"
    GOOD = "good"
    VERY_GOOD = "very_good"


class Verdict(Enum):
    VERY_GOOD = "very_good"
    GOOD_ONLY = "good_only"
    FAILED = "failed"


# Most opening points per side: a zero then runs at most 64 + 96 + 72 = 232
# integrations, where c = 10**6 would allow 3.6 million.
C_MAX = 64


def escalation_schedule(c: int) -> tuple[int, ...]:
    """Sampling densities of three variants opened at c points per side: c,
    then 1.5 and 2.25 times it, rounded up."""
    # a float c would fail inside the search, a numpy integer in the JSON report
    if not isinstance(c, int):
        raise ValueError(f"c must be an int number of points per side, got {c!r}")
    if c < 3:
        raise ValueError("c must be 3 or more points per side")
    if c > C_MAX:
        raise ValueError(f"c must be at most {C_MAX} points per side")
    return (c, math.ceil(c * 1.5), math.ceil(c * 2.25))


# The search protocol's thresholds, as the reference program fixes them.
KAPPA = 0.365  # opening half-width per unit of seed displacement
VV_MAX = 0.8  # residual-ratio ceiling for a good integration
FO_GOOD_MAX = 2  # gap-metric ceiling for a good integration
FO_VERYGOOD_MAX = 1  # gap-metric ceiling for concluding
CHAR_TOL = 0.05  # winding-defect tolerance
DE_ADMISSIBLE = 2.5e-4  # error-estimate ceiling for concluding
# Guards against over-trusting a sloppy seed: when the opening integration's
# residual ratio is at or above this, the zero cannot conclude within
# variant 1 and is re-confirmed at the next sampling density.
SEED_VV_LIMIT = 0.45
NEWTON_MAX_ITERS = 5  # Newton steps in the polish of a concluded zero


# |f(z)| may jitter at the evaluation noise floor once the search has nearly
# converged; the monotone-residual gate tolerates this much upward wiggle.
_RESIDUAL_SLACK = 1.25

_MIN_RD = 1e-3  # degenerate-seed floor and variant-restart floor

_DE_FLOOR = 1e-6  # error estimates never report below this

# Newton steps must shrink at least this fast, or the iteration is judged to
# be walking the evaluation noise floor rather than converging.
_NEWTON_CONTRACTION = 0.25

# Variant restart half-width per unit of estimated error.  Successive
# estimates share most of their quadrature bias, so the inter-step movement
# (10*de) understates the true error; restarting that tight can sink the
# rectangle below the evaluation noise floor.
_RESTART_DE_FACTOR = 200.0

# An estimate this close to the incumbent (relative to the rectangle size)
# confirms the location: residual-ratio checks are then uninformative, since
# near the evaluation noise floor neither value can beat the other.
_CONFIRM_FRACTION = 0.05


def _error_scale(z_new: complex, z_old: complex) -> float:
    """A tenth of the step from z_old to z_new, floored at _DE_FLOOR."""
    return max(_DE_FLOOR, 0.1 * abs(z_new - z_old))


class SearchState(Record):
    """Mutable per-zero search state, persisted across variants.  The
    rectangle is always twice as wide as tall."""

    __slots__ = __match_args__ = (
        "zna", "zn", "rd", "variant", "phase", "consecutive_good", "accepted", "opening_vv",
    )

    def __init__(self, zna: complex, zn: complex, rd: float, variant: int = 0, phase: int = 0,
                 consecutive_good: int = 0,
                 accepted: list[tuple[complex, float]] | None = None,
                 opening_vv: float | None = None):
        self.zna = zna  # seed or the estimate after the last good integration
        self.zn = zn  # current rectangle center
        self.rd = rd  # current rectangle half-width
        self.variant = variant  # 0-based variant index
        self.phase = phase  # 0 = a variant's opening density, 1 = its "second try"
        self.consecutive_good = consecutive_good
        # (estimate, |f| there) of each good integration; a new list if None
        self.accepted = [] if accepted is None else accepted
        self.opening_vv = opening_vv  # residual ratio of the search's first integration

    @property
    def rect(self) -> Rectangle:
        return Rectangle(self.zn, self.rd, self.rd / 2.0)

    @property
    def de(self) -> float | None:
        """Error scale from the last two accepted estimates: a tenth of the
        inter-step movement, floored at 1e-6 (ten times this bounds the
        observed movement); None before the second accepted estimate."""
        if len(self.accepted) < 2:
            return None
        return _error_scale(self.accepted[-1][0], self.accepted[-2][0])

    @property
    def best_abs_value(self) -> float:
        """Smallest |f| among the accepted estimates; inf before the first."""
        return min([math.inf, *(abs_value for _, abs_value in self.accepted)])


class IntegrationAttempt(Record):
    """One integration in a zero's trace log; its rectangle and density are
    ``result.trace.rect`` and ``result.trace.c``."""

    __slots__ = __match_args__ = ("variant", "zna", "result", "assessment")

    def __init__(self, variant: int, zna: complex, result: IntegrationResult,
                 assessment: Assessment):
        self.variant = variant  # 1-based
        self.zna = zna
        self.result = result
        self.assessment = assessment


class ZeroRecord(Record):
    """What one search found: final estimate, error bound, residual,
    verdict.  ``reason`` names the error that ended a failed search, if one
    did.  The seed's index, ordinate and prediction stay with the caller."""

    __slots__ = __match_args__ = (
        "z", "de", "vv_final", "verdict", "newton_applied", "trace_log", "reason",
    )

    def __init__(self, z: complex, de: float | None, vv_final: float, verdict: Verdict,
                 newton_applied: bool, trace_log: list[IntegrationAttempt],
                 reason: str | None = None):
        self.z = z
        self.de = de
        self.vv_final = vv_final
        self.verdict = verdict
        self.newton_applied = newton_applied
        self.trace_log = trace_log
        self.reason = reason

    @property
    def variants_visited(self) -> tuple[int, ...]:
        return tuple(sorted({a.variant for a in self.trace_log}))


def initial_rectangle(za: complex, y: float) -> Rectangle:
    """First search rectangle: centered on the seed, sized by the seed's
    displacement from the classical zero, capped at 0.5 and floored against
    degenerate seeds; always twice as wide as tall."""
    if not y > 0:
        raise ValueError("y must be positive")
    rd = min(0.5, KAPPA * abs(za - 1j * y))
    rd = max(rd, _MIN_RD)
    return Rectangle(za, rd, rd / 2.0)


def assess(result: IntegrationResult, state: SearchState) -> Assessment:
    """Classify one integration against the current search state.

    Good: winding defect within tolerance, gap metric small, residual ratio
    below VV_MAX, estimate strictly inside the rectangle, and |f| at the
    estimate not above the best accepted value (with noise slack).  The two
    residual gates are waived when the estimate lands on the incumbent
    location: once the search rides the evaluation noise floor, residual
    ratios carry no information, while an integration that reproduces the
    known location still confirms it.  Very good: the second consecutive
    good whose gap metric and error estimate stay admissible; variant 1
    additionally requires a trustworthy opening integration (a sloppy seed
    forces re-confirmation in the next variant).
    """
    rect = result.trace.rect
    confirms_location = (
        abs(result.z_estimate - state.zna)
        <= _CONFIRM_FRACTION * (rect.rd + rect.rad)
    )
    good = (
        abs(result.char) <= CHAR_TOL
        and result.fo <= FO_GOOD_MAX
        and result.inside
        and (
            confirms_location
            or (
                result.vv < VV_MAX
                and result.abs_estimate <= state.best_abs_value * _RESIDUAL_SLACK
            )
        )
    )
    if not good:
        return Assessment.NOT_GOOD
    if state.consecutive_good < 1:
        return Assessment.GOOD
    de_now = _error_scale(result.z_estimate, state.accepted[-1][0])
    opening_ok = state.variant > 0 or (
        state.opening_vv is not None and state.opening_vv < SEED_VV_LIMIT
    )
    # a variant's opening density may conclude only when the estimate has
    # stopped moving at the reporting floor; anything else needs the
    # confirmation pass at the escalated density
    confirmed = state.phase > 0 or de_now <= _DE_FLOOR
    if (
        result.fo <= FO_VERYGOOD_MAX
        and de_now <= DE_ADMISSIBLE
        and opening_ok
        and confirmed
    ):
        return Assessment.VERY_GOOD
    return Assessment.GOOD


def step_policy(
    state: SearchState, assessment: Assessment, result: IntegrationResult
) -> None:
    """Advance the state after one integration.

    Good: accept the estimate (damped toward the old seed when the gap
    metric flagged the trace), recenter at the residual-weighted average of
    the old center and the estimate, halve the rectangle.  Missed zero
    (winding defect near 1): double the rectangle and recenter a quarter of
    the way toward the moment estimate.  Other failures: recenter at the
    best available estimate, same size.
    """
    z = result.z_estimate
    if assessment in (Assessment.GOOD, Assessment.VERY_GOOD):
        state.zna = z if result.fo == 0 else (state.zna + 2.0 * z) / 3.0
        weight = result.vv if math.isfinite(result.vv) else 1.0
        state.zn = (z + weight * state.zn) / (1.0 + weight)
        state.rd /= 2.0
        state.consecutive_good += 1
        state.accepted.append((z, result.abs_estimate))
        return
    state.consecutive_good = 0
    if abs(result.char - 1.0) <= CHAR_TOL:
        # no zero enclosed: grow and drift toward the (weak) moment estimate
        state.rd *= 2.0
        state.zn = state.zn + (z - state.zn) / 4.0
    else:
        state.zn = state.zna


def newton_refine(
    f: AnalyticFunction, z0: complex, f_z0: complex | None, allowance: float
) -> tuple[complex, bool, complex | None]:
    """Polish a concluded estimate with Newton steps (central-difference
    derivative); returns the point, whether the polish was accepted, and f
    at the polished point (None when rejected).  ``f_z0`` is f at z0 as the
    search evaluated it, None when that evaluation failed; the polish is
    then rejected, as it is when f raises one of ``EVALUATION_FAULTS``.

    Accepted only if |f| decreased at every step, the step sizes contracted
    like a genuinely converging Newton iteration, and the total movement
    stayed within ``allowance``.  Rejection is a normal outcome near the
    evaluation noise floor, where the steps stall and |f| stops improving.
    """
    if f_z0 is None:
        return z0, False, None
    z = complex(z0)
    steps_taken = 0
    try:
        f_here = complex(f_z0)
        f_abs = abs(f_here)
        if f_abs == 0.0:
            return z, True, f_here
        last_step: float | None = None
        for _ in range(NEWTON_MAX_ITERS):
            h = 1e-6 * (1.0 + abs(z))
            derivative = (complex(f(z + h)) - complex(f(z - h))) / (2.0 * h)
            if derivative == 0:
                break
            step = f_here / derivative
            if abs(step) <= 1e-9 * (1.0 + abs(z)):
                break  # below any reported resolution: converged
            if last_step is not None and abs(step) > _NEWTON_CONTRACTION * last_step:
                break  # stalled at the noise floor; keep the progress so far
            z_next = z - step
            f_next = complex(f(z_next))
            if not abs(f_next) < f_abs:
                break  # the step no longer improves |f|; discard it
            z, f_here, f_abs = z_next, f_next, abs(f_next)
            last_step = abs(step)
            steps_taken += 1
    except EVALUATION_FAULTS:
        return z0, False, None
    if steps_taken == 0 or abs(z - z0) > allowance:
        return z0, False, None
    return z, True, f_here


def _integrate_variants(
    f: AnalyticFunction,
    state: SearchState,
    schedule: tuple[int, ...],
    trace_log: list[IntegrationAttempt],
) -> bool:
    """Run the variants in turn, logging each integration, until one
    concludes (returns True) or the schedule is spent.

    Variant v opens at density schedule[v] and retries at the next one,
    with schedule[v] // 2 integrations (at least one) per density.  Each
    density restarts from the last good estimate; a later variant also
    resizes the rectangle from the error estimate, never past the opening
    rectangle.  An integration whose rectangle and density equal the last
    one's would return the same result, so that result is logged again.
    """
    opening_rd = state.rd
    for variant, c_open in enumerate(schedule):
        state.variant = variant
        if variant > 0 and state.de is not None:
            restart = max(_RESTART_DE_FACTOR * state.de, _MIN_RD)
            state.rd = min(restart, opening_rd)
        for phase, c in enumerate(schedule[variant : variant + 2]):
            state.phase = phase
            state.zn = state.zna
            state.consecutive_good = 0
            for _ in range(max(1, c_open // 2)):
                rect = state.rect
                result = trace_log[-1].result if trace_log else None
                if result is None or (result.trace.rect, result.trace.c) != (rect, c):
                    result = integrate(f, rect, c)
                if state.opening_vv is None:
                    state.opening_vv = result.vv
                verdict = assess(result, state)
                trace_log.append(IntegrationAttempt(variant + 1, state.zna, result, verdict))
                step_policy(state, verdict, result)
                if verdict is Assessment.VERY_GOOD:
                    return True
    return False


def _search_zero(
    f: AnalyticFunction, y: float, za: complex, schedule: tuple[int, ...]
) -> ZeroRecord:
    """One zero from its seed to its record: the variants, then the Newton
    polish of a concluded zero.  |f(za)| comes from the opening integration,
    whose rectangle is centred on za.  One of ``EVALUATION_FAULTS`` raised
    by an integration fails this zero only; its record keeps the
    integrations done so far and the error as ``reason``.  Any other
    exception propagates."""
    opening = initial_rectangle(za, y)
    state = SearchState(zna=za, zn=opening.center, rd=opening.rd)
    trace_log: list[IntegrationAttempt] = []
    reason = None
    try:
        concluded = _integrate_variants(f, state, schedule, trace_log)
    except EVALUATION_FAULTS as exc:
        concluded, reason = False, f"{type(exc).__name__}: {exc}"
    # unknown when no integration finished: nan, whose seed ratio below is 1
    abs_za = trace_log[0].result.abs_center if trace_log else math.nan
    # a concluded zero reports its last estimate, any other the accepted one
    # with the smallest |f|; de is the error of the step into it
    z, abs_z, de = za, abs_za, None
    estimates = state.accepted
    if estimates:
        i = len(estimates) - 1
        if not concluded:
            i = min(range(len(estimates)), key=lambda j: estimates[j][1])
        z, abs_z = estimates[i]
        if i > 0:
            de = _error_scale(z, estimates[i - 1][0])
    newton_applied = False
    if concluded:  # at least two accepted estimates, so de is set
        # allow movement up to the concluding rectangle's quadrature
        # resolution (~2% of its half-width; state.rd was already halved)
        allowance = max(10.0 * de, 0.04 * state.rd)
        # z is the concluding integration's estimate, where it evaluated f
        f_z = trace_log[-1].result.value_estimate
        z_new, accepted, f_new = newton_refine(f, z, f_z, allowance)
        if accepted:
            de = _error_scale(z_new, z)
            z = z_new
            abs_z = abs(f_new)
            newton_applied = True
    if state.accepted:
        vv_final = abs_z / abs_za if abs_za > 0 else math.inf
    else:  # z is the seed: ratio 1, even where |f(za)| is not finite
        vv_final = 1.0 if abs_za else math.inf
    if concluded:
        verdict = Verdict.VERY_GOOD
    elif state.accepted and reason is None:
        verdict = Verdict.GOOD_ONLY
    else:
        verdict = Verdict.FAILED
    return ZeroRecord(
        z=z,
        de=de,
        vv_final=vv_final,
        verdict=verdict,
        newton_applied=newton_applied,
        trace_log=trace_log,
        reason=reason,
    )


def run_variants(
    functions, seeds: list[tuple[float, complex]], c: int = 4
) -> list[ZeroRecord]:
    """Search every seed with its own evaluator, one zero after another.

    ``functions`` holds one evaluator per seed, and the variants run at the
    densities ``escalation_schedule(c)`` (c = 4 in the reference run).  Each
    zero runs its variants to completion before the next seed starts; the
    seeds share no state, so the order changes no record.  Records come
    back in seed order.  A search that fails is a record with verdict
    FAILED, not an exception, so one seed is searched as
    ``run_variants([f], [(y, za)])``.
    """
    functions = list(functions)
    if len(functions) != len(seeds):
        raise ValueError("need one evaluator per seed")
    schedule = escalation_schedule(c)
    return [_search_zero(f, y, za, schedule) for f, (y, za) in zip(functions, seeds)]
