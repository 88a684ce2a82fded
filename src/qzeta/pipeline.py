"""End-to-end run orchestration: seeds, truncations, searches, packaging.

The default configuration reproduces the reference nine-zero run at a=750,
d=2: classical critical-line ordinates up to 48.5406 are found, each is
mapped to its first-order deformed-zero prediction, the series truncation is
chosen automatically per zero, and one search per zero drives it to a
verdict.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record, Value
from .errors import QZetaError, RangeUnsupported
from .search import Verdict, ZeroRecord, escalation_schedule, initial_rectangle, run_variants
from .series import SharpParams, linear_approximation, select_truncation
from .special import CLASSICAL_Y_MAX, classical_zeros

__all__ = ["RunConfig", "Seed", "RunResult", "plan_seeds", "execute"]

PAPER_Y_MAX = 48.5406


class RunConfig(Value):
    """One run: target function family, seeds, and opening density c (the
    variants run at ``escalation_schedule(c)``).  A run with polynomial
    coefficients searches that polynomial; without, the deformed series."""

    __slots__ = __match_args__ = ("a", "d", "y_max", "y_list", "poly_coefficients", "c")

    def __init__(self, a: float = 750.0, d: float = 2.0, y_max: float | None = PAPER_Y_MAX,
                 y_list: tuple[float, ...] | None = None,
                 poly_coefficients: tuple[complex, ...] = (), c: int = 4):
        if (y_max is None) == (y_list is None):
            raise ValueError("exactly one of y_max / y_list must be set")
        if len(poly_coefficients) == 1:
            raise ValueError("polynomial target needs at least two coefficients")
        if not all(map(cmath.isfinite, poly_coefficients)):
            raise ValueError("polynomial coefficients must be finite")
        if not (0 < a < math.inf and 0 < d < math.inf):
            raise ValueError("a and d must be positive and finite")
        if y_max is not None and not 0 < y_max <= CLASSICAL_Y_MAX:
            raise ValueError(f"y_max must be in (0, {CLASSICAL_Y_MAX:g}]")
        if y_list is not None and not all(0 < y < math.inf for y in y_list):
            raise ValueError("every seed ordinate y must be positive and finite")
        escalation_schedule(c)  # checks the density
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "y_max", y_max)
        object.__setattr__(self, "y_list", y_list)
        object.__setattr__(self, "poly_coefficients", poly_coefficients)
        object.__setattr__(self, "c", c)

    @property
    def target(self) -> str:
        """The target family: "poly" for a polynomial run, else "sharp"."""
        return "poly" if self.poly_coefficients else "sharp"


class Seed(Value):
    """One search seed: classical ordinate, predicted location, truncation,
    and the reason it is not searched, if there is one."""

    __slots__ = __match_args__ = ("index", "y", "za", "b", "reason")

    def __init__(self, index: int, y: float, za: complex, b: int | None,
                 reason: str | None = None):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "za", za)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "reason", reason)


class RunResult(Record):
    __slots__ = __match_args__ = ("config", "seeds", "records")

    def __init__(self, config: RunConfig, seeds: list[Seed], records: list[ZeroRecord]):
        self.config = config
        self.seeds = seeds
        self.records = records


class _Polynomial:
    """Evaluator for sum(coefficients[i] * k^(n-i)); leading term first."""

    def __init__(self, coefficients):
        self.coefficients = tuple(complex(c) for c in coefficients)

    def __call__(self, k: complex) -> complex:
        value = 0j
        for c in self.coefficients:
            value = value * k + c
        return value


def plan_seeds(config: RunConfig) -> tuple[list[Seed], list]:
    """Resolve the seed list and one evaluator per seed.  A series seed is
    not searched, and has a ``reason`` and no evaluator, when its
    prediction, its search region's top or its truncation raised a package
    error (the first of these; an unknown prediction reads nan and ``b`` is
    unset) or when its prediction lies on or above the pole line.  All
    seeds are predicted in one ``linear_approximation`` call and truncated
    in one ``select_truncation`` call."""
    if config.y_list is not None:
        ys = list(config.y_list)
    else:
        ys = classical_zeros(config.y_max)
    seeds: list[Seed] = []
    functions = []
    if config.poly_coefficients:
        f = _Polynomial(config.poly_coefficients)
        for i, y in enumerate(ys, start=1):
            seeds.append(Seed(index=i, y=y, za=complex(0.0, y), b=None))
            functions.append(f)
        return seeds, functions
    a, d = config.a, config.d
    zas = linear_approximation(ys, a, d)  # a prediction or an error per seed
    tops = []  # the top of each seed's search region, or its planning error
    for y, za in zip(ys, zas):
        top = za
        if not isinstance(za, Exception):
            rect = initial_rectangle(za, y)
            top = rect.center.imag + rect.rd
            if not top > 0:
                top = RangeUnsupported(
                    f"the prediction {za:.6g} puts the top of its search "
                    f"region at Im k = {top:g}, not above the real axis"
                )
        tops.append(top)
    # a seed that already failed passes nan; its first failure outranks
    # the error that nan gets
    bs = select_truncation(a, d, [math.nan if isinstance(t, Exception) else t for t in tops])
    for i, (y, za, top, b) in enumerate(zip(ys, zas, tops, bs), start=1):
        error = top if isinstance(top, Exception) else b  # the seed's first failure
        f, reason = None, None
        if isinstance(error, QZetaError):
            b, reason = None, f"{type(error).__name__}: {error}"
        elif isinstance(error, Exception):
            raise error
        else:
            params = SharpParams(a, d, b)
            if za.imag < params.pole_line:
                f = params
            else:
                reason = (f"prediction {za!r} lies on or above the pole line "
                          f"Im k = 2*eps = {params.pole_line:g}")
        if isinstance(za, Exception):
            za = complex(math.nan, math.nan)
        seeds.append(Seed(index=i, y=y, za=za, b=b, reason=reason))
        functions.append(f)
    return seeds, functions


def execute(config: RunConfig) -> RunResult:
    """Search every seed that planning gave no reason to skip, to a
    verdict.  A seed fails, with the reason, and the other seeds keep
    theirs, when planning skipped it (without a search) or when its series
    zero concludes outside the search strip."""
    seeds, functions = plan_seeds(config)
    todo = [i for i, seed in enumerate(seeds) if seed.reason is None]
    searched = iter(run_variants([functions[i] for i in todo],
                                 [(seeds[i].y, seeds[i].za) for i in todo], config.c))
    records = []
    for seed, f in zip(seeds, functions):
        if seed.reason is not None:
            # z is the seed, so |f(z)|/|f(za)| is 1, as for a search that
            # accepted no estimate
            records.append(ZeroRecord(
                z=seed.za, de=None, vv_final=1.0, verdict=Verdict.FAILED,
                newton_applied=False, trace_log=[], reason=seed.reason,
            ))
            continue
        record = next(searched)
        if (not config.poly_coefficients and record.verdict is Verdict.VERY_GOOD
                and not f.in_strip(record.z)):
            record.verdict = Verdict.FAILED
            record.reason = f"accepted zero {record.z!r} escaped the search strip"
        records.append(record)
    return RunResult(config=config, seeds=seeds, records=records)
