"""End-to-end run orchestration: seeds, truncations, searches, packaging.

The default configuration reproduces the reference nine-zero run at a=750,
d=2: classical critical-line ordinates up to 48.5406 are found, each is
mapped to its first-order deformed-zero prediction, the series truncation is
chosen automatically per zero, and the variant scheduler drives every zero
to a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import QZetaError, RangeUnsupported
from .search import SearchConfig, Verdict, ZeroRecord, run_variants
from .series import (
    SharpFunction,
    SharpParams,
    linear_approximation,
    select_truncation,
)
from .special import CLASSICAL_Y_MAX, classical_zeros

__all__ = ["RunConfig", "Seed", "RunResult", "plan_seeds", "execute"]

PAPER_Y_MAX = 48.5406


@dataclass(frozen=True)
class RunConfig:
    """One run: target function family, seeds, and search knobs."""

    a: float = 750.0
    d: float = 2.0
    y_max: float | None = PAPER_Y_MAX
    y_list: tuple[float, ...] | None = None
    b_override: int | None = None
    target: str = "sharp"  # "sharp" or "poly"
    poly_coefficients: tuple[complex, ...] = ()
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        if (self.y_max is None) == (self.y_list is None):
            raise ValueError("exactly one of y_max / y_list must be set")
        if self.target not in ("sharp", "poly"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.target == "poly" and len(self.poly_coefficients) < 2:
            raise ValueError("polynomial target needs at least two coefficients")
        if not (0 < self.a < math.inf and 0 < self.d < math.inf):
            raise ValueError("a and d must be positive and finite")
        if self.y_max is not None and not 0 < self.y_max <= CLASSICAL_Y_MAX:
            raise ValueError(f"y_max must be in (0, {CLASSICAL_Y_MAX:g}]")
        if self.y_list is not None and not all(0 < y < math.inf for y in self.y_list):
            raise ValueError("every seed ordinate y must be positive and finite")
        if self.b_override is not None and self.b_override < 1:
            raise ValueError("b must be a positive integer")
        if self.b_override is not None and self.target == "sharp":
            SharpParams(self.a, self.d, self.b_override)  # checks the term count


@dataclass(frozen=True)
class Seed:
    """One search seed: classical ordinate, predicted location, truncation."""

    index: int
    y: float
    za: complex
    b: int | None


@dataclass
class RunResult:
    config: RunConfig
    seeds: list[Seed]
    records: list[ZeroRecord]


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
    """Resolve the seed list and one evaluator per seed."""
    if config.y_list is not None:
        ys = list(config.y_list)
    else:
        ys = classical_zeros(config.y_max)
    seeds: list[Seed] = []
    functions = []
    if config.target == "poly":
        f = _Polynomial(config.poly_coefficients)
        for i, y in enumerate(ys, start=1):
            seeds.append(Seed(index=i, y=y, za=complex(0.0, y), b=None))
            functions.append(f)
        return seeds, functions
    for i, y in enumerate(ys, start=1):
        za = linear_approximation(y, config.a, config.d)
        if config.b_override is not None:
            b = config.b_override
        else:
            rd = min(0.5, config.search.kappa * abs(za - 1j * y))
            region_top = za.imag + rd
            if not region_top > 0:
                raise RangeUnsupported(
                    f"seed {i} (y={y:g}): the prediction {za:.6g} puts the "
                    f"top of its search region at Im k = {region_top:g}, "
                    f"not above the real axis"
                )
            b = select_truncation(config.a, config.d, region_top)
        seeds.append(Seed(index=i, y=y, za=za, b=b))
        functions.append(SharpFunction(SharpParams(config.a, config.d, b)))
    return seeds, functions


def execute(config: RunConfig) -> RunResult:
    """Run every seed through the variant scheduler."""
    seeds, functions = plan_seeds(config)
    if not seeds:
        return RunResult(config=config, seeds=[], records=[])
    records = run_variants(functions, [(s.y, s.za) for s in seeds], config.search)
    if config.target == "sharp":
        half_band = 2.0 * functions[0].params.epsilon
        for record in records:
            if record.verdict is Verdict.VERY_GOOD and not (
                0.0 < record.z.imag and abs(record.z.real) < half_band
            ):
                raise QZetaError(
                    f"accepted zero {record.z!r} escaped the search strip"
                )
    return RunResult(config=config, seeds=seeds, records=records)
