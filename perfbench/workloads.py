"""Workload inputs.

Inputs come only from the benchmark seed (``paper9``'s are fixed by the
paper), so one seed always gives the same inputs.  The module does not
import ``qzeta``, so ``run.py`` can rebuild the inputs to check results.
"""

from __future__ import annotations

import cmath
import random

GENERIC_ZEROS = 300
# Share of generic zeros placed just outside the opening rectangle, as zero
# 9 of the reference run is.  Zeros within ~0.06*rd of the opening contour
# are not generated: the winding count is ill-conditioned there and the
# search fails them, which is a robustness question, not a speed one.
GENERIC_MISSED_FRACTION = 0.12
SWEEP_PAIRS = 6
SWEEP_Y_MAX = 100.0
PAPER9_ARGS = ["--format", "json", "--out"]  # followed by the output path
PAPER9_ZEROS = 9


class GenericTarget:
    """(k - r) * (1 + (k - r)/s) * exp(i*w*(k - r)): one simple zero at r,
    a second root at r - s far outside every search rectangle, and a phase
    drift w that the contour sampling has to resolve."""

    __slots__ = ("r", "s", "w")

    def __init__(self, r: complex, s: complex, w: float):
        self.r, self.s, self.w = r, s, w

    def __call__(self, k: complex) -> complex:
        u = k - self.r
        return u * (1.0 + u / self.s) * cmath.exp(1j * self.w * u)


def generic_inputs(seed: int):
    """GENERIC_ZEROS (target, y, za) triples.

    Each seed mimics the sharp case: an ordinate y, a prediction za displaced
    from iy, and the true zero r displaced from za by a fraction of the
    opening rectangle, so that some zeros are missed by the first rectangle
    and re-scheduled, as zero 9 of the reference run is.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(GENERIC_ZEROS):
        y = rng.uniform(10.0, 60.0)
        shift = complex(rng.uniform(0.1, 3.0), rng.uniform(-0.5, 0.2))
        za = complex(0.0, y) + shift
        rd = min(0.5, 0.365 * abs(shift))  # the opening half-width
        # the opening rectangle is rd wide and rd/2 tall on each side of za
        if rng.random() < GENERIC_MISSED_FRACTION:
            height = rng.choice((-1.0, 1.0)) * rng.uniform(0.56, 0.7)
        else:
            height = rng.uniform(-0.42, 0.42)
        r = za + complex(rng.uniform(-0.5, 0.5) * rd, height * rd)
        s = cmath.rect(rng.uniform(6.0, 10.0), rng.uniform(0.0, 2.0 * cmath.pi))
        out.append((GenericTarget(r, s, rng.uniform(0.5, 3.0)), y, za))
    return out


def sweep_inputs(seed: int) -> list[tuple[float, float]]:
    """SWEEP_PAIRS (a, d) pairs, a in [500, 3000], d in [1, 4]."""
    rng = random.Random(seed)
    return [(rng.uniform(500.0, 3000.0), rng.uniform(1.0, 4.0)) for _ in range(SWEEP_PAIRS)]
