"""Zeta and eta evaluation, plus critical-line zero seeds.

Everything here is double precision.  The Riemann zeta is summed by
Euler-Maclaurin: N direct terms, the trapezoidal edge term, the isolated pole
term N^(1-s)/(s-1), and Bernoulli corrections.  N is grown until a rigorous
first-omitted-term bound meets a fixed absolute error of 1e-12 (1e-13 for
eta').  The direct terms n^(-s) read ln n from tables built once per process
(float64 and long double, grown by doubling), and their phases |Im s| ln n
are reduced mod 2 pi in long double.  Points evaluated together share that
work: Hardy Z shares one magnitude row n^(-1/2) across its block, and eta
and eta' come from a grid of ordinates y by lines (sigma, derivative flag):
one long-double pass over one phase row per y and one magnitude row
n^(-sigma) per line, so ``zeta_plus_triple`` over a whole run's ordinates
gives every first-order prediction's three eta values from one pass.

Eta is only evaluated on Re s = -1/2, 1/2 and 3/2, at least 1/2 from the
zeta pole at s = 1, as the plain product eta(s) = (1 - 2^(1-s)) zeta(s).

The zero seeds (``classical_zeros``) are sign changes of Hardy Z, probed at
the Gram points, with the zero count checked by Gram's law.  Illinois steps
bracket every root to 1e-9 in lockstep, one ``hardy_z`` block per step, and
each seed is the midpoint of its bracket.

Accuracy: the truncation bound is rigorous, but double rounding in the
factors exp(-i Im(s) ln n), roughly |value| * |Im s| * ln(N) * 2^-52, sets
the floor.  Against mpmath on the 29 zero ordinates below 100, every eta and
eta' value is within 6.6e-14 relative; eta(-1/2 + iy), which grows like |y|,
misses by up to 2.6e-12 absolute (6.2e-12 up to y = 200).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .errors import QZetaError, RangeUnsupported

__all__ = [
    "zeta_plus_triple",
    "hardy_z",
    "classical_zeros",
    "CLASSICAL_Y_MAX",
]

_LN2 = math.log(2.0)

_SIGMA_MIN = -2.0
_IMAG_MAX = 200.0

# Truncation target for zeta and eta values (eta' is summed to a 10x tighter
# one), the most direct terms N may grow to, and the order of the highest
# Bernoulli correction (even; the remainder bound reads B_(order+2), the last
# entry of the table below).
_TARGET_ABS_ERROR = 1e-12
_MAX_TERMS = 10000
_EM_ORDER = 8

# B_k / k! for even k, from exact (numerator, denominator) pairs; one
# correctly rounded integer division each.
_BERNOULLI = {
    2: (1, 6),
    4: (-1, 30),
    6: (1, 42),
    8: (-1, 30),
    10: (5, 66),
}
_B_OVER_FACT = {
    k: num / (den * math.factorial(k)) for k, (num, den) in _BERNOULLI.items()
}

# Ordinates of the first nine nontrivial zeros, used as a verification table.
REFERENCE_ZEROS = (
    14.134725141734693,
    21.022039638771554,
    25.010857580145688,
    30.424876125859513,
    32.935061587739189,
    37.586178158825671,
    40.918719012147495,
    43.327073280914999,
    48.005150881167159,
)


def _validate_point(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise RangeUnsupported(f"non-finite argument {s!r}")
    if s.real < _SIGMA_MIN or abs(s.imag) > _IMAG_MAX:
        raise RangeUnsupported(
            f"{s!r} outside supported region Re s >= {_SIGMA_MIN}, "
            f"|Im s| <= {_IMAG_MAX}"
        )
    return s


def _choose_terms(s: complex, target: float = _TARGET_ABS_ERROR) -> int:
    """Smallest N (grown geometrically) whose remainder bound meets target."""
    nu = _EM_ORDER // 2
    sigma = s.real
    abs_s = abs(s)
    n = max(20, math.ceil(abs(s.imag)))
    rising = 1.0  # |(s)_{2v+1}| <= prod_j (|s| + j), independent of N
    for j in range(2 * nu + 1):
        rising *= abs_s + j
    while True:
        # |E| <= |B_{2v+2}/(2v+2)!| * |(s)_{2v+1}| * N^(-sigma-2v-1)
        #        * |s+2v+1| / (sigma+2v+1)   (standard Euler-Maclaurin tail)
        bound = (
            abs(_B_OVER_FACT[2 * nu + 2])
            * rising
            * n ** (-sigma - 2 * nu - 1)
            * (abs_s + 2 * nu + 1)
            / (sigma + 2 * nu + 1)
        )
        if bound <= target:
            return n
        if n >= _MAX_TERMS:
            raise RangeUnsupported(
                f"cannot reach abs error {target:g} at s={s!r} "
                f"within {_MAX_TERMS} terms"
            )
        n = min(_MAX_TERMS, (3 * n) // 2 + 1)


_TWO_PI_LD = 2 * np.pi * np.ones(1, dtype=np.longdouble)[0]

# ln v for v = 1..len in float64 and in long double, one tuple so that the
# two always have the same length.  Built on first use and grown by doubling
# up to _MAX_TERMS, never at import, so code that evaluates no zeta carries
# none of it.
_log_tables = (np.empty(0), np.empty(0, dtype=np.longdouble))


def _logs(n: int):
    """ln v for v = 1..n (n <= _MAX_TERMS) as float64 and as long double:
    views of the module tables, each element bitwise ``np.log`` of v in
    that dtype."""
    global _log_tables
    if len(_log_tables[0]) < n:
        size = max(len(_log_tables[0]), 256)
        while size < n:
            size *= 2
        values = np.arange(1, min(size, _MAX_TERMS) + 1)
        _log_tables = (np.log(values), np.log(values.astype(np.longdouble)))
    logs, logs_ld = _log_tables
    return logs[:n], logs_ld[:n]


def _zeta_values(ts: np.ndarray, n: int) -> list[complex]:
    """zeta(1/2 + it) at every t of the 1-D array ts from one N-term
    Euler-Maclaurin evaluation (no range checks).  The direct terms
    v^(-1/2 - it) = v^(-1/2) (cos(t ln v) - i sin(t ln v)) of all points come
    from one block of phases t*ln(v), reduced mod 2*pi in long double so the
    accuracy floor stays near 1 ulp of the magnitude even when the raw phase
    is thousands of radians, and one magnitude row v^(-1/2) shared by every
    point.  Real and imaginary parts are two real products written into one
    complex array, the imaginary one as 0 - v^(-1/2) sin (+0.0 at v = 1).
    ``_em_corrections`` adds the Bernoulli corrections, and the pole term
    N^(1-s)/(s-1) comes last."""
    logs, logs_ld = _logs(n)
    phases = ts.astype(np.longdouble)[:, None] * logs_ld
    phases = np.mod(phases, _TWO_PI_LD, out=phases).astype(np.float64)
    mags = np.exp(-0.5 * logs)
    powers = np.empty(phases.shape, dtype=complex)
    np.multiply(mags, np.cos(phases), out=powers.real)
    np.multiply(mags, np.sin(phases, out=phases), out=powers.imag)
    np.subtract(0.0, powers.imag, out=powers.imag)
    n_pows = powers[:, -1]  # N^(-s)
    totals = powers[:, :-1].sum(axis=1) + 0.5 * n_pows
    s = [complex(0.5, t) for t in ts.tolist()]
    return [  # R + N^(1-s)/(s-1)
        _em_corrections(s_i, n, total, None, n_pow, None)[0] + n_pow * n / (s_i - 1.0)
        for s_i, total, n_pow in zip(s, totals.tolist(), n_pows.tolist())
    ]


def _em_corrections(s, n, total, deriv, n_pow, log_n):
    """Add the Bernoulli corrections of zeta's Euler-Maclaurin sum at one
    point to its direct sums: ``total`` (the N direct terms, the last one
    halved) and ``deriv`` (the same for zeta', or None where it is not
    wanted), given s, N, N^(-s) and ln N as Python numbers.

    Returns (R, R'), R' None where ``deriv`` is.  The corrections run in
    Python complex arithmetic, which rounds differently from numpy's fused
    complex multiply.
    """
    # Corrections: T_k = B_2k/(2k)! * N^(1-s-2k) * prod_{j=0}^{2k-2} (s+j).
    # The rising product and its s-derivative advance together (product
    # rule), which stays exact when some factor s+j vanishes.
    n_sq = float(n) * float(n)
    rising = s
    rising_d = 1.0 + 0.0j
    scale = n_pow * n  # N^(1-s)
    for k in range(1, _EM_ORDER // 2 + 1):
        scale = scale / n_sq  # N^(1-s-2k)
        coeff = _B_OVER_FACT[2 * k]
        total += coeff * rising * scale
        if deriv is not None:
            deriv += coeff * scale * (rising_d - rising * log_n)
        if k < _EM_ORDER // 2:
            f1, f2 = s + (2 * k - 1), s + 2 * k
            rising_d = rising_d * f1 * f2 + rising * (f1 + f2)
            rising = rising * f1 * f2
    return total, deriv


def _eta_values(ys: Sequence[float], lines: Sequence[tuple[float, bool]]) -> list[list[complex]]:
    """eta(s), or eta'(s) where a line's flag is set, on the grid
    s = sigma + iy: one row per ordinate y of ``ys``, one entry per
    (sigma, flag) of ``lines``.  Every point must be valid and at least 1/2
    from s = 1 (sigma is -1/2, 1/2 or 3/2 in every call), so the zeta pole
    needs no cancelling.  Each point is summed with its own N, and its value
    is bitwise the one the point alone gives.

    The points share the work their direct terms have in common.  The
    phases |y|*ln(v) are reduced mod 2*pi in one long-double pass over
    ragged rows laid end to end (as in ``_zeta_values``), one row per
    ordinate and as long as the largest N among its points, and the
    magnitudes exp(-sigma * ln v) come from one row per line.  Each point
    multiplies the first N entries of its two rows, negates the imaginary
    part where y >= 0, and sums over that contiguous slice.  Then
    ``_em_corrections`` adds its Bernoulli corrections, and eta or eta' is
    assembled from zeta, zeta' and the factor 1 - 2^(1-s).
    """
    if not ys:
        return []
    points = [(complex(sigma, y), derivative) for y in ys for sigma, derivative in lines]
    # eta' to a 10x tighter target
    ns = [_choose_terms(s, _TARGET_ABS_ERROR / (10.0 if flag else 1.0)) for s, flag in points]
    row_n = [max(ns[i:i + len(lines)]) for i in range(0, len(ns), len(lines))]
    row_start = list(itertools.accumulate(row_n, initial=0))
    logs, logs_ld = _logs(max(row_n))
    phases = np.concatenate([np.longdouble(abs(y)) * logs_ld[:n] for y, n in zip(ys, row_n)])
    phases = np.mod(phases, _TWO_PI_LD, out=phases).astype(np.float64)
    cos, sin = np.cos(phases), np.sin(phases, out=phases)
    mags = np.exp(np.multiply.outer(-np.array([sigma for sigma, _ in lines]), logs))

    sums, slopes, n_pows = [], [], []
    for i, ((s, derivative), n) in enumerate(zip(points, ns)):
        start, row_mags = row_start[i // len(lines)], mags[i % len(lines), :n]
        powers = np.empty(n, dtype=complex)
        np.multiply(row_mags, cos[start:start + n], out=powers.real)
        np.multiply(row_mags, sin[start:start + n], out=powers.imag)
        if s.imag >= 0:
            np.subtract(0.0, powers.imag, out=powers.imag)
        sums.append(np.add.reduce(powers[:-1]))
        slopes.append(np.add.reduce(logs[:n - 1] * powers[:-1]) if derivative else 0j)
        n_pows.append(powers[-1])  # N^(-s)
    n_pows, log_ns = np.array(n_pows), logs.take([n - 1 for n in ns])  # N^(-s), ln N
    totals = (np.array(sums) + 0.5 * n_pows).tolist()
    derivs = (-np.array(slopes) - 0.5 * log_ns * n_pows).tolist()

    values = []
    for (s, derivative), n, total, deriv, n_pow, log_n in zip(
            points, ns, totals, derivs, n_pows.tolist(), log_ns.tolist()):
        regular, regular_prime = _em_corrections(s, n, total, deriv, n_pow, log_n)
        u = s - 1.0
        n_1s = n_pow * n  # N^(1-s)
        zeta = regular + n_1s / u
        if not derivative:  # eta = (1 - 2^(1-s)) zeta
            values.append((1.0 - 2.0 ** (1.0 - s)) * zeta)
            continue
        power = np.exp(-u * _LN2)  # 2^(1-s)
        phi = -(power - 1.0)  # 1 - 2^(1-s); its derivative is ln 2 * 2^(1-s)
        zeta_prime = regular_prime - n_1s * (math.log(n) * u + 1.0) / (u * u)
        values.append(complex(_LN2 * power * zeta + phi * zeta_prime))
    return [values[i:i + len(lines)] for i in range(0, len(values), len(lines))]


# The lines of the first-order prediction's eta'(1/2 + iy), eta(3/2 + iy)
# and eta(-1/2 + iy), in the order ``zeta_plus_triple`` returns them.
_TRIPLE_LINES = ((0.5, True), (1.5, False), (-0.5, False))


def zeta_plus_triple(ys: Sequence[float]) -> list:
    """(eta'(1/2 + iy), eta(3/2 + iy), eta(-1/2 + iy)), the values the
    first-order zero prediction combines, for each ordinate y of ``ys``:
    one entry per ordinate, its triple or the ``RangeUnsupported`` error
    that ordinate alone raises.  Each triple is bitwise the triple of that
    ordinate alone.  All triples come from one ``_eta_values`` grid over
    ``_TRIPLE_LINES``, so the three points of an ordinate reduce their
    common phases |y|*ln(v) once and the points of a line share one
    magnitude row.
    """
    entries = []
    for y in ys:
        try:  # y alone decides whether the three points are valid
            entries.append(_validate_point(complex(0.5, y)).imag)
        except RangeUnsupported as exc:
            entries.append(exc)
    rows = iter(_eta_values([y for y in entries if not isinstance(y, Exception)], _TRIPLE_LINES))
    return [y if isinstance(y, Exception) else tuple(next(rows)) for y in entries]


def _siegel_theta(t: float) -> float:
    """Riemann-Siegel theta via the Stirling asymptotic (t not small)."""
    t2 = t * t
    return (
        0.5 * t * math.log(t / (2.0 * math.pi))
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t * t2)
        + 31.0 / (80640.0 * t * t2 * t2)
    )


def _rotate_to_real(t: float, zeta: complex) -> float:
    """exp(i theta(t)) * zeta(1/2 + it), the real value of Hardy Z."""
    theta = _siegel_theta(t)
    return (complex(math.cos(theta), math.sin(theta)) * zeta).real


def hardy_z(ts: Sequence[float]) -> np.ndarray:
    """Hardy Z(t) = exp(i theta(t)) zeta(1/2 + it) at each t of ``ts``;
    real on the real line.  Defined for 5 <= t <= 200; any other t raises
    ``RangeUnsupported``.  One Euler-Maclaurin evaluation with the N of the
    largest t serves every t (the remainder bound grows with |s|, so it
    meets the target everywhere).
    """
    ts = np.asarray(ts, dtype=np.float64)
    if not ts.size:
        return np.empty(0)
    top = _validate_point(complex(0.5, ts.max()))  # NaN wins
    if ts.min() < 5.0:  # theta's Stirling series misses Z by 9.6e-13 at t = 4
        raise RangeUnsupported(f"hardy_z needs t >= 5, got {float(ts.min())!r}")
    zetas = _zeta_values(ts, _choose_terms(top))
    return np.array(list(map(_rotate_to_real, ts.tolist(), zetas)))


# classical_zeros relies on Gram's law, which holds for every Gram interval
# below this ordinate
CLASSICAL_Y_MAX = 100.0


def _gram_points(y_max: float) -> list[float]:
    """Gram points g_n (theta(g_n) = n*pi) up to y_max; entry i is g_(i-1).
    Newton on ``_siegel_theta`` with slope theta'(t) ~ log(t/2pi)/2, started
    one mean spacing past the previous point."""
    points: list[float] = []
    n, t = -1, 10.0  # between theta's minimum and g_(-1) ~ 9.67
    while True:
        step = 1.0
        while abs(step) > 1e-13 * t:
            slope = 0.5 * math.log(t / (2.0 * math.pi))
            step = (_siegel_theta(t) - n * math.pi) / slope
            t -= step
        if t > y_max:
            return points
        points.append(t)
        n += 1
        t += math.pi / slope


# Illinois leaves a root bracket once it is this narrow, or after this many
# steps (values at the noise floor can stall it); stopping early reports the
# midpoint of a wider bracket.
_ROOT_WIDTH = 1e-9
_ROOT_STEPS = 12


def _illinois_lockstep(cells):
    """Root brackets of the sign-change cells (t_lo, t_hi, Z(t_lo), Z(t_hi)),
    all shrunk in lockstep by Illinois steps (regula falsi that halves the
    kept end's value when the same end moves twice running; Dowell & Jarratt,
    BIT 11, 1971), one ``hardy_z`` block per step over the cells still wider
    than _ROOT_WIDTH.  Returns one (r_lo, r_hi) per cell: Z evaluates to the
    sign of Z(t_lo) at r_lo and to the other sign at r_hi, unless a point
    where Z is exactly 0 closed the bracket to (x, x)."""
    # [a, b, Z(a), Z(b), side], a kept end's Z halved by Illinois; side is
    # 1 when a moved last and -1 when b did
    brackets = [[a, b, fa, fb, 0] for a, b, fa, fb in cells]
    live = brackets
    for _ in range(_ROOT_STEPS):
        steps = []
        for c in live:
            a, b, fa, fb = c[:4]
            if b - a > _ROOT_WIDTH:
                x = b - fb * (b - a) / (fb - fa)
                # at least half the width from either end, so that an end
                # already at the root closes the bracket in one more step
                x = min(max(x, a + 0.5 * _ROOT_WIDTH), b - 0.5 * _ROOT_WIDTH)
                if not a < x < b:
                    x = 0.5 * (a + b)
                if a < x < b:  # else a and b are adjacent floats
                    steps.append((c, x))
        if not steps:
            break
        live = []
        for (c, x), fx in zip(steps, hardy_z([x for _, x in steps]).tolist()):
            if fx == 0.0:
                c[:2] = [x, x]
                continue
            if fx * c[2] > 0.0:  # the low end moves
                c[0], c[2] = x, fx
                if c[4] > 0:
                    c[3] *= 0.5
                c[4] = 1
            else:
                c[1], c[3] = x, fx
                if c[4] < 0:
                    c[2] *= 0.5
                c[4] = -1
            live.append(c)
    return [(a, b) for a, b, *_ in brackets]


def classical_zeros(y_max: float) -> list[float]:
    """Ordinates of all nontrivial zeta zeros with 0 < y <= y_max, each the
    midpoint of its root bracket (``_ROOT_WIDTH`` = 1e-9 wide unless the
    ``_ROOT_STEPS`` cap stopped Illinois first).

    Z is probed in one ``hardy_z`` block at the Gram points and at y_max;
    below 100 each Gram interval holds one zero and none lies below g_(-1),
    so each probe interval holds at most one zero and Z changes sign across
    it exactly when it does.  Illinois steps shrink every such interval to
    a root bracket in lockstep (``_illinois_lockstep``).

    Checks: the count of zeros <= g_n is n + 1 (Gram's law), ordinates in
    the reference table's range are in it, and |eta(1/2 + iy)| < 1e-5.
    """
    if not 0 < y_max <= CLASSICAL_Y_MAX:
        raise RangeUnsupported(
            f"y_max must be in (0, {CLASSICAL_Y_MAX:g}], got {y_max!r}"
        )
    gram = _gram_points(y_max)
    if not gram:
        return []
    probes = gram + [y_max]
    z = hardy_z(probes).tolist()
    cells = [
        (a, b, fa, fb)
        for a, b, fa, fb in zip(probes, probes[1:], z, z[1:])
        if fa * fb < 0.0
    ]
    zeros = sorted(0.5 * (lo + hi) for lo, hi in _illinois_lockstep(cells))

    for n, g in enumerate(gram, start=-1):
        found = bisect.bisect_right(zeros, g)
        if found != n + 1:
            raise QZetaError(
                f"{found} zeros found up to the Gram point g_{n} = {g!r}, "
                f"where Gram's law gives {n + 1}"
            )
    for y, [eta] in zip(zeros, _eta_values(zeros, [(0.5, False)])):
        ref_hits = [r for r in REFERENCE_ZEROS if abs(r - y) < 5e-4]
        in_table_range = y < REFERENCE_ZEROS[-1] + 0.5
        if in_table_range and not ref_hits:
            raise QZetaError(
                f"zero finder produced {y!r}, absent from the verification table"
            )
        if abs(eta) >= 1e-5:
            raise QZetaError(f"ordinate {y!r} fails the |eta| residual check")
    return zeros
