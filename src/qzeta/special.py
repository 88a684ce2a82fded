"""Complex-argument zeta and eta evaluation, plus critical-line zero seeds.

Everything here is double precision.  The Riemann zeta is summed by
Euler-Maclaurin: N direct terms, the trapezoidal edge term, the isolated pole
term N^(1-s)/(s-1), and Bernoulli corrections.  N is grown until a rigorous
first-omitted-term bound meets a fixed absolute error of 1e-12, which then
holds over the whole supported region (Re s >= -2, |Im s| <= 200).  The
direct terms n^(-s) read ln n from tables built once per process (float64
and long double, grown by doubling), and their phases |Im s| ln n, reduced
mod 2 pi in long double, come as cos/sin rows that points sharing |Im s|
share: ``zeta_plus_triple`` gives the three eta values of a first-order
prediction from one row.

The alternating-sum variant eta(s) = (1 - 2^(1-s)) zeta(s) is assembled so
that the zeta pole cancels analytically rather than numerically: near s = 1
the pole term is kept symbolic and recombined through expm1-style helpers,
which keeps eta and eta' smooth through s = 1.

The zero seeds (``classical_zeros``) are sign changes of Hardy Z, probed at
the Gram points, with the zero count checked by Gram's law.  Illinois steps
bracket every root to 1e-9 in lockstep, one ``hardy_z`` block per step, and
each seed is the midpoint of its bracket.

Caveat: the truncation bound is rigorous, but double rounding in the
oscillatory factors exp(-i Im(s) ln n) sets a practical accuracy floor of
roughly |zeta(s)| * |Im s| * ln(N) * 2^-52.  That floor is below 1e-12
throughout the band the q-zeta pipeline uses (Re s >= -1/2, |Im s| <= 55)
and grows to ~1e-9 at the extreme corner of the supported region.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

import numpy as np

from .errors import PoleAtOne, QZetaError, RangeUnsupported

__all__ = [
    "REFERENCE_ZEROS",
    "riemann_zeta",
    "zeta_plus",
    "zeta_plus_derivative",
    "zeta_plus_triple",
    "hardy_z",
    "classical_zeros",
    "CLASSICAL_Y_MAX",
]

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328606
# eta'(1) = gamma*ln2 - (ln2)^2/2
_ETA_PRIME_AT_1 = _EULER_GAMMA * _LN2 - 0.5 * _LN2 * _LN2

_SIGMA_MIN = -2.0
_IMAG_MAX = 200.0
_POLE_RADIUS = 1e-12

# Absolute error of zeta and eta values (the derivative contract is 100x
# looser), the most direct terms N may grow to, and the order of the highest
# Bernoulli correction (even, at most 16).
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
    12: (-691, 2730),
    14: (7, 6),
    16: (-3617, 510),
    18: (43867, 798),
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


def _phase_rows(s: np.ndarray, n: int):
    """cos and sin of |Im s|*ln(v) for v = 1..n, one row per point of the
    1-D array s, with the phase reduced mod 2*pi in extended precision;
    keeps the accuracy floor near 1 ulp of the magnitude even when the raw
    phase is thousands of radians.  Element v depends on |Im s| and v alone,
    so points with the same |Im s| share the rows of their largest N."""
    phases = np.mod(
        np.abs(s.imag).astype(np.longdouble)[:, None] * _logs(n)[1], _TWO_PI_LD
    ).astype(np.float64)
    return np.cos(phases), np.sin(phases, out=phases)


def _directed_powers(s: np.ndarray, n: int, rows):
    """ln v and v**(-s) for v = 1..n at every point of the 1-D array s, one
    row per point, from ``rows``, the ``_phase_rows`` of these points at n
    or more terms (the first n columns are read).  The phase runs on |Im s|
    with the sign applied afterwards, so conjugate arguments produce exactly
    conjugate results.

    The real and imaginary parts are two real products, mags*cos and
    mags*sin, written into one complex array; rows with Im s >= 0 take
    0 - mags*sin, so a zero phase (v = 1, or real s) gives +0.0 there.
    Every element is bitwise mags * (cos - 1j*sign*sin) with sign = +-1,
    away from underflowed magnitudes (where a zero's sign may differ)."""
    logs = _logs(n)[0]
    mags = np.exp(-s.real[:, None] * logs)
    cos, sin = (row[:, :n] for row in rows)
    powers = np.empty(mags.shape, dtype=complex)
    np.multiply(mags, cos, out=powers.real)
    np.multiply(mags, sin, out=powers.imag)
    np.subtract(0.0, powers.imag, out=powers.imag, where=(s.imag >= 0)[:, None])
    return logs, powers


def _em_regular(s: np.ndarray, n: int, rows, want_derivative: bool):
    """Euler-Maclaurin pieces of zeta except the pole term N^(1-s)/(s-1), at
    every point of the 1-D array s with one N, from the points' phase rows
    (see ``_directed_powers``).

    Returns one (R, R', N^(-s)) triple of complex per point, where
    zeta(s) = R + N^(1-s)/(s-1); R' is None unless requested.  The N direct
    terms of all points are summed in one numpy pass over the tabulated
    logs; the few Bernoulli corrections run per point in Python complex
    arithmetic, which rounds differently from numpy's fused complex multiply.
    """
    logs, powers = _directed_powers(s, n, rows)
    n_pows = powers[:, -1]  # N^(-s)
    totals = powers[:, :-1].sum(axis=1) + 0.5 * n_pows
    log_n = float(logs[-1])
    derivs = [None] * len(s)
    if want_derivative:
        derivs = -(logs[:-1] * powers[:, :-1]).sum(axis=1) - 0.5 * log_n * n_pows
        derivs = derivs.tolist()

    n_sq = float(n) * float(n)
    pieces = []
    for s_i, total, deriv, n_pow in zip(
        s.tolist(), totals.tolist(), derivs, n_pows.tolist()
    ):
        # Corrections: T_k = B_2k/(2k)! * N^(1-s-2k) * prod_{j=0}^{2k-2} (s+j).
        # The rising product and its s-derivative advance together (product
        # rule), which stays exact when some factor s+j vanishes.
        rising = s_i
        rising_d = 1.0 + 0.0j
        scale = n_pow * n  # N^(1-s)
        for k in range(1, _EM_ORDER // 2 + 1):
            scale = scale / n_sq  # N^(1-s-2k)
            coeff = _B_OVER_FACT[2 * k]
            total += coeff * rising * scale
            if want_derivative:
                deriv += coeff * scale * (rising_d - rising * log_n)
            if k < _EM_ORDER // 2:
                f1, f2 = s_i + (2 * k - 1), s_i + 2 * k
                rising_d = rising_d * f1 * f2 + rising * (f1 + f2)
                rising = rising * f1 * f2
        pieces.append((total, deriv, n_pow))
    return pieces


def _cexpm1(w: complex) -> complex:
    """exp(w) - 1 without cancellation for small |w|."""
    if abs(w) < 1e-4:
        # 4-term Horner tail; relative error < 1e-18 at |w| = 1e-4
        return w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w * (1.0 / 24.0))))
    return np.exp(w) - 1.0


def riemann_zeta(s: complex) -> complex:
    """zeta(s) on Re s >= -2, |Im s| <= 200, to an absolute error of 1e-12."""
    s = _validate_point(s)
    u = s - 1.0
    if abs(u) < _POLE_RADIUS:
        raise PoleAtOne(f"zeta pole at s=1 (got {s!r})")
    return _zeta_values(np.array([s]), _choose_terms(s))[0]


def _zeta_values(s: np.ndarray, n: int) -> list[complex]:
    """zeta at every point of the 1-D array s from one N-term
    Euler-Maclaurin evaluation (no pole or range checks)."""
    return [
        regular + n_pow * n / (s_i - 1.0)  # + N^(1-s)/(s-1)
        for s_i, (regular, _, n_pow) in zip(
            s.tolist(), _em_regular(s, n, _phase_rows(s, n), False)
        )
    ]


# Inside this distance from s=1 the zeta pole is cancelled symbolically;
# outside, eta is the plain product (1 - 2^(1-s)) zeta(s).
_POLE_SPLIT = 0.5


def _eta(s: complex, n: int, regular: complex, n_pow: complex) -> complex:
    """eta(s) from the Euler-Maclaurin pieces of zeta at s with N = n."""
    u = s - 1.0
    if abs(u) < _POLE_SPLIT:
        # eta = phi*R + (phi/u) * N^(1-s); phi/u -> ln2 as u -> 0
        phi = -_cexpm1(-u * _LN2)  # 1 - 2^(1-s), stable near s=1
        return complex(phi * regular + (phi / u) * (n_pow * n))
    return complex((1.0 - 2.0 ** (1.0 - s)) * (regular + n_pow * n / u))


def _eta_prime(
    s: complex, n: int, regular: complex, regular_prime: complex, n_pow: complex
) -> complex:
    """eta'(s) from the Euler-Maclaurin pieces of zeta and zeta' at s with
    N = n."""
    u = s - 1.0
    log_n = math.log(n)
    n_1s = n_pow * n  # N^(1-s)
    phi = -_cexpm1(-u * _LN2)  # 1 - 2^(1-s), stable near s=1
    phi_prime = _LN2 * np.exp(-u * _LN2)  # ln2 * 2^(1-s)
    if abs(u) >= _POLE_SPLIT:
        zeta = regular + n_1s / u
        zeta_prime = regular_prime - n_1s * (log_n * u + 1.0) / (u * u)
        return complex(phi_prime * zeta + phi * zeta_prime)
    if abs(u) < 1e-3:
        # series of (u*phi' - phi)/u^2 = sum_{p>=2} L(-L)^(p-1)(p-1)/p! u^(p-2)
        g = 0.0 + 0.0j
        u_pow = 1.0 + 0.0j
        for p in range(2, 10):
            c = _LN2 * ((-_LN2) ** (p - 1)) * (p - 1) / math.factorial(p)
            g += c * u_pow
            u_pow *= u
    else:
        g = (u * phi_prime - phi) / (u * u)
    return complex(
        phi_prime * regular + phi * regular_prime + n_1s * (g - log_n * (phi / u))
    )


def _eta_values(points: Sequence[tuple[complex, bool]]) -> list[complex]:
    """eta(s), or eta'(s) where the flag is set, at each (s, flag) of
    ``points``: validated points off the pole that share |Im s|.  Each point
    is summed with its own N, and the phase rows are computed once, for the
    largest N."""
    ns = []
    for s, derivative in points:
        # eta' to a 10x tighter target, near-pole eta to a 2x tighter one
        divisor = 10.0 if derivative else 2.0 if abs(s - 1.0) < _POLE_SPLIT else 1.0
        ns.append(_choose_terms(s, _TARGET_ABS_ERROR / divisor))
    rows = _phase_rows(np.array([points[0][0]]), max(ns))
    values = []
    for (s, derivative), n in zip(points, ns):
        [(regular, regular_prime, n_pow)] = _em_regular(
            np.array([s]), n, rows, derivative
        )
        values.append(
            _eta_prime(s, n, regular, regular_prime, n_pow) if derivative
            else _eta(s, n, regular, n_pow)
        )
    return values


def zeta_plus(s: complex) -> complex:
    """Dirichlet eta: (1 - 2^(1-s)) zeta(s), entire; eta(1) = ln 2."""
    s = _validate_point(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        return complex(_LN2)
    return _eta_values([(s, False)])[0]


def zeta_plus_derivative(s: complex) -> complex:
    """d/ds of zeta_plus, from differentiated Euler-Maclaurin terms."""
    s = _validate_point(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        return complex(_ETA_PRIME_AT_1)
    return _eta_values([(s, True)])[0]


def zeta_plus_triple(y: float) -> tuple[complex, complex, complex]:
    """(eta'(1/2 + iy), eta(3/2 + iy), eta(-1/2 + iy)), the values the
    first-order zero prediction combines; bitwise equal to
    ``zeta_plus_derivative(complex(0.5, y))``, ``zeta_plus(complex(1.5, y))``
    and ``zeta_plus(complex(-0.5, y))``, but the three points reduce their
    common phases |y|*ln(v) once."""
    points = [_validate_point(complex(x, y)) for x in (0.5, 1.5, -0.5)]
    # none lies within _POLE_RADIUS of s = 1
    return tuple(_eta_values(list(zip(points, (True, False, False)))))


def _siegel_theta(t: float) -> float:
    """Riemann-Siegel theta via the Stirling asymptotic (t not tiny)."""
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


def hardy_z(t: float | Sequence[float]) -> float | np.ndarray:
    """Hardy Z(t) = exp(i theta(t)) zeta(1/2 + it); real on the real line.

    For a sequence of ordinates, returns an ndarray from one Euler-Maclaurin
    evaluation with the N of the largest |t| (the remainder bound grows with
    |s|, so it meets the target everywhere); ``hardy_z([t])[0] == hardy_z(t)``.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not ts.size:
        return np.empty(0)
    top = _validate_point(complex(0.5, ts[np.argmax(np.abs(ts))]))  # NaN wins
    zetas = _zeta_values(0.5 + 1j * ts, _choose_terms(top))
    values = list(map(_rotate_to_real, ts.tolist(), zetas))
    return values[0] if np.ndim(t) == 0 else np.array(values)


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
    for y in zeros:
        ref_hits = [r for r in REFERENCE_ZEROS if abs(r - y) < 5e-4]
        in_table_range = y < REFERENCE_ZEROS[-1] + 0.5
        if in_table_range and not ref_hits:
            raise QZetaError(
                f"zero finder produced {y!r}, absent from the verification table"
            )
        if abs(zeta_plus(complex(0.5, y))) >= 1e-5:
            raise QZetaError(f"ordinate {y!r} fails the |eta| residual check")
    return zeros
