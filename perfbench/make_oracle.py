#!/usr/bin/env python3
"""Generate (or self-check) the benchmark's high-precision oracle fixture.

    python3 perfbench/make_oracle.py            # rewrite perfbench/oracle.json
    python3 perfbench/make_oracle.py --check    # re-derive one zero, compare

The fixture holds, at 45 significant digits:

* ``paper9``: each zero of the *same truncated series* the reference run
  searches (a=750, d=2, n_terms = floor(b*sqrt(a/d))), found by
  ``mpmath.findroot`` from the run's own double-precision result and keyed
  by ``a, d, b, index``.  A run whose truncation ``b`` differs finds no
  entry and fails loudly rather than being checked against the wrong
  function.
* ``sweep``: the ordinates of the first 29 zeta zeros (``mpmath.zetazero``,
  every zero up to y=100) and, at each, eta and eta' at 3/2+yi and -1/2+yi
  and eta' and eta'' at 1/2+yi.  From these the first-order prediction
  ``za`` and its derivative in y are re-derived for any ``(a, d)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "oracle.json"
DIGITS = 45
PAPER_A, PAPER_D = 750, 2
SWEEP_ZEROS = 29  # all zeta zeros with ordinate <= 100


def series_value(k, a, d, n_terms):
    """The truncated q-deformed series at k, in mpmath arithmetic.

    Same recurrence as ``qzeta.series.term_ratio`` without the double
    precision overflow guard, which multiprecision exponents do not need.
    """
    a, d = mpmath.mpf(a), mpmath.mpf(d)
    total = term = mpmath.mpc(1)
    for j in range(1, n_terms):
        e1 = 1 - mpmath.exp(-(j + 2 * k - 1) / a)
        e2 = 1 - mpmath.exp((j + k) / a)
        e3 = 1 - mpmath.exp(-(j + k - 1) / a)
        e4 = 1 - mpmath.exp(j / a)
        x1 = d * (k + j - 1) ** 2 / (4 * a)
        x2 = d * (k + j) ** 2 / (4 * a)
        term *= (e1 * e2) / (e3 * e4) * (mpmath.exp(x1) + 1) / (mpmath.exp(x2) + 1)
        total += term
    return total


def series_zero(start: complex, a, d, b) -> mpmath.mpc:
    n_terms = int(mpmath.floor(b * mpmath.sqrt(mpmath.mpf(a) / d)))
    with mpmath.workdps(DIGITS):
        return mpmath.findroot(
            lambda k: series_value(k, a, d, n_terms), mpmath.mpc(start), verify=False
        )


def eta(s, n=0):
    """n-th derivative of eta(s) = (1 - 2^(1-s)) zeta(s), by Leibniz's rule."""
    two = mpmath.mpf(2) ** (1 - s)
    total = (1 - two) * mpmath.zeta(s, derivative=n)
    for k in range(1, n + 1):
        phi_k = -((-mpmath.log(2)) ** k) * two  # k-th derivative of 1 - 2^(1-s)
        total += mpmath.binomial(n, k) * phi_k * mpmath.zeta(s, derivative=n - k)
    return total


def _digits(x) -> str:
    return mpmath.nstr(x, DIGITS, min_fixed=-1, max_fixed=1)


def _c(z) -> list[str]:
    return [_digits(mpmath.re(z)), _digits(mpmath.im(z))]


def paper_run_zeros():
    """(index, b, z) of the reference run, from the package under ``src``."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from qzeta import RunConfig, execute

    result = execute(RunConfig(a=PAPER_A, d=PAPER_D))
    return [(s.index, s.b, r.z) for s, r in zip(result.seeds, result.records)]


def generate() -> dict:
    paper = []
    for index, b, z in paper_run_zeros():
        root = series_zero(z, PAPER_A, PAPER_D, b)
        paper.append({"a": PAPER_A, "d": PAPER_D, "b": b, "index": index, "z": _c(root)})
        print(f"paper9 zero {index} (b={b}): {mpmath.nstr(root, 20)}", file=sys.stderr)
    sweep = []
    with mpmath.workdps(DIGITS):
        for n in range(1, SWEEP_ZEROS + 1):
            y = mpmath.im(mpmath.zetazero(n))
            yi = mpmath.mpc(0, y)
            sweep.append(
                {
                    "n": n,
                    "y": _digits(y),
                    "eta_3_2": [_c(eta(1.5 + yi, n)) for n in (0, 1)],
                    "eta_m1_2": [_c(eta(-0.5 + yi, n)) for n in (0, 1)],
                    "eta_1_2": [_c(eta(0.5 + yi, n)) for n in (1, 2)],
                }
            )
    return {
        "digits": DIGITS,
        "generator": "perfbench/make_oracle.py",
        "paper9": paper,
        "sweep": sweep,
    }


def check() -> int:
    """Re-derive the first paper9 zero from scratch and compare it with the
    stored value to 30 digits."""
    fixture = json.loads(FIXTURE.read_text())
    entry = fixture["paper9"][0]
    start = complex(float(entry["z"][0]), float(entry["z"][1])) + 1e-4
    with mpmath.workdps(DIGITS):
        root = series_zero(start, entry["a"], entry["d"], entry["b"])
        stored = mpmath.mpc(*entry["z"])
        diff = abs(root - stored)
    ok = diff < mpmath.mpf(10) ** -30
    print(f"zero {entry['index']}: |re-derived - stored| = {mpmath.nstr(diff, 3)} "
          f"{'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-derive one zero and compare it with the fixture")
    args = parser.parse_args()
    if args.check:
        return check()
    FIXTURE.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
