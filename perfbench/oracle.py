"""Check workload outputs against the 45-digit oracle (``oracle.json``).

Every check returns one ``Verdicts`` per repetition: how many zeros were
attempted, how many are correct (very good where a verdict exists, and
within the workload's tolerance of the oracle), how many stated error bars
hold, the largest distance of any reported value from its oracle (absolute,
and relative to 1 + |oracle|), and the reasons for anything that failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

FIXTURE = Path(__file__).resolve().parent / "oracle.json"

# A paper9 zero must lie within this distance of the zero of the same
# truncated series.  The reference table prints 4 decimals and the
# acceptance suite allows 2e-3; double-precision noise puts zero 9 at 3.2e-4.
PAPER9_TOL = 1e-3
# Generic roots are exact; the search converges to ~1e-9*|z|.
GENERIC_TOL = 1e-6
# Classical ordinates: "refined by bisection to 1e-6" (classical_zeros).
ORDINATE_TOL = 1e-6
# za is checked at the program's own ordinate (see Oracle.za), so it
# carries only the prediction's error: eta to 1e-12 (EtaConfig) scaled by
# y/(12*a*|eta'|).  Checked at the true ordinate instead it would repeat the
# ordinate's error, amplified by |dza/dy| (~130 at a=500, d=4).
ZA_TOL = 1e-8


@dataclass
class Verdicts:
    attempted: int = 0
    ok: int = 0
    bars: int = 0  # results that carry a stated error bar
    bars_held: int = 0
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def distance(self, got: complex, want: complex) -> float:
        err = abs(got - want)
        self.max_abs_err = max(self.max_abs_err, err)
        self.max_rel_err = max(self.max_rel_err, err / (1.0 + abs(want)))
        return err


class Oracle:
    def __init__(self, path: Path = FIXTURE):
        fixture = json.loads(path.read_text())
        self.digits = fixture["digits"]
        self.paper9 = {
            (e["a"], e["d"], e["b"], e["index"]): complex(mpmath.mpc(*e["z"]))
            for e in fixture["paper9"]
        }
        self.sweep = fixture["sweep"]
        self._za: dict[tuple[float, float], list[tuple[complex, complex]]] = {}

    def ordinate(self, n: int) -> float:
        return float(self.sweep[n - 1]["y"])

    def za(self, a: float, d: float) -> list[tuple[complex, complex]]:
        """(za, dza/dy) at every fixture ordinate for (a, d), re-derived
        from the stored eta values at full precision.

        za(y) = yi * (1 - N/D) with N = (4/d)(1/2+yi) eta(3/2+yi)
        - d(-1+yi) eta(-1/2+yi) and D = 12a eta'(1/2+yi), as in
        ``qzeta.series.linear_approximation``; d/dy of f(c+yi) is i f'(c+yi).
        """
        key = (a, d)
        if key not in self._za:
            mpc = lambda pair: mpmath.mpc(*pair)  # noqa: E731
            with mpmath.workdps(self.digits):
                a_, d_ = mpmath.mpf(a), mpmath.mpf(d)
                out = []
                for e in self.sweep:
                    yi = mpmath.mpc(0, mpmath.mpf(e["y"]))
                    h0, h1 = map(mpc, e["eta_3_2"])
                    l0, l1 = map(mpc, e["eta_m1_2"])
                    m1, m2 = map(mpc, e["eta_1_2"])
                    num = (4 / d_) * (0.5 + yi) * h0 - d_ * (-1 + yi) * l0
                    num_y = (4j / d_) * (h0 + (0.5 + yi) * h1) - 1j * d_ * (l0 + (-1 + yi) * l1)
                    den, den_y = 12 * a_ * m1, 12j * a_ * m2
                    za = yi * (1 - num / den)
                    za_y = 1j * (1 - num / den) - yi * (num_y * den - num * den_y) / den**2
                    out.append((complex(za), complex(za_y)))
            self._za[key] = out
        return self._za[key]

    # -- per-workload checks ---------------------------------------------
    def check_seeds(self, v: Verdicts, a: float, d: float, seeds, tag: str,
                    ordinate_bars: bool = True) -> list[bool]:
        """Ordinates and predictions of one plan; returns per-seed ok.

        With ordinate_bars, each ordinate counts as a result whose stated
        error bar (ORDINATE_TOL) is checked."""
        za_true = self.za(a, d)
        if len(seeds) > len(za_true):
            v.problems.append(f"{tag}: {len(seeds)} seeds, oracle has {len(za_true)}")
        oks = []
        for n, (y, za) in enumerate(seeds, start=1):
            if n > len(za_true):
                oks.append(False)
                continue
            err_y = v.distance(y, self.ordinate(n))
            za_at_y, za_y = za_true[n - 1]
            err_za = v.distance(za, za_at_y + za_y * (y - self.ordinate(n)))
            if ordinate_bars:
                v.bars += 1
                v.bars_held += err_y <= ORDINATE_TOL
            ok = err_y <= ORDINATE_TOL and err_za <= ZA_TOL
            if not ok:
                v.problems.append(
                    f"{tag} seed {n}: |y - y_true| = {err_y:.2e}, |za - za_true| = {err_za:.2e}")
            oks.append(ok)
        return oks

    def check_paper9(self, doc: dict) -> Verdicts:
        """One CLI JSON report of the reference run."""
        v = Verdicts()
        a, d = doc["config"]["a"], doc["config"]["d"]
        zeros = doc["zeros"]
        v.attempted = len(zeros)
        seed_ok = self.check_seeds(
            v, a, d, [(z["y"], complex(z["za"]["re"], z["za"]["im"])) for z in zeros], "paper9",
            ordinate_bars=False)
        for zero, ok in zip(zeros, seed_ok):
            key = (a, d, zero["b"], zero["index"])
            if key not in self.paper9:
                v.problems.append(f"no oracle zero for (a, d, b, index) = {key}; "
                                  "the truncation changed, regenerate with make_oracle.py")
                continue
            err = v.distance(complex(zero["z"]["re"], zero["z"]["im"]), self.paper9[key])
            if zero["verdict"] == "very_good":
                v.bars += 1
                v.bars_held += zero["de"] is not None and err <= zero["de"]
            if ok and zero["verdict"] == "very_good" and err <= PAPER9_TOL:
                v.ok += 1
            else:
                v.problems.append(f"paper9 zero {zero['index']}: {zero['verdict']}, "
                                  f"|z - z_true| = {err:.2e}")
        return v

    def check_generic(self, roots: list[complex], zeros: list[list]) -> Verdicts:
        """zeros: [re, im, de, verdict] per seed, in seed order."""
        v = Verdicts(attempted=len(roots))
        if len(zeros) != len(roots):
            v.problems.append(f"generic: {len(zeros)} records for {len(roots)} seeds")
            return v
        for i, (root, (re, im, de, verdict)) in enumerate(zip(roots, zeros)):
            err = v.distance(complex(re, im), root)
            if verdict == "very_good":
                v.bars += 1
                v.bars_held += de is not None and err <= de
            if verdict == "very_good" and err <= GENERIC_TOL:
                v.ok += 1
            else:
                v.problems.append(f"generic zero {i + 1}: {verdict}, |z - r| = {err:.2e}")
        return v

    def check_sweep(self, pairs: list[tuple[float, float]], plans: list[list]) -> Verdicts:
        """plans: per (a, d) pair, [y, za.re, za.im] per seed."""
        v = Verdicts()
        for (a, d), plan in zip(pairs, plans):
            expected = len(self.sweep)
            v.attempted += expected
            if len(plan) != expected:
                v.problems.append(f"sweep a={a:g} d={d:g}: {len(plan)} seeds, "
                                  f"expected {expected}")
            oks = self.check_seeds(v, a, d, [(y, complex(re, im)) for y, re, im in plan],
                                   f"sweep a={a:g} d={d:g}")
            v.ok += sum(oks[:expected])
        return v
