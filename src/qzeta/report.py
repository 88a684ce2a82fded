"""Report emitters: the classic text-trace layout, JSON, and plot CSV.

The text report mirrors the reference program's listing: a seed table, the
per-variant integration traces with four-side angle sums, and the final zero
list.  Diagnostics print with 6 significant digits; the final list keeps the
table's 4-decimal layout.  The JSON and CSV emitters carry the same numbers
(cross-checked by tests to 1e-12) and are byte-deterministic.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

from .pipeline import RunResult
from .search import Assessment, Verdict

__all__ = ["emit_text_report", "emit_json", "emit_plot_data"]


def _c(value: complex, fmt: str = "{:.6g}") -> str:
    re = fmt.format(value.real)
    im = fmt.format(abs(value.imag))
    sign = "+" if value.imag >= 0 else "-"
    return f"{re} {sign} {im} I"


def _g(value: float) -> str:
    return "{:.6g}".format(value)


def _char_str(value: float) -> str:
    # winding defects within rounding of an integer print like the classic
    # listing ("0." / "1."); genuine defects keep their digits
    if abs(value - round(value)) < 1e-9:
        return f"{round(value):.0f}."
    return _g(value)


_VERDICT_LABEL = {
    Verdict.VERY_GOOD: "very good",
    Verdict.GOOD_ONLY: "good",
    Verdict.FAILED: "failed",
}


def emit_text_report(result: RunResult) -> str:
    """Three sections: seed table, per-variant traces, final zero list."""
    config = result.config
    out: list[str] = []
    out.append("CLASSICAL ZEROS AND APPROXIMATIONS:")
    out.append("")
    if config.target == "poly":
        coeffs = ", ".join(_c(c) for c in config.poly_coefficients)
        out.append(f"target polynomial coefficients: {coeffs}")
    else:
        top = config.y_max if config.y_max is not None else max(
            config.y_list, default=0.0
        )
        out.append(f"d= {_g(config.d)}  a= {_g(config.a)}  ALL ZEROS TILL {_g(top)}:")
    out.append("")
    if not result.seeds:
        out.append("no zeros requested")
        return "\n".join(out) + "\n"
    for seed in result.seeds:
        b_part = f"  b= {seed.b}" if seed.b is not None else ""
        out.append(f"{seed.index}  y= {_g(seed.y)}  za= {_c(seed.za)}{b_part}")
    out.append("")

    variants = sorted({a.variant for r in result.records for a in r.trace_log})
    for variant in variants:
        opening_c = min(
            a.c for r in result.records for a in r.trace_log if a.variant == variant
        )
        out.append("")
        out.append(f"VARIANT= {variant}  c= {opening_c}")
        for seed, record in zip(result.seeds, result.records):
            attempts = [a for a in record.trace_log if a.variant == variant]
            previous_c: int | None = None
            for attempt in attempts:
                if previous_c is not None and attempt.c != previous_c:
                    out.append("")
                    out.append("second try:")
                previous_c = attempt.c
                r = attempt.result
                out.append("")
                b_part = f" b= {seed.b}" if seed.b is not None else ""
                out.append(
                    f"no= {seed.index}  y= {_g(seed.y)}{b_part} c= {attempt.c}"
                )
                out.append(f"zna= {_c(attempt.zna)}")
                out.append(f"zn= {_c(attempt.rect.center)}")
                out.append(
                    f"rd= {_g(attempt.rect.rd)} rad= {_g(attempt.rect.rad)}"
                )
                out.append("angles over the rd*rad rectangle:")
                for label, angle in r.trace.display_rows():
                    out.append(f"{label:<6} {_g(angle)}")
                out.append(f"char= {_char_str(r.char)} fo= {r.fo}")
                out.append(f"z= {_c(r.z_estimate)}")
                out.append(f"vv= {_g(r.vv)}")
                if attempt.assessment is not Assessment.NOT_GOOD:
                    out.append("good")
                if attempt.assessment is Assessment.VERY_GOOD:
                    out.append("very good")
                    if record.newton_applied:
                        out.append("iterations:")
                        out.append(f"z={_c(record.z)}")
                        out.append(f"vv={_g(record.vv_final)}")
                    else:
                        out.append("iterations do not work")

    out.append("")
    out.append("")
    out.append("FINAL LIST OF Q-ZEROS:")
    for seed, record in zip(result.seeds, result.records):
        out.append("")
        label = _VERDICT_LABEL[record.verdict]
        out.append(
            f"{label} {seed.index}  {_g(seed.y)}  z: {_c(record.z, '{:.4f}')}"
        )
        de_part = f"de= {record.de:.6f}" if record.de is not None else "de= n/a"
        out.append(
            f"  za= {_c(seed.za, '{:.4f}')}  {de_part}   vv= {record.vv_final:.6f}"
        )
    return "\n".join(out) + "\n"


def _complex_obj(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def emit_json(result: RunResult) -> str:
    """Fixed-schema JSON document; byte-deterministic for a given run."""
    config = result.config
    doc = {
        "config": {
            "a": config.a,
            "d": config.d,
            "y_max": config.y_max,
            "y_list": list(config.y_list) if config.y_list is not None else None,
            "b_override": config.b_override,
            "target": config.target,
            "poly_coefficients": [
                [c.real, c.imag] for c in config.poly_coefficients
            ],
            **dataclasses.asdict(config.search),
        },
        "zeros": [
            {
                "index": seed.index,
                "y": seed.y,
                "b": seed.b,
                "za": _complex_obj(seed.za),
                "z": _complex_obj(record.z),
                "de": record.de,
                "vv": record.vv_final,
                "verdict": record.verdict.value,
                "newton_applied": record.newton_applied,
                "integrations": [
                    {
                        "variant": attempt.variant,
                        "zn": _complex_obj(attempt.rect.center),
                        "rd": attempt.rect.rd,
                        "rad": attempt.rect.rad,
                        "c": attempt.c,
                        "char": attempt.result.char,
                        "fo": attempt.result.fo,
                        "vv": attempt.result.vv,
                        "z_estimate": _complex_obj(attempt.result.z_estimate),
                        "angles": [
                            angle
                            for _, angle in attempt.result.trace.display_rows()
                        ],
                    }
                    for attempt in record.trace_log
                ],
            }
            for seed, record in zip(result.seeds, result.records)
        ],
    }
    return json.dumps(doc, indent=1)


def emit_plot_data(result: RunResult) -> str:
    """Per-zero CSV: seed vs final location plus quality numbers."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["y", "re_za", "im_za", "re_z", "im_z", "de", "vv"])
    for seed, record in zip(result.seeds, result.records):
        writer.writerow(
            [
                repr(seed.y),
                repr(seed.za.real),
                repr(seed.za.imag),
                repr(record.z.real),
                repr(record.z.imag),
                repr(record.de) if record.de is not None else "",
                repr(record.vv_final),
            ]
        )
    return buffer.getvalue()
