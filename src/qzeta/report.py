"""Report emitters: the classic text-trace layout, JSON, and plot CSV.

The text report mirrors the reference program's listing: a seed table, the
per-variant integration traces with four-side angle sums, and the final zero
list.  Diagnostics print with 6 significant digits; the final list keeps the
table's 4-decimal layout.  The three reports read each zero's summary from
one entry, `_zero_entry`; the CSV names its own columns.  JSON and CSV are
byte-deterministic.
"""

from __future__ import annotations

import json
import math

from .pipeline import RunResult, Seed
from .search import Assessment, ZeroRecord, escalation_schedule

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
    # listing ("0." / "1."); genuine defects, and values that are not finite
    # (f overflowed on the contour), keep their digits
    if math.isfinite(value) and abs(value - round(value)) < 1e-9:
        return f"{round(value):.0f}."
    return _g(value)


_VERDICT_LABEL = {"very_good": "very good", "good_only": "good", "failed": "failed"}


def _zero_entry(seed: Seed, record: ZeroRecord) -> dict:
    """A zero's summary fields in the JSON order, complex numbers still
    complex: the one field list behind the JSON, CSV and text reports."""
    return {
        "index": seed.index,
        "y": seed.y,
        "b": seed.b,
        "za": seed.za,
        "z": record.z,
        "de": record.de,
        "vv": record.vv_final,
        "verdict": record.verdict.value,
        "newton_applied": record.newton_applied,
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
    schedule = escalation_schedule(config.c)
    for variant in variants:
        out.append("")
        out.append(f"VARIANT= {variant}  c= {schedule[variant - 1]}")
        for seed, record in zip(result.seeds, result.records):
            attempts = [a for a in record.trace_log if a.variant == variant]
            previous_c: int | None = None
            for attempt in attempts:
                r = attempt.result
                rect, c = r.trace.rect, r.trace.c
                if previous_c is not None and c != previous_c:
                    out.append("")
                    out.append("second try:")
                previous_c = c
                out.append("")
                b_part = f" b= {seed.b}" if seed.b is not None else ""
                out.append(f"no= {seed.index}  y= {_g(seed.y)}{b_part} c= {c}")
                out.append(f"zna= {_c(attempt.zna)}")
                out.append(f"zn= {_c(rect.center)}")
                out.append(f"rd= {_g(rect.rd)} rad= {_g(rect.rad)}")
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
        e = _zero_entry(seed, record)
        out.append("")
        label = _VERDICT_LABEL[e["verdict"]]
        out.append(f"{label} {e['index']}  {_g(e['y'])}  z: {_c(e['z'], '{:.4f}')}")
        de_part = f"de= {e['de']:.6f}" if e["de"] is not None else "de= n/a"
        out.append(f"  za= {_c(e['za'], '{:.4f}')}  {de_part}   vv= {e['vv']:.6f}")
        if record.reason is not None:
            out.append(f"  reason: {record.reason}")
    return "\n".join(out) + "\n"


def emit_json(result: RunResult) -> str:
    """Fixed-schema JSON document; byte-deterministic for a given run.  A
    complex number reads {"re": ..., "im": ...}, one that is not finite
    null."""
    config = result.config
    doc = {
        "config": {
            "a": config.a,
            "d": config.d,
            "y_max": config.y_max,
            "y_list": list(config.y_list) if config.y_list is not None else None,
            "target": config.target,
            "poly_coefficients": [
                [c.real, c.imag] for c in config.poly_coefficients
            ],
            # c_schedule follows from c_initial; the fixed schema keeps both
            "c_initial": config.c,
            "c_schedule": list(escalation_schedule(config.c)),
        },
        "zeros": [
            {
                **_zero_entry(seed, record),
                "integrations": [
                    {
                        "variant": attempt.variant,
                        "zn": attempt.result.trace.rect.center,
                        "rd": attempt.result.trace.rect.rd,
                        "rad": attempt.result.trace.rect.rad,
                        "c": attempt.result.trace.c,
                        "char": attempt.result.char,
                        "fo": attempt.result.fo,
                        "vv": attempt.result.vv,
                        "z_estimate": attempt.result.z_estimate,
                        "angles": [
                            angle
                            for _, angle in attempt.result.trace.display_rows()
                        ],
                    }
                    for attempt in record.trace_log
                ],
                # only for a search an error stopped, so other runs keep
                # the fixed schema byte for byte
                **({"reason": record.reason} if record.reason is not None else {}),
            }
            for seed, record in zip(result.seeds, result.records)
        ],
    }
    return json.dumps(_jsonable(doc), indent=1, allow_nan=False)


def _jsonable(value):
    """value with every complex number written as {"re": ..., "im": ...}
    and every non-finite float (a prediction that could not be computed, an
    infinite ratio) replaced by None, which JSON writes as null: strict
    parsers reject NaN and Infinity."""
    if isinstance(value, complex):
        return _jsonable({"re": value.real, "im": value.imag})
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def emit_plot_data(result: RunResult) -> str:
    """Per-zero CSV: seed vs final location plus quality numbers, each the
    repr of its number (nan where it is not finite), empty where unset."""
    import csv  # only this report needs csv and io: not loaded for the others
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["y", "re_za", "im_za", "re_z", "im_z", "de", "vv"])
    for seed, record in zip(result.seeds, result.records):
        e = _zero_entry(seed, record)
        cells = [e["y"], e["za"].real, e["za"].imag, e["z"].real, e["z"].imag, e["de"], e["vv"]]
        writer.writerow(["" if v is None else repr(v) for v in cells])
    return buffer.getvalue()
