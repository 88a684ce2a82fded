"""Command-line driver.

With no flags, reproduces the reference nine-zero run (a=750, d=2, seeds up
to y=48.5406, opening density c=4) and prints the classic text traces.
Exit status: 0 on success, 1 when any zero ends failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .errors import QZetaError, UsageError
from .pipeline import PAPER_Y_MAX, RunConfig, execute
from .report import emit_json, emit_plot_data, emit_text_report
from .search import SearchConfig, Verdict

__all__ = ["build_parser", "parse_cli", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qzeta",
        description=(
            "Locate deformed zeta zeros by adaptive argument-principle "
            "search over shrinking rectangles."
        ),
    )
    parser.add_argument("--a", type=float, default=750.0, help="deformation scale (q = exp(-1/a))")
    parser.add_argument("--d", type=float, default=2.0, help="Gaussian damping")
    parser.add_argument("--y-max", type=float, default=None,
                        help="seed all classical zeros up to this ordinate (default 48.5406)")
    parser.add_argument("--y", type=float, action="append", default=None,
                        help="explicit seed ordinate (repeatable; overrides --y-max)")
    parser.add_argument("--c", type=int, default=None, help="opening points per rectangle side")
    parser.add_argument("--b", type=int, default=None, help="series truncation multiplier override")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--plot-data", action="store_true",
                        help="append the per-zero CSV after the main report")
    parser.add_argument("--target", default="sharp",
                        help="'sharp' or 'poly:<comma-separated complex coefficients>'")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--c-schedule", default=None,
                        help="comma-separated escalation densities, e.g. 4,6,9")
    parser.add_argument("--kappa", type=float, default=None, help="initial rectangle scale")
    parser.add_argument("--vv-max", type=float, default=None, help="residual-ratio ceiling for a good integration")
    parser.add_argument("--fo-good-max", type=int, default=None, help="gap-metric ceiling for a good integration")
    parser.add_argument("--fo-verygood-max", type=int, default=None, help="gap-metric ceiling for concluding")
    parser.add_argument("--char-tol", type=float, default=None, help="winding-defect tolerance")
    parser.add_argument("--de-admissible", type=float, default=None, help="error-estimate ceiling for concluding")
    parser.add_argument("--seed-vv-limit", type=float, default=None,
                        help="opening residual ratio above which variant 1 cannot conclude")
    parser.add_argument("--max-integrations-per-zero", type=int, default=None)
    parser.add_argument("--newton-max-iters", type=int, default=None)
    return parser


def _parse_target(text: str) -> tuple[str, tuple[complex, ...]]:
    if text == "sharp":
        return "sharp", ()
    if text.startswith("poly:"):
        body = text[len("poly:"):]
        try:
            coefficients = tuple(complex(part) for part in body.split(","))
        except ValueError as exc:
            raise UsageError(f"bad polynomial coefficients {body!r}") from exc
        if len(coefficients) < 2:
            raise UsageError("polynomial target needs at least two coefficients")
        return "poly", coefficients
    raise UsageError(f"unknown target {text!r} (use 'sharp' or 'poly:...')")


def _default_schedule(c_initial: int) -> tuple[int, ...]:
    return (c_initial, math.ceil(c_initial * 1.5), math.ceil(c_initial * 2.25))


def parse_cli(argv: list[str] | None = None) -> tuple[RunConfig, str | None]:
    """argv -> (RunConfig, output path).  Raises UsageError on bad values."""
    parser = build_parser()
    args = parser.parse_args(argv)

    target, coefficients = _parse_target(args.target)

    defaults = SearchConfig()
    c_initial = args.c if args.c is not None else defaults.c_initial
    if args.c_schedule is not None:
        try:
            schedule = tuple(int(part) for part in args.c_schedule.split(","))
        except ValueError as exc:
            raise UsageError(f"bad c schedule {args.c_schedule!r}") from exc
    elif args.c is not None:
        schedule = _default_schedule(c_initial)
    else:
        schedule = defaults.c_schedule

    # flags spelled like a SearchConfig field override it when given
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(SearchConfig)
        if getattr(args, f.name, None) is not None
    }
    overrides.update(c_initial=c_initial, c_schedule=schedule)

    try:
        search = dataclasses.replace(defaults, **overrides)
        if args.y is not None and args.y_max is not None:
            raise UsageError("--y and --y-max are mutually exclusive")
        if args.y is not None:
            y_max, y_list = None, tuple(args.y)
        else:
            y_max = args.y_max if args.y_max is not None else PAPER_Y_MAX
            y_list = None
        config = RunConfig(
            a=args.a,
            d=args.d,
            y_max=y_max,
            y_list=y_list,
            b_override=args.b,
            target=target,
            poly_coefficients=coefficients,
            output_format=args.format,
            plot_data=args.plot_data,
            search=search,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config, args.out


def main(argv: list[str] | None = None) -> int:
    try:
        config, out_path = parse_cli(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = execute(config)
    except QZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.output_format == "json":
        report = emit_json(result)
    elif config.output_format == "csv":
        report = emit_plot_data(result)
    else:
        report = emit_text_report(result)
    if config.plot_data and config.output_format != "csv":
        report = report + "\n" + emit_plot_data(result)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    any_failed = any(r.verdict is Verdict.FAILED for r in result.records)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
