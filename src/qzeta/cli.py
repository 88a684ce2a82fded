"""Command-line driver.

With no flags, reproduces the reference nine-zero run (a=750, d=2, seeds up
to y=48.5406, opening density c=4) and prints the classic text traces.
Exit status: 0 on success, 1 when any zero ends failed or the run raises a
package error, 2 on a bad command line (argparse's usage error) or an
unwritable --out.
"""

from __future__ import annotations

import argparse
import sys

from .errors import QZetaError
from .pipeline import RunConfig, execute
from .report import emit_json, emit_plot_data, emit_text_report
from .search import Verdict

__all__ = ["build_parser", "parse_cli", "main"]


def _target_coefficients(text: str) -> tuple[complex, ...]:
    """--target -> the polynomial coefficients of the target; none for the
    series."""
    if text == "sharp":
        return ()
    if text.startswith("poly:"):
        body = text[len("poly:"):]
        try:
            return tuple(complex(part) for part in body.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad polynomial coefficients {body!r}") from None
    raise argparse.ArgumentTypeError(f"unknown target {text!r} (use 'sharp' or 'poly:...')")


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig()
    parser = argparse.ArgumentParser(
        prog="qzeta",
        description=(
            "Locate deformed zeta zeros by adaptive argument-principle "
            "search over shrinking rectangles."
        ),
    )
    parser.add_argument("--a", type=float, default=defaults.a, help="deformation scale (q = exp(-1/a))")
    parser.add_argument("--d", type=float, default=defaults.d, help="Gaussian damping")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--y-max", type=float, default=defaults.y_max,
                       help="seed all classical zeros up to this ordinate (default %(default)g)")
    seeds.add_argument("--y", type=float, action="append", default=None,
                       help="explicit seed ordinate (repeatable)")
    parser.add_argument("--c", type=int, default=defaults.c,
                        help="opening points per rectangle side, 3 to 64, escalated by 1.5 "
                             "and 2.25 for the later variants (4 gives 4,6,9)")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--target", type=_target_coefficients, default="sharp",
                        help="'sharp' or 'poly:<comma-separated complex coefficients>'")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def parse_cli(argv: list[str] | None = None) -> tuple[RunConfig, argparse.Namespace]:
    """argv -> (RunConfig, parsed arguments); the caller reads the output
    options ``format`` and ``out`` from the arguments.  A bad command line
    ends in argparse's usage error: SystemExit with status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(a=args.a, d=args.d,
                           y_max=args.y_max if args.y is None else None,
                           y_list=None if args.y is None else tuple(args.y),
                           poly_coefficients=args.target, c=args.c)
    except ValueError as exc:
        parser.error(str(exc))
    return config, args


def main(argv: list[str] | None = None) -> int:
    config, args = parse_cli(argv)
    try:
        result = execute(config)
    except QZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        report = emit_json(result)
    elif args.format == "csv":
        report = emit_plot_data(result)
    else:
        report = emit_text_report(result)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    any_failed = any(r.verdict is Verdict.FAILED for r in result.records)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
