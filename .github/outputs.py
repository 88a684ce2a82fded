"""The listings that the ``outputs-vs-base`` job compares between a change and
its base commit, each under a ``### <label>`` line with numbers as
``float.hex``; given two listings, the comparison, in Markdown.

    PYTHONPATH=<tree>/src python .github/outputs.py > side.txt
    python .github/outputs.py base.txt head.txt

A listing whose code raises, or whose CLI run (in this process) writes an
error line, reads ``error: <type>: <message>``; the others still run.
"""

import difflib
import functools
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path


@functools.cache
def _cli(*argv):
    """The stdout of ``qzeta <argv>``, whose exit status 1 says a zero failed;
    an error line, or argparse's exit on a usage error, raises."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), suppress(SystemExit):
        cli.main(list(argv))
    if err.getvalue():
        raise RuntimeError(err.getvalue().strip())
    return out.getvalue()


def _json_part(flags, part):
    """One top-level block of a JSON report, re-indented."""
    report = json.loads(_cli(*flags.split(), "--format", "json"))
    return json.dumps(report[part], indent=1) + "\n"


def _shown(entry, show=lambda value: value):
    """A batch entry: an error as its type and message, else shown."""
    return f"{type(entry).__name__}: {entry}" if isinstance(entry, Exception) else show(entry)


def _plans():
    """Each seed's y, za, b and reason per run, then (a, d) pairs' truncations."""
    def show(run, config):
        for s in qzeta.plan_seeds(config)[0]:
            yield [run, s.y.hex(), s.za.real.hex(), s.za.imag.hex(), s.b, s.reason]

    for seed in range(1, 6):
        for a, d in workloads.sweep_inputs(seed):
            yield from show([seed, a.hex(), d.hex()],
                            qzeta.RunConfig(a=a, d=d, y_max=workloads.SWEEP_Y_MAX))
    # at y = 1e-9, 3/2 + iy lies 1/2 from the zeta pole; 200.5 is out of range
    for run in [dict(a=1e308, y_max=15.0), dict(a=0.5, d=0.01, y_max=15.0),
                dict(a=1e-3, d=1.0, y_max=15.0), dict(a=1e17, y_max=15.0),
                dict(y_max=None, y_list=(14.134725141984639, 250.0)),
                dict(y_max=None, y_list=(1e-9, 0.3, 3.0, 199.9, 200.5))]:
        yield from show(repr(run), qzeta.RunConfig(**run))
    # every outcome: a b, an estimate not finite, no term, the cap, an overflow
    grid = [1.0, 14.0, 48.0, 100.0]
    for a, d, tops in [(1.0, 1e4, grid), (0.01, 1.0, grid), (1e8, 1.0, grid),
                       (3000.0, 1.0, grid), (750.0, 2.0, grid), (1e-3, 1e-3, grid),
                       (1e-30, 1e35, grid), (1e12, 1.0, grid), (1e-300, 1e-300, [1e10])]:
        yield [a, d, list(map(_shown, qzeta.select_truncation(a, d, tops)))]


def _planning_rule():
    """Per planning call, its entries or the error that fails the whole call:
    a failed top passes through ``select_truncation``, and an argument no
    seed could have raises."""
    failed = qzeta.RangeUnsupported("planned")
    show = lambda v: [v.real.hex(), v.imag.hex()] if isinstance(v, complex) else v  # noqa: E731
    for step, args in [(qzeta.select_truncation, (750.0, 2.0, [14.15, failed, 37.0])),
                       (qzeta.select_truncation, (-1.0, 2.0, [1.0])),
                       (qzeta.select_truncation, (750.0, 2.0, [float("inf")])),
                       (qzeta.linear_approximation, ([14.1347, 0.0], 750.0, 2.0))]:
        try:
            entries = [_shown(entry, show) for entry in step(*args)]
        except Exception as exc:  # listed as the call's row
            entries = _shown(exc)
        yield [step.__name__, repr(args), entries]


def _hardy_z():
    grid = [5.0 + 195.0 * i / 399 for i in range(400)]
    columns = [[z for i in range(0, 400, size) for z in qzeta.hardy_z(grid[i:i + size]).tolist()]
               for size in (400, 7, 1)]
    for t, *values in zip(grid, *columns):
        yield [t.hex()] + [z.hex() for z in values]


def _series():
    # along paper9's zeros: Re k from 0 to 3.6 as Im k goes from 12 to 48
    grid = np.array([complex(0.1 * i, 12.0 + i) for i in range(37)])
    for b in (15, 20):
        params = qzeta.SharpParams(750.0, 2.0, b)
        columns = [np.concatenate([qzeta.evaluate(params, grid[i:i + size])
                                   for i in range(0, 37, size)]).tolist()
                   for size in (37, 17, 8, 1)]
        for k, *values in zip(grid.tolist(), *columns):
            yield [b, k.real.hex(), k.imag.hex()] + [[v.real.hex(), v.imag.hex()] for v in values]


def _triple():
    # 200 ordinates in (0, 200) and six at or past the eta evaluator's edges
    grid = [200.0 * i / 201 for i in range(1, 201)]
    grid += [0.0, -14.1347, 1e-300, 200.5, 250.0, float("nan")]
    columns = [qzeta.zeta_plus_triple(grid), [qzeta.zeta_plus_triple([y])[0] for y in grid]]
    hexes = lambda values: [x.hex() for v in values for x in (v.real, v.imag)]  # noqa: E731
    for y, *entries in zip(grid, *columns):
        yield [y.hex()] + [_shown(entry, hexes) for entry in entries]


def _generic():
    inputs = workloads.generic_inputs(1)
    for r in qzeta.run_variants([t for t, _, _ in inputs], [(y, za) for _, y, za in inputs]):
        de = r.de.hex() if r.de is not None else None
        yield [r.z.real.hex(), r.z.imag.hex(), de, r.verdict.value, len(r.trace_log)]
        for res in (attempt.result for attempt in r.trace_log):
            yield [res.char.hex(), res.fo, res.vv.hex(), res.abs_estimate.hex(),
                   res.z_estimate.real.hex(), res.z_estimate.imag.hex(),
                   [angle.hex() for _, angle in res.trace.display_rows()],
                   len(res.trace.samples)]


# (a, d) from a/d = 50 to 6000 at the default y_max: below a/d = 375 most
# higher zeros fail in planning (pole line), above it in the search; then two
# runs with a seed just below the pole line
REGIME_GRID = [
    *[dict(a=a, d=d) for a, d in [
        (100.0, 2.0), (200.0, 2.0), (300.0, 2.0), (750.0, 4.0), (500.0, 2.0), (750.0, 2.0),
        (1500.0, 4.0), (1500.0, 2.0), (750.0, 1.0), (2000.0, 2.0), (3000.0, 2.0),
        (750.0, 0.5), (12000.0, 2.0)]],
    dict(a=100.0, d=1.0, y_max=60.0),
    dict(a=300.0, d=0.5, y_max=100.0),
]


def _regimes():
    """Per zero of each grid run: its index, verdict, integrations and reason."""
    for run in REGIME_GRID:
        result = qzeta.execute(qzeta.RunConfig(**run))
        for seed, r in zip(result.seeds, result.records):
            yield [run, seed.index, r.verdict.value, len(r.trace_log), r.reason]


# values that RunConfig rejects, then a bad type, a bad target and a
# seed-flag clash; tests/test_cli.py::test_config_error_exit_two runs each
BAD_COMMAND_LINES = [
    "--y 0", "--y -5", "--c 2", "--d 0", "--a inf", "--y-max 0", "--y-max -3", "--y-max nan",
    "--y-max inf", "--y-max 150", "--target poly:1 --y 2", "--c 65", "--target poly:inf,1 --y 2",
    "--target poly:1,nan --y 2",
    "--c two", "--c 9,6", "--target spline", "--target poly:one,two", "--y 14.2 --y-max 30",
]


def _bad_command_lines():
    """Each bad command line's exit status, whether argparse exits or ``main``
    returns it, and its last stderr line."""
    for flags in BAD_COMMAND_LINES:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                status = cli.main(flags.split())
            except SystemExit as exc:
                status = exc.code
        yield [flags, status, err.getvalue().splitlines()[-1]]


JSON_PARTS = [
    ("", "zeros"),
    ("", "config"),
    ("--a 500 --d 3 ", "zeros"),  # seeds above the pole line
    ("--c 5 ", "zeros"),  # a zero that ends good only
    ("--y-max 100 ", "zeros"),  # twenty seeds above the pole line after nine
    ("--a 2000 ", "zeros"),  # searches that log their last integration again
    ("--a 3000 ", "zeros"),
    ("--target poly:1,-1-2j --y 2 ", "zeros"),  # a polynomial target
    ("--target poly:1e308,1 --y 2 ", "zeros"),  # f not finite on the contour
]
SECTIONS = [
    *[(f"`qzeta {flags}--format json`, its `{part}`", functools.partial(_json_part, flags, part))
      for flags, part in JSON_PARTS],
    *[(f"`qzeta {flags}--format csv`", functools.partial(_cli, *flags.split(), "--format", "csv"))
      for flags in ["", "--a 1e308 --y-max 15 ", "--target poly:1e308,1 --y 2 "]],
    ("`qzeta`, the text report", _cli),
    ("`qzeta --a 2000`, the text report", functools.partial(_cli, "--a", "2000")),
    ("seed plans and `select_truncation` outcomes", _plans),
    ("planning rule: a failed entry passes through, a bad argument raises", _planning_rule),
    ("`hardy_z` on 400 ordinates, in one block, in blocks of 7 and alone", _hardy_z),
    ("`zeta_plus_triple` on 206 ordinates, in one batch and alone", _triple),
    ("`series.evaluate` at a = 750, d = 2, b = 15 and 20 on 37 points, in one call, "
     "in calls of 17 and of 8 and alone", _series),
    ("generic records and integrations (`workloads.generic_inputs(1)`)", _generic),
    ("verdicts on the regime grid, per zero", _regimes),
    ("bad command lines: exit status and last stderr line", _bad_command_lines),
]


def listing():
    """Every section, each under its ``### <label>`` line."""
    global np, qzeta, workloads, cli  # imported here, as the comparison needs none
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import numpy as np
    import qzeta
    import workloads
    from qzeta import cli

    parts = []
    for label, section in SECTIONS:
        try:
            body = section()
            if not isinstance(body, str):  # the rows of a Python listing
                body = "".join(json.dumps(row) + "\n" for row in body)
        except Exception as exc:  # listed in place; the other sections still run
            body = f"error: {type(exc).__name__}: {exc}\n"
        parts.append(f"### {label}\n{body}")
    return "".join(parts)


def _sections(text):
    """label -> body of a listing."""
    parts = re.split(r"^### (.*)\n", text, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def compare(base, head):
    """The Markdown summary of two listings, section by section."""
    base, head = _sections(base), _sections(head)
    lines = ["### Outputs against the base commit"]
    for label in dict.fromkeys([*head, *base]):
        old, new = base.get(label, ""), head.get(label, "")
        failed = "; a side lists an error" if "error: " in (old[:7], new[:7]) else ""
        if old == new:
            lines.append(f"- {label}: identical{failed}")
            continue
        diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "base", "head",
                                    lineterm="", n=0)
        lines += [f"- {label}: differs{failed}; the first 12 lines of the diff:",
                  "```", *list(diff)[:12], "```"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.stdout.write(compare(*(Path(p).read_bytes().decode() for p in sys.argv[1:])))
    else:
        sys.stdout.buffer.write(listing().encode())
