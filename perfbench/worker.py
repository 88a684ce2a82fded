#!/usr/bin/env python3
"""Timed worker process: runs one workload's repetitions and prints one JSON
line with per-repetition timings, outputs and (when traced) spans.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; never meant to be run by hand.

* ``generic`` / ``sweep``: one warm-up repetition, then repetitions until
  ``--seconds`` have passed (at least ``MIN_REPS``).  Each repetition
  reports its interval on the shared monotonic clock and its CPU time, so
  ``run.py`` can relate it to its calibration thread.  With ``--trace 1``
  every second repetition is traced, so the untraced ones give the tracing
  overhead.
* ``paper9`` (traced repetitions only): install the tracer, run the CLI
  once, report its spans.  Untraced ``paper9`` repetitions are plain
  ``python3 -m qzeta.cli`` processes started by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import qzeta
import workloads

MIN_REPS = 4


def generic_unit(seed: int, tracer):
    inputs = workloads.generic_inputs(seed)
    targets = [t for t, _, _ in inputs]
    seeds = [(y, za) for _, y, za in inputs]
    counted = [tracer.counted(t) for t in targets] if tracer else None

    def run(traced: bool):
        records = qzeta.run_variants(counted if traced else targets, seeds)
        return [[r.z.real, r.z.imag, r.de, r.verdict.value] for r in records]

    return run


def sweep_unit(seed: int, tracer):
    pairs = workloads.sweep_inputs(seed)

    def run(traced: bool):
        plans = []
        for a, d in pairs:
            seeds, _ = qzeta.plan_seeds(qzeta.RunConfig(a=a, d=d, y_max=workloads.SWEEP_Y_MAX))
            plans.append([[s.y, s.za.real, s.za.imag] for s in seeds])
        return plans

    return run


def loop(unit, tracer, seconds: float) -> list[dict]:
    reps = []
    unit(False)  # warm-up: library users run in a long-lived process
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.rep = len(reps)
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs, aborted = unit(traced), None
        except qzeta.QZetaError as exc:
            outputs, aborted = None, f"{type(exc).__name__}: {exc}"
        t1, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        reps.append({"t0": t0, "t1": t1, "cpu_s": cpu1 - cpu0, "traced": traced,
                     "outputs": outputs, "aborted": aborted})
    return reps


def paper9_traced(tracer, rep: int, out: str) -> int:
    """The CLI run under the tracer; returns the CLI's exit status."""
    from qzeta import cli

    tracer.rep = rep
    tracer.install()
    try:
        return cli.main(workloads.PAPER9_ARGS + [out])
    finally:
        tracer.uninstall()


def main(args) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(qzeta.__file__).resolve().parents:
        print(f"qzeta imported from {qzeta.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    code = 0
    if args.workload == "paper9":
        code, result = paper9_traced(tracer, args.rep, args.out), {}
    else:
        unit = {"generic": generic_unit, "sweep": sweep_unit}[args.workload](args.seed, tracer)
        result = {"reps": loop(unit, tracer, args.seconds)}
    result["trace"] = tracer.export() if tracer else None
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="benchmark worker (see run.py)")
    parser.add_argument("--workload", choices=("paper9", "generic", "sweep"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--out", default=None)
    sys.exit(main(parser.parse_args()))
