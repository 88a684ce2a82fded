#!/usr/bin/env python3
"""qzeta benchmark: time a workload, check every output against the oracle,
print the metrics.

    python3 perfbench/run.py --workload paper9|generic|sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A fuller record (environment, quartiles, sample counts) is written to
``perfbench/out/``; traced runs also write their spans there.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from clock import Metronome
from oracle import Oracle, Verdicts
from tracer import self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SETUP_SAMPLES = 9
# CPU time of a bare interpreter start (``python3 -c pass``) on the
# reference host, a 2-vCPU Xeon VM; setup_s is reported at this speed.
REFERENCE_START_S = 0.05
PAPER9_MIN_REPS = 4
CHILD_TIMEOUT_S = 120

# Per-layer metrics that must be non-zero on the workload meant to load
# them (a wrapper that silently stopped patching reads 0), and the counts
# that must repeat exactly between traced repetitions.
_SEARCH = ["winding.integrations", "winding.integrate_s", "winding.self_s",
           "winding.samples_per_integration", "winding.evals_per_integration",
           "search.run_variants_s", "search.self_s", "search.integrations_per_zero",
           "search.evals_per_zero", "search.good_ratio", "search.zeros_past_variant1",
           "search.newton_s", "search.newton_accept_ratio"]
_PLAN = ["special.classical_zeros_s", "special.hardy_z_calls", "special.hardy_z_us",
         "series.linear_approximation_s", "series.select_truncation_s", "pipeline.plan_seeds_s"]
LOADED_BY = {
    "paper9": _SEARCH + _PLAN + [
        "series.evaluate_points", "series.evaluate_s", "series.evaluate_us", "series.terms",
        "series.ns_per_term", "pipeline.execute_s", "report.emit_json_s"],
    "generic": _SEARCH,
    "sweep": _PLAN,
}
EXACT_COUNTS = ["series.terms", "series.evaluate_points", "special.hardy_z_calls",
                "winding.integrations"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(cmd: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
    """Run a child to completion; returns it with its interval on the
    monotonic clock and its CPU time."""
    cpu0, t0 = _children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    t1, cpu1 = time.perf_counter(), _children_cpu()
    return proc, {"t0": t0, "t1": t1, "cpu_s": cpu1 - cpu0}


def measure_setup() -> list[float]:
    """Cold interpreter start plus ``import qzeta``, after one unmeasured
    start that leaves the bytecode cache warm.  Each sample is the child's
    CPU time divided by that of a bare interpreter start run just before it,
    times REFERENCE_START_S: process starts slow down together when the
    host does, which the calibration loop tracks less well (3% against 7%
    spread between runs, measured on the reference host)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        bare, bare_timing = run_child([sys.executable, "-c", "pass"])
        proc, timing = run_child([sys.executable, "-c", "import qzeta"])
        if proc.returncode != 0 or bare.returncode != 0:
            raise RuntimeError(f"interpreter start failed:\n{bare.stderr}{proc.stderr}")
        if i:
            samples.append(timing["cpu_s"] / bare_timing["cpu_s"] * REFERENCE_START_S)
    return samples


# -- workloads ------------------------------------------------------------

def run_paper9(seconds: float, trace: bool, oracle: Oracle) -> tuple[list[dict], list[dict]]:
    """The CLI reference run, one fresh interpreter per repetition; with
    trace, every second repetition runs under the tracer."""
    reps, exports = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < PAPER9_MIN_REPS or time.perf_counter() < deadline:
        index = len(reps)
        traced = trace and index % 2 == 1
        out = OUT / "paper9-report.json"
        out.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "paper9",
                   "--trace", "1", "--rep", str(index), "--out", str(out)]
        else:
            cmd = [sys.executable, "-m", "qzeta.cli", *workloads.PAPER9_ARGS, str(out)]
        proc, timing = run_child(cmd)
        # exit 1 is the CLI's "some zero failed"; the report says which
        finished = proc.returncode in (0, 1) and out.exists()
        if traced:
            finished = finished and bool(proc.stdout.strip())
        if finished:
            verdicts = oracle.check_paper9(json.loads(out.read_text()))
        else:
            verdicts = Verdicts(attempted=workloads.PAPER9_ZEROS, problems=[
                f"paper9 repetition {index} aborted (exit {proc.returncode}): "
                f"{proc.stderr.strip()[-500:]}"])
        if traced and finished:
            exports.append(json.loads(proc.stdout.strip().splitlines()[-1])["trace"])
        reps.append({**timing, "traced": traced, "verdicts": verdicts})
    return reps, exports


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               oracle: Oracle) -> tuple[list[dict], list[dict]]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc, _ = run_child(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if workload == "generic":
        roots = [t.r for t, _, _ in workloads.generic_inputs(seed)]
        check = lambda outputs: oracle.check_generic(roots, outputs)  # noqa: E731
        attempted = len(roots)
    else:
        pairs = workloads.sweep_inputs(seed)
        check = lambda outputs: oracle.check_sweep(pairs, outputs)  # noqa: E731
        attempted = len(pairs) * len(oracle.sweep)
    for rep in result["reps"]:
        outputs, aborted = rep.pop("outputs"), rep.pop("aborted")
        if aborted is None:
            rep["verdicts"] = check(outputs)
        else:
            rep["verdicts"] = Verdicts(attempted=attempted, problems=[aborted])
    return result["reps"], [result["trace"]] if trace else []


# -- metrics --------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# End-to-end metrics reported in the final JSON line.  run_s and
# max_abs_err are printed and recorded too, but raw wall time follows the
# host's speed drift and the largest absolute error follows which seeds
# drew large |z|, so changes are judged on run_rel and max_rel_err.
GATED = ["run_rel", "setup_s", "peak_rss_mb", "zeros_ok_frac", "err_bar_hold_frac",
         "max_rel_err"]


def end_to_end(reps: list[dict], setup: list[float]) -> dict[str, tuple[str, list[float]]]:
    """Per-repetition samples of every end-to-end metric, with units."""
    untraced = [r for r in reps if not r["traced"]]
    v = [r["verdicts"] for r in reps]
    attempted = sum(x.attempted for x in v)
    bars = sum(x.bars for x in v)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "run_s": ("s", [r["t1"] - r["t0"] for r in untraced]),
        "run_rel": ("ratio", [r["rel"] for r in untraced]),
        "setup_s": ("s", setup),
        "peak_rss_mb": ("MB", [peak]),
        "zeros_ok_frac": ("frac", [sum(x.ok for x in v) / attempted]),
        "err_bar_hold_frac": ("frac", [sum(x.bars_held for x in v) / bars if bars else 0.0]),
        "max_abs_err": ("abs", [max(x.max_abs_err for x in v)]),
        "max_rel_err": ("rel", [max(x.max_rel_err for x in v)]),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(exports: list[dict]) -> dict[str, list[float]]:
    """One value per traced repetition for every per-layer metric."""
    per_rep: list[dict[str, float]] = []
    for export in exports:
        names = export["names"]
        spans = np.asarray(export["spans"], dtype=float).reshape(-1, 5)
        own = self_times(spans)
        duration = spans[:, 2] - spans[:, 1]
        reps = {int(k) for k in export["counts"]} | set(spans[:, 4].astype(int).tolist())
        for rep in sorted(reps):
            in_rep = spans[:, 4] == rep
            counts = export["counts"].get(str(rep), {})

            def total(name, values=duration):
                if name not in names:
                    return 0.0
                return float(values[in_rep & (spans[:, 0] == names.index(name))].sum())

            c = lambda key: float(counts.get(key, 0))  # noqa: E731
            integrations = c("winding.integrations")
            zeros = c("search.zeros")
            points = c("series.evaluate_points")
            per_rep.append({
                "special.classical_zeros_s": total("special.classical_zeros"),
                "special.hardy_z_calls": c("special.hardy_z_calls"),
                "special.hardy_z_us": 1e6 * _ratio(total("special.hardy_z"),
                                                   c("special.hardy_z_calls")),
                "series.linear_approximation_s": total("series.linear_approximation"),
                "series.select_truncation_s": total("series.select_truncation"),
                "series.evaluate_points": points,
                "series.evaluate_s": total("series.evaluate"),
                "series.evaluate_us": 1e6 * _ratio(total("series.evaluate"), points),
                "series.terms": c("series.terms"),
                "series.ns_per_term": 1e9 * _ratio(total("series.evaluate"), c("series.terms")),
                "winding.integrations": integrations,
                "winding.integrate_s": total("winding.integrate"),
                "winding.self_s": total("winding.integrate", own),
                "winding.samples_per_integration": _ratio(c("winding.samples"), integrations),
                "winding.evals_per_integration": _ratio(c("winding.evals"), integrations),
                "search.run_variants_s": total("search.run_variants"),
                "search.self_s": total("search.run_variants", own),
                "search.integrations_per_zero": _ratio(integrations, zeros),
                "search.evals_per_zero": _ratio(c("search.evals"), zeros),
                "search.good_ratio": _ratio(c("search.good"), c("search.attempts")),
                "search.zeros_past_variant1": c("search.zeros_past_variant1"),
                "search.newton_s": total("search.newton_refine"),
                "search.newton_accept_ratio": _ratio(c("search.newton_accepted"),
                                                     c("search.newton_calls")),
                "pipeline.plan_seeds_s": total("pipeline.plan_seeds"),
                "pipeline.execute_s": total("pipeline.execute"),
                "report.emit_json_s": total("report.emit_json"),
            })
    return {key: [rep[key] for rep in per_rep] for key in per_rep[0]} if per_rep else {}


LAYER_UNITS = {"_calls": "count", "_points": "count", ".terms": "count",
               ".integrations": "count", "_variant1": "count", "_us": "us", "_s": "s",
               "ns_per_term": "ns"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


def self_check(workload: str, layers: dict[str, list[float]]) -> list[str]:
    problems = []
    for name in LOADED_BY[workload]:
        values = layers.get(name, [])
        if not values or min(values) <= 0:
            problems.append(f"{name} is {values} on {workload}, the workload that loads it")
    for name in EXACT_COUNTS:
        values = layers.get(name, [])
        if len(values) < 2 or len(set(values)) != 1:
            problems.append(f"{name} differs between traced repetitions: {values}")
    return problems


# -- main -----------------------------------------------------------------

def environment(reps: list[dict]) -> dict:
    import qzeta

    return {
        "backend": qzeta.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "calibration_chunk_s": statistics.median(r["chunk_s"] for r in reps),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper9", "generic", "sweep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qzeta" / "__init__.py").is_file():
        print(f"no qzeta package under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    # Calibration and work must share one CPU: the host's slow phases
    # differ between CPUs.  Threads and child processes started from here
    # inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    oracle = Oracle()
    trace = bool(args.trace)

    with Metronome() as clock:
        setup = measure_setup()
        if args.workload == "paper9":
            reps, exports = run_paper9(args.seconds, trace, oracle)
        else:
            reps, exports = run_worker(args.workload, args.seed, args.seconds, trace, oracle)
        for r in reps:
            r["chunk_s"] = clock.cost(r["t0"], r["t1"])
            r["rel"] = r["cpu_s"] / r["chunk_s"]
    e2e = end_to_end(reps, setup)
    layers = layer_metrics(exports)
    if trace:
        traced = statistics.median(r["rel"] for r in reps if r["traced"])
        layers["trace.overhead_frac"] = [traced / statistics.median(e2e["run_rel"][1]) - 1.0]
    env = environment(reps)
    verdicts = [r["verdicts"] for r in reps]
    attempted = sum(v.attempted for v in verdicts)
    failed = attempted - sum(v.ok for v in verdicts)
    problems = [p for v in verdicts for p in v.problems]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} repetitions={len(reps)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    summary = {}
    for name, (unit, values) in e2e.items():
        summary[name] = {"unit": unit, **quartiles(values), "samples": values}
        q = summary[name]
        print(f"  {name:<20} {q['median']:.6g} {unit}  (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, "
              f"n={q['n']})")
    misses = [v.bars - v.bars_held for v in verdicts]
    print(f"  zeros attempted {attempted}, failed {failed}; "
          f"err_bar_misses per repetition: {sorted(set(misses))}")
    for name, values in layers.items():
        print(f"  {name:<34} {statistics.median(values):.6g} {layer_unit(name)}  "
              f"(n={len(values)})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "err_bar_misses": misses, "end_to_end": summary,
              "per_layer": {k: quartiles(v) for k, v in layers.items()},
              "problems": problems[:200]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if exports:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(exports) + "\n")

    if trace:
        broken = self_check(args.workload, layers)
        if broken:
            for line in broken:
                print(f"tracer self-check failed: {line}", file=sys.stderr)
            return 3
        metrics = {name: {"value": statistics.median(values), "unit": layer_unit(name)}
                   for name, values in layers.items()}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": e2e[name][0]}
                   for name in GATED}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
