"""In-memory span tracer that wraps qzeta's layer boundaries from outside.

The package imports names directly (``from .series import evaluate``), so a
wrapper has to replace each name in the namespace where it is looked up at
call time.  ``PATCHES`` lists those places.  Nothing under ``src/`` knows
about the tracer; ``install`` swaps the names in and ``uninstall`` restores
the originals.

A span is ``[name_id, start, end, parent, repetition]``; ``parent`` is the
index of the enclosing span or -1.  Counters are kept per repetition at the
same boundaries, from the arguments and results the wrappers see.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# (module, attribute, span name).  The span name is the layer that owns the
# function, which is not always the module the name is looked up in.
PATCHES = [
    ("qzeta.special", "hardy_z", "special.hardy_z"),
    ("qzeta.pipeline", "classical_zeros", "special.classical_zeros"),
    ("qzeta.pipeline", "linear_approximation", "series.linear_approximation"),
    ("qzeta.pipeline", "select_truncation", "series.select_truncation"),
    ("qzeta.series", "evaluate", "series.evaluate"),
    ("qzeta.search", "integrate", "winding.integrate"),
    ("qzeta.search", "newton_refine", "search.newton_refine"),
    ("qzeta.pipeline", "run_variants", "search.run_variants"),
    ("qzeta", "run_variants", "search.run_variants"),
    ("qzeta.pipeline", "plan_seeds", "pipeline.plan_seeds"),
    ("qzeta", "plan_seeds", "pipeline.plan_seeds"),
    ("qzeta.cli", "execute", "pipeline.execute"),
    ("qzeta.cli", "emit_json", "report.emit_json"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.rep = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._evals = 0  # analytic-function evaluations so far, in points
        self._hooks = {
            "series.evaluate": self._after_evaluate,
            "special.hardy_z": self._after_hardy_z,
            "winding.integrate": self._after_integrate,
            "search.newton_refine": self._after_newton,
            "search.run_variants": self._after_run_variants,
        }

    def count(self, key: str, n: float = 1) -> None:
        bucket = self.counts.setdefault(self.rep, {})
        bucket[key] = bucket.get(key, 0) + n

    def span(self, name: str, fn):
        """Wrap fn so each call records a span and feeds the layer's hook
        (arguments, result, evaluations made inside the call)."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index, evals = len(spans), self._evals
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1, self.rep])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(args, result, self._evals - evals)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, f):
        """Count evaluations of an analytic callable that has no span of
        its own (the generic workload's cheap targets)."""

        def wrapper(k):
            self._evals += 1
            return f(k)

        return wrapper

    # -- counters, one hook per layer boundary ---------------------------
    def _after_evaluate(self, args, result, evals):
        points = int(np.size(args[1]))
        self._evals += points
        self.count("series.evaluate_points", points)
        self.count("series.terms", points * args[0].n_terms)

    def _after_hardy_z(self, args, result, evals):
        self.count("special.hardy_z_calls")

    def _after_integrate(self, args, result, evals):
        self.count("winding.integrations")
        self.count("winding.samples", len(result.trace.samples))
        self.count("winding.evals", evals)

    def _after_newton(self, args, result, evals):
        self.count("search.newton_calls")
        self.count("search.newton_accepted", int(bool(result[1])))

    def _after_run_variants(self, args, result, evals):
        attempts = [a for record in result for a in record.trace_log]
        self.count("search.zeros", len(result))
        self.count("search.evals", evals)
        self.count("search.attempts", len(attempts))
        self.count("search.good", sum(a.assessment.value != "not_good" for a in attempts))
        self.count("search.zeros_past_variant1",
                   sum(max(r.variants_visited, default=1) > 1 for r in result))

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": {str(k): v for k, v in self.counts.items()}}


def self_times(spans: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (one thread, nested calls), so the
    covered time is the sum of their durations."""
    duration = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(spans))
    return duration - covered
