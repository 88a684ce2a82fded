"""q-deformed zeta zeros: series evaluation, first-order zero prediction,
and rigorous localization by adaptive argument-principle search.

The package evaluates a q-deformation of the Riemann zeta whose zeros, for
q = exp(-1/a) near 1, shadow the classical critical-line zeros inside a
horizontal strip.  Starting from a first-order prediction built out of
Dirichlet-eta values, each zero is localized by contour integrations over
shrinking rectangles (winding count, gap diagnostics, first-moment zero
estimate) and optionally polished by Newton steps.  The contour machinery
works for any analytic function supplied as a plain callable.

Submodules load on first use (PEP 562): the error types are bound at import,
every other public name imports its submodule when first looked up, so
``import qzeta`` and the contour engine (``winding``, ``search``) never
import numpy.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# The series kernel is plain numpy; kept as a name because benchmark
# records include it.
BACKEND = "numpy"

# Every public name, once, under the submodule that defines it.
_API = {
    "errors": (
        "QZetaError",
        "PoleAtOne",
        "RangeUnsupported",
        "DegenerateDenominator",
        "NonFiniteResult",
        "DerivativeNearZero",
        "ZeroOnContour",
        "UsageError",
    ),
    "special": (
        "REFERENCE_ZEROS",
        "riemann_zeta",
        "zeta_plus",
        "zeta_plus_derivative",
        "zeta_plus_triple",
        "hardy_z",
        "classical_zeros",
        "CLASSICAL_Y_MAX",
    ),
    "series": (
        "MAX_SERIES_TERMS",
        "SharpParams",
        "SharpFunction",
        "term_ratio",
        "evaluate",
        "select_truncation",
        "linear_approximation",
    ),
    "winding": (
        "AnalyticFunction",
        "Rectangle",
        "BoundaryTrace",
        "IntegrationResult",
        "compute_char",
        "compute_fo",
        "fo_from_angles",
        "moment_zero_estimate",
        "integrate",
    ),
    "search": (
        "escalation_schedule",
        "SearchState",
        "Assessment",
        "Verdict",
        "ZeroRecord",
        "IntegrationAttempt",
        "initial_rectangle",
        "assess",
        "step_policy",
        "newton_refine",
        "run_variants",
    ),
    "pipeline": ("RunConfig", "RunResult", "Seed", "plan_seeds", "execute"),
    "report": ("emit_text_report", "emit_json", "emit_plot_data"),
}
_OWNER = {name: module for module, names in _API.items() for name in names}
globals().update((name, getattr(errors, name)) for name in _API["errors"])

__all__ = ["BACKEND", "__version__", *_OWNER]


def __getattr__(name: str):
    if name in _API:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_API})
