"""q-deformed zeta zeros: series evaluation, first-order zero prediction,
and rigorous localization by adaptive argument-principle search.

The package evaluates a q-deformation of the Riemann zeta whose zeros, for
q = exp(-1/a) near 1, shadow the classical critical-line zeros inside a
horizontal strip.  Starting from a first-order prediction built out of
Dirichlet-eta values, each zero is localized by contour integrations over
shrinking rectangles (winding count, gap diagnostics, first-moment zero
estimate) and optionally polished by Newton steps.  The contour machinery
works for any analytic function supplied as a plain callable.
"""

from .errors import (
    DegenerateDenominator,
    DerivativeNearZero,
    InsufficientHistory,
    NonFiniteResult,
    PoleAtOne,
    QZetaError,
    RangeUnsupported,
    SearchFailed,
    UsageError,
    ZeroOnContour,
)
from .pipeline import RunConfig, RunResult, Seed, execute, plan_seeds
from .report import emit_json, emit_plot_data, emit_text_report
from .search import (
    Assessment,
    IntegrationAttempt,
    SearchConfig,
    SearchState,
    Verdict,
    ZeroRecord,
    assess,
    estimate_de,
    initial_rectangle,
    locate_zero,
    newton_refine,
    run_variants,
    step_policy,
)
from .series import (
    SharpFunction,
    SharpParams,
    evaluate,
    linear_approximation,
    select_truncation,
    term_ratio,
)
from .special import (
    REFERENCE_ZEROS,
    classical_zeros,
    hardy_z,
    riemann_zeta,
    zeta_plus,
    zeta_plus_derivative,
)
from .winding import (
    BoundaryTrace,
    IntegrationResult,
    Rectangle,
    compute_char,
    compute_fo,
    fo_from_angles,
    integrate,
    moment_zero_estimate,
    refine_trace,
    sample_boundary,
)

__version__ = "0.1.0"

# The series kernel is plain numpy; kept as a name because benchmark
# records include it.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    # errors
    "QZetaError",
    "PoleAtOne",
    "RangeUnsupported",
    "DegenerateDenominator",
    "NonFiniteResult",
    "DerivativeNearZero",
    "ZeroOnContour",
    "InsufficientHistory",
    "SearchFailed",
    "UsageError",
    # special functions
    "REFERENCE_ZEROS",
    "riemann_zeta",
    "zeta_plus",
    "zeta_plus_derivative",
    "hardy_z",
    "classical_zeros",
    # series
    "SharpParams",
    "SharpFunction",
    "term_ratio",
    "evaluate",
    "select_truncation",
    "linear_approximation",
    # winding engine
    "Rectangle",
    "BoundaryTrace",
    "IntegrationResult",
    "sample_boundary",
    "refine_trace",
    "compute_char",
    "compute_fo",
    "fo_from_angles",
    "moment_zero_estimate",
    "integrate",
    # search
    "SearchConfig",
    "SearchState",
    "Assessment",
    "Verdict",
    "ZeroRecord",
    "IntegrationAttempt",
    "initial_rectangle",
    "assess",
    "step_policy",
    "estimate_de",
    "newton_refine",
    "locate_zero",
    "run_variants",
    # pipeline and reports
    "RunConfig",
    "RunResult",
    "Seed",
    "plan_seeds",
    "execute",
    "emit_text_report",
    "emit_json",
    "emit_plot_data",
]
