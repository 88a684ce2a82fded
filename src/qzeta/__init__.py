"""q-deformed zeta zeros: series evaluation, first-order zero prediction,
and rigorous localization by adaptive argument-principle search.

The package evaluates a q-deformation of the Riemann zeta whose zeros, for
q = exp(-1/a) near 1, shadow the classical critical-line zeros inside a
horizontal strip.  Starting from a first-order prediction built out of
Dirichlet-eta values, each zero is localized by contour integrations over
shrinking rectangles (winding count, gap diagnostics, first-moment zero
estimate) and optionally polished by Newton steps.  The contour machinery
works for any analytic function supplied as a plain callable.

Submodules load on first use (PEP 562): each public name is declared once,
in its submodule's ``__all__``, and a lookup imports the submodules in turn
until one declares it.  The error types and the contour engine (``winding``,
``search``) come first, so ``import qzeta`` and those names never import
numpy.
"""

import importlib

__version__ = "0.1.0"

# The series kernel is plain numpy; kept as a name because benchmark
# records include it.
BACKEND = "numpy"

# The submodules whose ``__all__`` the package re-exports, in lookup order.
_SUBMODULES = ("errors", "winding", "search", "special", "series", "pipeline", "report")


def _declared(module: str) -> list[str]:
    return importlib.import_module(f"{__name__}.{module}").__all__


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name == "__all__":
        value = ["BACKEND", "__version__", *(n for m in _SUBMODULES for n in _declared(m))]
    else:
        owner = next((m for m in _SUBMODULES if name in _declared(m)), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
