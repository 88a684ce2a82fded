"""The public API: every name declared once, in its submodule's ``__all__``,
and loaded with its submodule on first use, so that ``import qzeta`` and the
contour engine never import numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta

SRC = Path(qzeta.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

README_SNIPPET = """\
from qzeta import Rectangle, integrate

result = integrate(lambda k: (k - 1j) * (k - 5), Rectangle(1j, 0.5, 0.3), 6)
assert abs(result.char) < 1e-9 and abs(result.z_estimate - 1j) < 1e-3
"""

GENERIC_RUN = f"""\
sys.path.insert(0, {str(PERFBENCH)!r})
import qzeta
import workloads

inputs = workloads.generic_inputs(1)
records = qzeta.run_variants([t for t, _, _ in inputs], [(y, za) for _, y, za in inputs])
assert len(records) == len(inputs)
"""

SUBMODULES = ["errors", "special", "series", "winding", "search", "pipeline", "report"]


def _last_line(script: str) -> str:
    """Run script in a fresh interpreter (sys imported) and return the last
    line it printed."""
    process = subprocess.run(
        [sys.executable, "-c", "import sys\n" + script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout.strip().splitlines()[-1]


def _numpy_after(script: str, block_numpy: bool) -> str:
    """Run script in a fresh interpreter and return what it left under
    sys.modules["numpy"]; with block_numpy, any numpy import raises."""
    prologue = 'sys.modules["numpy"] = None\n' if block_numpy else ""
    epilogue = '\nprint(repr(sys.modules.get("numpy", "absent")))\n'
    return _last_line(prologue + script + epilogue)


@pytest.mark.parametrize("block_numpy", [False, True])
@pytest.mark.parametrize(
    "script",
    ["import qzeta\n", README_SNIPPET, GENERIC_RUN],
    ids=["import", "readme-integrate", "generic-run-variants"],
)
def test_contour_engine_loads_no_numpy(script, block_numpy):
    assert _numpy_after(script, block_numpy) == ("None" if block_numpy else "'absent'")


def _loads(script: str, module: str) -> bool:
    """Whether script, run in a fresh interpreter, leaves module loaded."""
    return _last_line(f"{script}print({module!r} in sys.modules)\n") == "True"


@pytest.mark.parametrize("module", ["dataclasses", "csv"])
def test_cli_import_loads_no_generated_records_or_csv(module):
    # the CLI's record classes are written out, and csv loads only with the
    # CSV report; a module that numpy itself loads cannot be checked
    if _loads("import numpy\n", module):
        pytest.skip(f"import numpy alone loads {module}")
    assert not _loads("import qzeta.cli\n", module)


def test_series_still_loads_numpy():
    assert _numpy_after("import qzeta\nqzeta.SharpParams\n", False).startswith("<module")


RESOLVES_LIKE_ITS_SUBMODULE = f"""\
import importlib
import qzeta

submodules = {SUBMODULES!r}
assert not any(f"qzeta.{{m}}" in sys.modules for m in submodules)
for name in qzeta.__all__[2:]:  # after BACKEND and __version__
    value = getattr(qzeta, name)
    owner = next(m for m in submodules
                 if hasattr(importlib.import_module(f"qzeta.{{m}}"), name))
    assert getattr(sys.modules[f"qzeta.{{owner}}"], name) is value, name
for m in submodules:
    assert getattr(qzeta, m) is sys.modules[f"qzeta.{{m}}"], m
"""


def test_every_public_name_is_its_submodules_object():
    # in a fresh interpreter, so each name goes through the first-use import
    _numpy_after(RESOLVES_LIKE_ITS_SUBMODULE, False)


def test_submodule_attribute_imports_it():
    # in a fresh interpreter, where the package has not imported it yet
    script = ('import qzeta\nassert "qzeta.series" not in sys.modules\n'
              'print(qzeta.series is sys.modules["qzeta.series"])\n')
    assert _last_line(script) == "True"


def test_all_lists_each_name_once_and_dir_covers_it():
    assert len(set(qzeta.__all__)) == len(qzeta.__all__)
    assert set(qzeta.__all__) | set(SUBMODULES) <= set(dir(qzeta))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qzeta import *", namespace)
    assert set(qzeta.__all__) <= set(namespace)
    assert namespace["integrate"] is qzeta.winding.integrate


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qzeta.no_such_name
    assert not hasattr(qzeta, "no_such_name")
    with pytest.raises(ImportError):
        exec("from qzeta import no_such_name", {})


def test_patch_and_restore_a_public_name():
    # how a tracer wraps a public name from outside and puts it back
    original = getattr(qzeta, "run_variants")
    assert original is qzeta.search.run_variants

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    setattr(qzeta, "run_variants", wrapper)
    try:
        assert qzeta.run_variants is wrapper
        namespace = {}
        exec("from qzeta import run_variants", namespace)
        assert namespace["run_variants"] is wrapper
    finally:
        setattr(qzeta, "run_variants", original)
    assert qzeta.run_variants is original
    assert qzeta.search.run_variants is original


@pytest.mark.parametrize("module", SUBMODULES)
def test_public_table_matches_each_submodule(module):
    submodule = importlib.import_module(f"qzeta.{module}")
    if module == "errors":  # its names are exactly its exception classes
        assert sorted(submodule.__all__) == sorted(
            name for name, value in vars(submodule).items()
            if isinstance(value, type) and issubclass(value, Exception)
        )
    assert set(submodule.__all__) <= set(qzeta.__all__)
    for name in submodule.__all__:
        assert getattr(qzeta, name) is getattr(submodule, name), name


def test_no_name_is_declared_by_two_submodules():
    declared = [
        name for module in SUBMODULES
        for name in importlib.import_module(f"qzeta.{module}").__all__
    ]
    assert len(set(declared)) == len(declared)
    assert sorted(qzeta.__all__) == sorted(["BACKEND", "__version__", *declared])


# The search's and the contour engine's steps, and the reference ordinates:
# their tests import them from the submodule that defines them.
SUBMODULE_ONLY = {
    "winding": ["fo_from_angles", "moment_zero_estimate"],
    "search": ["SearchState", "assess", "step_policy", "newton_refine", "initial_rectangle"],
    "special": ["REFERENCE_ZEROS"],
}


def test_package_exports_only_what_its_callers_use():
    assert len(qzeta.__all__) == 36
    for module, names in SUBMODULE_ONLY.items():
        submodule = importlib.import_module(f"qzeta.{module}")
        for name in names:
            assert hasattr(submodule, name) and name not in submodule.__all__, name
            assert not hasattr(qzeta, name), name


# Each value type: every field in signature order, a change to one field,
# and invalid fields with today's message.
VALUE_TYPES = [
    ("Rectangle", dict(center=1 + 2j, rd=0.5, rad=0.25), dict(rad=0.3), [
        (dict(rd=0.0), "rectangle half-dimensions must be positive"),
        (dict(rad=-1.0), "rectangle half-dimensions must be positive"),
    ]),
    ("SharpParams", dict(a=750.0, d=2.0, b=15), dict(b=20), [
        (dict(a=-1.0), "a must be positive and finite"),
        (dict(d=float("inf")), "d must be positive and finite"),
        (dict(b=0), "b must be a positive integer"),
        (dict(a=1.0, d=4.0, b=1), "truncation b*sqrt(a/d) keeps no terms"),
        (dict(a=1e12, d=1.0, b=5), "truncation b*sqrt(a/d) keeps more than 100000 terms"),
    ]),
    ("RunConfig",
     dict(a=500.0, d=3.0, y_max=30.0, y_list=None, poly_coefficients=(), c=5), dict(c=6), [
         (dict(y_max=None), "exactly one of y_max / y_list must be set"),
         (dict(poly_coefficients=(1j,)), "polynomial target needs at least two coefficients"),
         (dict(poly_coefficients=(1j, float("nan"))), "polynomial coefficients must be finite"),
         (dict(a=0.0), "a and d must be positive and finite"),
         (dict(d=float("inf")), "a and d must be positive and finite"),
         (dict(y_max=101.0), "y_max must be in (0, 100]"),
         (dict(y_max=None, y_list=(14.1, -1.0)),
          "every seed ordinate y must be positive and finite"),
         (dict(c=2), "c must be 3 or more points per side"),
     ]),
    ("Seed", dict(index=2, y=21.0, za=0.35 + 21.08j, b=15, reason=None), dict(reason="r"), []),
]


@pytest.mark.parametrize("name,fields,change,invalid", VALUE_TYPES,
                         ids=[v[0] for v in VALUE_TYPES])
def test_value_type_equality_repr_immutability_and_validation(name, fields, change, invalid):
    cls = getattr(qzeta, name)
    value = cls(**fields)
    twin = cls(*fields.values())  # the same fields, by position
    assert value == twin and hash(value) == hash(twin)
    assert value != cls(**{**fields, **change})
    text = repr(value)
    assert text.startswith(f"{name}(") and text.endswith(")")
    # another class with the same fields is never equal, not even a tuple
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert value != tuple(fields.values())
    for field in fields:
        assert f"{field}={getattr(value, field)!r}" in text
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == twin and hash(value) == hash(twin)
    for bad, message in invalid:
        with pytest.raises(ValueError) as error:
            cls(**{**fields, **bad})
        assert str(error.value) == message
