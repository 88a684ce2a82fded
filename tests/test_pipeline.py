"""Seed planning: each seed's truncation is chosen for the rectangle its
search opens."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qzeta.pipeline
from qzeta import (
    RunConfig,
    emit_json,
    execute,
    linear_approximation,
    plan_seeds,
    select_truncation,
)
from qzeta.search import KAPPA, initial_rectangle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    """The benchmark module ``perfbench/<name>.py``, loaded as it is."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve():
    # the benchmark's tracer wraps each name where the package looks it up
    # at call time; a name moved away from there would go untraced
    for module, attribute, _ in _perfbench("tracer").PATCHES:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute}"
        )


def test_truncation_region_is_the_opening_rectangle(monkeypatch):
    # at a = 1e5 the seed lies KAPPA*|za - iy| ~ 3.6e-4 from the classical
    # zero, below the 1e-3 floor of the opening half-width
    tops = []

    def spy(a, d, region_tops):
        tops.extend(region_tops)
        return select_truncation(a, d, region_tops)

    monkeypatch.setattr(qzeta.pipeline, "select_truncation", spy)
    config = RunConfig(a=1e5, d=2.0, y_max=None, y_list=(14.134725141984639,))
    (seed,), _ = plan_seeds(config)
    rect = initial_rectangle(seed.za, seed.y)
    assert KAPPA * abs(seed.za - 1j * seed.y) < 4e-4
    assert rect.rd == 1e-3
    assert tops == [rect.center.imag + rect.rd]
    assert [seed.b] == select_truncation(1e5, 2.0, tops)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_floor_leaves_the_sweep_plans(seed):
    """The benchmark sweep's seeds all lie above the floor, so their
    truncations are those of the unfloored half-width.  The plan predicts
    and truncates all seeds together; each seed's prediction is bitwise the
    one a batch of its ordinate alone gives."""
    workloads = _perfbench("workloads")
    for a, d in workloads.sweep_inputs(seed):
        config = RunConfig(a=a, d=d, y_max=workloads.SWEEP_Y_MAX)
        for s in plan_seeds(config)[0]:
            [za] = linear_approximation([s.y], a, d)
            assert (s.za.real.hex(), s.za.imag.hex()) == (za.real.hex(), za.imag.hex())
            rd = min(0.5, KAPPA * abs(s.za - 1j * s.y))
            assert rd > 1e-3
            assert [s.b] == select_truncation(a, d, [s.za.imag + rd])


def test_overflowing_truncation_fails_its_seeds():
    # at a = 1e-300 the predictions lie near 1e301i, and region_top/(2a)
    # overflows in the truncation estimate
    seeds, functions = plan_seeds(RunConfig(a=1e-300, y_max=22.0))
    assert functions == [None, None]
    for s in seeds:
        assert s.reason.startswith(
            "RangeUnsupported: truncation estimate not finite for a=1e-300, d=2, "
        )


def test_polynomial_run_is_set_by_its_coefficients():
    config = RunConfig(y_max=None, y_list=(2.0,), poly_coefficients=(1, -2j))
    assert config.target == "poly"
    assert RunConfig().target == "sharp"
    with pytest.raises(ValueError, match="two coefficients"):
        RunConfig(y_max=None, y_list=(2.0,), poly_coefficients=(1,))


@given(
    a=st.floats(10.0, 1e4),
    d=st.floats(0.1, 10.0),
    y=st.floats(5.0, 100.0),
    c=st.integers(3, 5),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_searched_seed_ends_in_a_report(a, d, y, c):
    # one seed from planning through the search to the JSON report, which
    # parses whatever the verdict
    result = execute(RunConfig(a=a, d=d, y_max=None, y_list=(y,), c=c))
    assert len(result.records) == 1
    (zero,) = json.loads(emit_json(result))["zeros"]
    assert zero["verdict"] == result.records[0].verdict.value
