"""Seed planning: each seed's truncation is chosen for the rectangle its
search opens."""

import importlib.util
from pathlib import Path

import pytest

import qzeta.pipeline
from qzeta import RunConfig, initial_rectangle, plan_seeds, select_truncation
from qzeta.search import KAPPA

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_truncation_region_is_the_opening_rectangle(monkeypatch):
    # at a = 1e5 the seed lies KAPPA*|za - iy| ~ 3.6e-4 from the classical
    # zero, below the 1e-3 floor of the opening half-width
    tops = []

    def spy(a, d, region_top):
        tops.append(region_top)
        return select_truncation(a, d, region_top)

    monkeypatch.setattr(qzeta.pipeline, "select_truncation", spy)
    config = RunConfig(a=1e5, d=2.0, y_max=None, y_list=(14.134725141984639,))
    (seed,), _ = plan_seeds(config)
    rect = initial_rectangle(seed.za, seed.y)
    assert KAPPA * abs(seed.za - 1j * seed.y) < 4e-4
    assert rect.rd == 1e-3
    assert tops == [rect.center.imag + rect.rd]
    assert seed.b == select_truncation(1e5, 2.0, tops[0])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_floor_leaves_the_sweep_plans(seed):
    """The benchmark sweep's seeds all lie above the floor, so their
    truncations are those of the unfloored half-width."""
    workloads = _workloads()
    for a, d in workloads.sweep_inputs(seed):
        config = RunConfig(a=a, d=d, y_max=workloads.SWEEP_Y_MAX)
        for s in plan_seeds(config)[0]:
            rd = min(0.5, KAPPA * abs(s.za - 1j * s.y))
            assert rd > 1e-3
            assert s.b == select_truncation(a, d, s.za.imag + rd)


def test_polynomial_run_is_set_by_its_coefficients():
    config = RunConfig(y_max=None, y_list=(2.0,), poly_coefficients=(1, -2j))
    assert config.target == "poly"
    assert RunConfig().target == "sharp"
    with pytest.raises(ValueError, match="two coefficients"):
        RunConfig(y_max=None, y_list=(2.0,), poly_coefficients=(1,))
