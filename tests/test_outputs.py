"""The listing that ``.github/outputs.py`` prints for the ``outputs-vs-base``
job runs on this tree, and its comparison reads a tree against itself."""

import importlib.util
import sys
from pathlib import Path

import pytest

import qzeta

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_section_listed_without_error(outputs, monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts perfbench/ on it
    text = outputs.listing()
    headers = [line for line in text.splitlines() if line.startswith("### ")]
    assert headers == [f"### {label}" for label, _ in outputs.SECTIONS]
    failed = [label for label, body in outputs._sections(text).items()
              if body.startswith("error:")]
    assert failed == []
    summary = outputs.compare(text, text).splitlines()
    assert summary[1:] == [f"- {label}: identical" for label, _ in outputs.SECTIONS]


# The seeds of each regime-grid run that fail in planning, predicted on or
# above the pole line; every other run plans all its seeds.  Which searched
# zeros end good or failed may move with numpy's dispatch level, so only the
# two runs whose nine zeros all end very good are pinned.
PLANNING_FAILURES = {
    (100.0, 2.0): range(2, 10),
    (200.0, 2.0): range(4, 10),
    (300.0, 2.0): range(5, 10),
    (750.0, 4.0): range(6, 10),
    (500.0, 2.0): range(7, 10),
    (100.0, 1.0, 60.0): range(4, 14),
    (300.0, 0.5, 100.0): range(15, 30),
}
ALL_VERY_GOOD = [(750.0, 2.0), (1500.0, 4.0)]


def test_regime_grid_planning_failures(outputs):
    runs = [tuple(run.values()) for run in outputs.REGIME_GRID]
    assert set(PLANNING_FAILURES) | set(ALL_VERY_GOOD) <= set(runs)
    for key, run in zip(runs, outputs.REGIME_GRID):
        result = qzeta.execute(qzeta.RunConfig(**run))
        planned_out = [seed for seed in result.seeds if seed.reason is not None]
        assert [seed.index for seed in planned_out] == list(PLANNING_FAILURES.get(key, [])), run
        for seed in planned_out:
            record = result.records[seed.index - 1]
            assert record.verdict is qzeta.Verdict.FAILED and record.trace_log == []
            assert record.reason == seed.reason
            assert " lies on or above the pole line Im k = 2*eps = " in seed.reason
        if key in ALL_VERY_GOOD:
            assert [r.verdict for r in result.records] == [qzeta.Verdict.VERY_GOOD] * 9
