"""The listing that ``.github/outputs.py`` prints for the ``outputs-vs-base``
job runs on this tree, and its comparison reads a tree against itself."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "outputs.py"


def test_every_section_listed_without_error(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    text = outputs.listing()
    headers = [line for line in text.splitlines() if line.startswith("### ")]
    assert headers == [f"### {label}" for label, _ in outputs.SECTIONS]
    failed = [label for label, body in outputs._sections(text).items()
              if body.startswith("error:")]
    assert failed == []
    summary = outputs.compare(text, text).splitlines()
    assert summary[1:] == [f"- {label}: identical" for label, _ in outputs.SECTIONS]
