"""Smoke test: every demo runs to the end against the current API."""

import importlib.util
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, argv", [
    ("bounds_tour", []),
    ("decomposition_walkthrough", []),
    ("campaign_hunt", []),
])
def test_demo_runs(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    out = capsys.readouterr().out
    assert out and "FAIL" not in out and "VIOLATED" not in out
