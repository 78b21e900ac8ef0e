"""Smoke test: every script in demos/ runs to the end in-process."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
ARGS = {"rank_distribution.py": ["50"]}  # trials per row; the default is 1000


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path), *ARGS.get(path.name, [])])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
