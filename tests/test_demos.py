"""Smoke tests for the demo scripts that run in well under a second and
write no files, so that a renamed or deleted public name breaks a test."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_kernel_machinery_tour_runs(capsys):
    runpy.run_path(str(DEMOS / "02_kernel_machinery_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "markov matrix: (400, 400)" in out
    assert "nearest-point fallback" in out


def test_conditional_expectation_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_conditional_expectation_1d.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "selected bandwidths" in out
    assert "n= 5000: rmse" in out
