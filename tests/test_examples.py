"""Smoke tests: every example script must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "MTEPS/W" in out
    assert "more energy-efficient" in out


def test_social_network_analytics():
    out = run_example("social_network_analytics.py")
    assert "top influencers" in out
    assert "energy saving vs CPU" in out


def test_design_space_exploration():
    out = run_example("design_space_exploration.py")
    assert "SRAM capacity" in out
    assert "SLC" in out


def test_dynamic_stream():
    out = run_example("dynamic_stream.py")
    assert "link changes" in out
    assert "re-rank" in out


def test_paper_figures_selection():
    out = run_example("paper_figures.py", "table3", "fig09")
    assert "table3" in out
    assert "fig09" in out


def test_paper_figures_rejects_unknown():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "paper_figures.py"), "fig99"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
