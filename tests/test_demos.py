"""Smoke test of the quick demos: each runs to completion and prints.

The two search demos (``one_sided_search.py`` and
``coevolution_arms_race.py``) take several seconds each and are left
out; the three run here take about a second together.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from helpers import package_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo", ["scenario_tour.py", "grammar_programs.py", "llm_assisted_mutation.py"]
)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
