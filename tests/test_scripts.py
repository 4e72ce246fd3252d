"""The example scripts run end to end against the package sources."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, closing", [
    ("run_worked_example.py",
     "so l*g_0 is outside Z*g_j + Q_{3} for each j and 0 < |l| <= 2"),
    ("run_reference_instance.py", "stage invariants: clean ("),
])
def test_script_runs_to_its_closing_line(script, closing):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith(closing)
