"""Smoke tests of the study scripts: each runs end to end at a tiny size.

The scripts read the public report types (`RoundReport`, `MetricsTable`),
so a change to those types shows up here rather than in a later study.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_honest_baseline.py", ["--rounds", "1", "--clients", "2"]),
        ("run_attack_comparison.py", ["--rounds", "1", "--clients", "2"]),
        ("run_scaling_sweep.py", ["--sizes", "2", "3", "--rounds", "1"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
