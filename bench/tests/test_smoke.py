"""Smoke test of the benchmark itself: every workload at a tiny length.

    python3 -m pytest -q bench/tests

Checks the output contract against BENCHMARK.json and the layer map the
workloads were chosen for.  Takes about a minute, most of it RSA keygen.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--min-rounds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@lru_cache(maxsize=None)
def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = _invoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "# misverdict_share=0.0 share" in stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_map(workload):
    layers = {name: m["value"] for name, m in _run(workload, 1)[0]["metrics"].items()}
    assert (layers["crypto.encrypt.calls"] > 0) == (workload == "sealed-mlp")
    assert (layers["protocol.SignedUpdate.from_wire_bytes.calls"] > 0) == (workload == "tamper-16")
    assert (layers["crypto.sign.wasted_share"] > 0) == (workload == "tamper-16")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
