"""Self-check of the benchmark itself, at tiny sizes so it runs in seconds.

    python3 -m pytest perfbench/test_selfcheck.py

Every workload, untraced and traced, must pass its output checks and emit
exactly the metrics that BENCHMARK.json declares, with the declared units.
Without the package sources next to it the benchmark must fail loudly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRIPT_ARGS = SPEC["command"][1:]


def run_bench(cwd, workload, trace, tiny=True):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, *SCRIPT_ARGS, *args, *(["--tiny"] if tiny else [])],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
