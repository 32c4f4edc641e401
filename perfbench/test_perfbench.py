"""Smoke tests of the benchmark at tiny input sizes, and of its metric schema.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == bench.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_smoke(workload):
    code, out = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "1", "--size", "smoke")
    assert code == 0, out
    result = _result(out)
    assert result["correct"], out
    assert result["attempted"] >= 4
    names = [name for name, _, _ in bench.PER_LAYER]
    assert list(result["metrics"]) == names
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "replay":
        # smoke-scale experiments may fail their own checks; the engines
        # may not
        assert result["failed"] == 0, out
        assert layers["cold.swap.dispatch.multi"] == 1
        assert layers["warm.swap.dispatch.hybrid"] == 1
    if workload == "suite":
        assert layers["cold.cluster.node_jobs"] == layers["warm.cluster.node_jobs"] > 0
        assert layers["warm.cache.hits.fleet"] == layers["warm.cluster.node_jobs"]


def test_end_to_end_metrics_with_tracing_off():
    code, out = _bench("--workload", "suite", "--seed", "4", "--seconds", "0",
                       "--trace", "0", "--size", "smoke")
    assert code == 0, out
    result = _result(out)
    assert result["attempted"] >= 2 * bench.MIN_ROUNDS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = _bench("--workload", "replay", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert out == ""
