"""Reduced-size runs of every workload through the entry point, and the
agreement of BENCHMARK.json with the metrics the benchmark emits."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from spans import LAYER_METRICS

ROOT = Path(__file__).resolve().parents[2]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else LAYER_METRICS
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name][0]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        bevf = result["metrics"]["grid.bevf.bytes_read"]["value"]
        assert (bevf > 0) == (workload == "bundle_align")
    assert not (ROOT / ".bench_work").exists()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    proc = _bench("--workload", "robust", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: (unit, better) for k, (unit, better, _) in LAYER_METRICS.items()
    }
