"""Smoke tests of the benchmark itself, at ``--scale 0.02``.

Run explicitly (not in tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import corpus  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        stdout=subprocess.PIPE, text=True, cwd=REPO, timeout=170)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_every_workload_emits_every_end_to_end_metric(workload):
    metrics = _run(workload, trace=0)
    assert set(metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    for spec in CONTRACT["end_to_end"]:
        entry = metrics[spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_traced_run_emits_every_per_layer_metric(workload):
    metrics = _run(workload, trace=1)
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    for spec in CONTRACT["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    assert trace["spans"] and trace["requests"]


def test_benchmark_json_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert [w["name"] for w in CONTRACT["workloads"]] == \
        [w.name for w in workloads.WORKLOADS]
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert len(CONTRACT["end_to_end"]) == 13
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in CONTRACT["end_to_end"])


def _request_bytes(workload: workloads.Workload, seed: int) -> bytes:
    small = workloads.scaled(workload, 0.02)
    return corpus.request_list_bytes(workloads.generate_inputs(small, seed).reads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_request_list_is_a_function_of_the_seed(workload):
    assert _request_bytes(workload, 5) == _request_bytes(workload, 5)
    assert _request_bytes(workload, 5) != _request_bytes(workload, 6)
