"""Smoke test of the benchmark at tiny size.

Runs every workload for one small block, traced and untraced, and checks
that the result line has its documented shape and carries every metric that
``BENCHMARK.json`` names, with its unit.  Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, Workload

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


def tiny(workload: Workload) -> Workload:
    """One query per label at the two smallest sizes."""
    sizes = sorted({n for n, _, _ in workload.cells})[:2]
    cells = tuple((n, label, 1) for n, label, _ in workload.cells if n in sizes)
    return Workload(workload.kind, cells, min_samples=1)


def test_listed_workloads_exist():
    assert set(LISTED) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    info, result = run.run(name, seed=1, seconds=0, trace=bool(trace),
                           workload=tiny(WORKLOADS[name]))
    assert all(line.startswith("# ") for line in info)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if name in LISTED:
        assert result["failed"] == 0
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", LISTED[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
