"""Smoke test of the benchmark command (about 6 minutes on 4 cores).

    python -m pytest perfbench/test_smoke.py -q

Runs every workload once end to end and once traced, with the fewest
timed passes, and checks that every metric named in BENCHMARK.json is
printed with its unit, that no query execution failed, and that the logical
counts repeat exactly for the same seed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-4000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    return result


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    metrics = bench(workload, seed=7, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] is not None and v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    first = bench(workload, seed=7, trace=1)["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == units("per_layer")
    assert all(v["value"] is not None for v in first.values())
    assert first["core.reduction.supersteps"]["value"] == (
        2 * first["core.plan.labels"]["value"]
    )
    again = bench(workload, seed=7, trace=1)["metrics"]
    for logical in ("stats.messages", "core.reduction.supersteps", "core.plan.labels"):
        assert again[logical]["value"] == first[logical]["value"], logical
