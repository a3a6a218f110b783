"""Smoke test of the benchmark itself, at the tiny "quick" size.

  python3 -m pytest perfbench/test_smoke.py -q

Every workload must print each metric of BENCHMARK.json by name with its
unit, check its outputs with no failure, repeat its traced counts exactly
on one seed, and refuse to run without the package source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def quick(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.5", "--trace", str(trace), "--size", "quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == tracing.per_layer_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_its_unit(workload, trace):
    result, text = quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ "
                         rf"{re.escape(m['unit'])}$", text, re.M), m
    assert re.search(r"^\s+failed_frac\s+0 ratio$", text, re.M)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, _ = quick(workload, 1, seed=5)
    second, _ = quick(workload, 1, seed=5)
    counts = [name for name in first["metrics"] if tracing.is_count(name)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = bench("--workload", workloads.WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
