"""The benchmark's own tests: every workload at the tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402
import workloads as wl  # noqa: E402

#: One op label per workload whose recorded digest the failure drill corrupts.
CORRUPTED = {
    "capture": "semi:bus:All",
    "sweep": "random:directory:None",
    "lazypim": "pascal:lazypim",
}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _run(workload, trace=0, seed=10)  # input seed 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_traced_wall(workload):
    result = _run(workload, trace=1, seed=7)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("per_layer")
    values = {name: m["value"] for name, m in metrics.items()}
    attributed = sum(values[name] for name in spans.SELF_TIME_METRICS)
    assert math.isclose(
        attributed + values["unattributed_s"], values["traced_wall_s"],
        rel_tol=1e-9, abs_tol=1e-9,
    )
    assert values["unattributed_s"] < 0.5 * values["traced_wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_digest_counts_as_failed_op(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))  # restored after
    label = CORRUPTED[workload]
    checker = wl.Checker(dict(wl.load_digests("tiny", workload, 0), **{label: "0" * 64}))
    run = wl.WORKLOADS[workload]("tiny", 0, tmp_path)
    run.setup()
    run.run_pass(checker)
    assert checker.failed == 1
    assert checker.attempted > 1
    assert checker.failures[0].startswith(f"{label}: CheckError")


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
