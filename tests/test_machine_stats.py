"""Execution-driven statistics come from replaying the run's trace.

``tests/golden/machine_stats.json`` was recorded while the machine drove
its cache system live, reference by reference.  The machine now only
records the trace and :func:`repro.cluster.replay.replay_machine`
replays it, so every path that reports a run's statistics must
reproduce those goldens bit-for-bit: :meth:`KL1Machine.run`, a cold
:meth:`Workloads.result` (which emulates), and a warm one (which
rebuilds the run from the cached machine record and emulates nothing).
"""

from __future__ import annotations

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import runner
from repro.analysis.runner import RECORD_SUFFIX, Workloads
from repro.core.config import SimulationConfig
from repro.core.replay import replay
from repro.machine.machine import KL1Machine

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDENS = json.loads((GOLDEN_DIR / "machine_stats.json").read_text())


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_machine_goldens", GOLDEN_DIR / "generate_machine_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()

#: (golden key, benchmark, cluster count) of the benchmark runs.
BENCHMARK_RUNS = [
    (f"k1/{name}", name, 1) for name in GEN.FLAT_BENCHMARKS
] + [
    (f"k{GEN.N_CLUSTERS}/{name}", name, GEN.N_CLUSTERS)
    for name in GEN.CLUSTERED_BENCHMARKS
]


def _no_emulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a warm result must not emulate")

    monkeypatch.setattr(KL1Machine, "run", refuse)


def test_goldens_cover_every_run():
    assert sorted(GOLDENS) == sorted(
        [key for key, _, _ in BENCHMARK_RUNS]
        + [f"gc/churn{GEN.GC_THRESHOLD}"]
    )


@pytest.mark.parametrize("key,name,n_clusters", BENCHMARK_RUNS)
def test_machine_run_reproduces_golden(key, name, n_clusters):
    assert GEN.golden_record(GEN.run(name, n_clusters)) == GOLDENS[key]


def test_gc_run_reproduces_golden():
    _, result = GEN.load_churn()(gc_threshold=GEN.GC_THRESHOLD)
    assert result.gc_collections > 0
    assert GEN.golden_record(result) == GOLDENS[f"gc/churn{GEN.GC_THRESHOLD}"]


@pytest.mark.parametrize("key,name,n_clusters", BENCHMARK_RUNS)
def test_cold_and_warm_results_reproduce_golden(
    key, name, n_clusters, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    cold = Workloads(GEN.SCALE, n_clusters=n_clusters).result(name, GEN.N_PES)
    assert GEN.golden_record(cold.machine) == GOLDENS[key]
    _no_emulation(monkeypatch)
    warm = Workloads(GEN.SCALE, n_clusters=n_clusters).result(name, GEN.N_PES)
    assert GEN.golden_record(warm.machine) == GOLDENS[key]
    assert warm.machine.answer == cold.machine.answer
    assert warm.machine.wall_seconds == cold.machine.wall_seconds
    assert warm.source_lines == cold.source_lines
    assert warm.stats.as_dict() == cold.stats.as_dict()


def test_warm_gc_result_flushes_at_the_recorded_marks(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    cold = Workloads("tiny", gc_threshold_words=200).result("pascal", 2)
    assert cold.machine.gc_marks
    _no_emulation(monkeypatch)
    warm = Workloads("tiny", gc_threshold_words=200).result("pascal", 2)
    assert warm.machine.gc_marks == cold.machine.gc_marks
    assert warm.stats.as_dict() == cold.stats.as_dict()
    flush_free = replay(warm.trace, SimulationConfig())
    assert flush_free.as_dict() != warm.stats.as_dict()


# ---------------------------------------------------------------------------
# The machine record's lifecycle in the disk cache.


@pytest.fixture
def emulations(tmp_path, monkeypatch):
    """Isolated trace cache; counts the emulations ``Workloads`` runs."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    calls = []
    original = runner.run_benchmark

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "run_benchmark", counting)
    return calls


def _record_path(tmp_path) -> Path:
    (path,) = tmp_path.glob("*" + RECORD_SUFFIX)
    return path


def test_record_is_stored_beside_its_trace(emulations, tmp_path):
    Workloads("tiny").result("pascal", 2)
    (trace_path,) = tmp_path.glob("*.trace")
    assert _record_path(tmp_path).stem == trace_path.stem
    Workloads("tiny").result("pascal", 2)
    assert len(emulations) == 1


@pytest.mark.parametrize(
    "content", ["{not json", "[]", '{"answer": "{}"}', ""]
)
def test_unreadable_record_is_a_miss(emulations, tmp_path, content):
    cold = Workloads("tiny").result("pascal", 2)
    _record_path(tmp_path).write_text(content)
    again = Workloads("tiny").result("pascal", 2)
    assert len(emulations) == 2
    assert again.stats.as_dict() == cold.stats.as_dict()
    # The miss rewrote a readable record.
    Workloads("tiny").result("pascal", 2)
    assert len(emulations) == 2


def test_trace_without_record_is_a_trace_hit_and_a_result_miss(
    emulations, tmp_path
):
    Workloads("tiny").trace("pascal", 2)
    # A trace stored without its record, as before records existed.
    _record_path(tmp_path).unlink()
    workloads = Workloads("tiny")
    workloads.trace("pascal", 2)
    assert len(emulations) == 1
    workloads.result("pascal", 2)
    assert len(emulations) == 2
    assert _record_path(tmp_path).exists()
    Workloads("tiny").result("pascal", 2)
    assert len(emulations) == 2


def test_record_answer_round_trips_exactly(emulations):
    result = Workloads("tiny").result("pascal", 2)
    answer = {"R": [("f", 1, ["a", ("g", [])]), ([1, 2], "_G1a")], "N": 3}
    result.machine.answer = answer
    record = json.loads(json.dumps(runner._machine_record(result)))
    decoded = ast.literal_eval(record["answer"])
    assert decoded == answer
    assert isinstance(decoded["R"][0], tuple)


def test_warm_result_rechecks_the_answer(emulations, tmp_path):
    Workloads("tiny").result("pascal", 2)
    path = _record_path(tmp_path)
    record = json.loads(path.read_text())
    record["answer"] = repr({"Sum": -1})
    path.write_text(json.dumps(record))
    with pytest.raises(AssertionError, match="expected"):
        Workloads("tiny").result("pascal", 2)
