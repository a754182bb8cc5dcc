"""Replay while recording: a forked worker replays a run's trace as the
machine records it.

Past one chunk of references, :meth:`KL1Machine.run` hands its trace
to a :class:`~repro.cluster.replay.ReplayWorker` chunk by chunk.  The
streamed replay must equal the serial one bit for bit, every error
must surface as the serial path would raise it (or as a structured
:class:`~repro.cluster.replay.ReplayWorkerError`), and no process may
outlive the run.  The tests shrink the chunk so the tiny goldens span
many chunks, and report two usable CPUs so single-CPU hosts take the
streamed path too — except the one test of the real gate.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import replay as cluster_replay
from repro.cluster.replay import MachineReplay, ReplayWorkerError, replay_machine
from repro.core.config import MachineConfig, SimulationConfig
from repro.core.replay import ReplayBlockedError
from repro.machine import machine as machine_module
from repro.machine.engine import Engine
from repro.machine.errors import DeadlockError, LimitExceededError, ProgramFailure
from repro.machine.machine import KL1Machine
from repro.programs import get as get_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDENS = json.loads((GOLDEN_DIR / "machine_stats.json").read_text())

#: A chunk small enough that every golden run spans several.
SMALL_CHUNK = 1024


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_machine_goldens", GOLDEN_DIR / "generate_machine_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()

BENCHMARK_RUNS = [
    (f"k1/{name}", name, 1) for name in GEN.FLAT_BENCHMARKS
] + [
    (f"k{GEN.N_CLUSTERS}/{name}", name, GEN.N_CLUSTERS)
    for name in GEN.CLUSTERED_BENCHMARKS
]

COUNT = """
count(0) :- true.
count(N) :- N > 0 | N1 := N - 1, count(N1).
"""


@pytest.fixture
def workers(monkeypatch):
    """The ReplayWorkers a test starts; the host reports at least two
    usable CPUs."""
    started = []
    original = cluster_replay.ReplayWorker.__init__

    def spy(self, *args, **kwargs):
        started.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cluster_replay.ReplayWorker, "__init__", spy)
    monkeypatch.setattr(cluster_replay, "default_jobs", lambda: 2)
    yield started
    assert multiprocessing.active_children() == []


@pytest.fixture
def streamed(workers, monkeypatch):
    """Streaming forced on with :data:`SMALL_CHUNK`-reference chunks."""
    monkeypatch.setattr(machine_module, "REPLAY_CHUNK_REFS", SMALL_CHUNK)
    return workers


def _machine(source: str) -> KL1Machine:
    return KL1Machine(source, MachineConfig(n_pes=2, seed=1))


# ---------------------------------------------------------------------------
# The streamed replay is the serial one.


@pytest.mark.parametrize("key,name,n_clusters", BENCHMARK_RUNS)
def test_streamed_run_reproduces_golden(streamed, key, name, n_clusters):
    assert GEN.golden_record(GEN.run(name, n_clusters)) == GOLDENS[key]
    assert len(streamed) == 1


def test_streamed_gc_run_flushes_at_every_mark(streamed):
    _, result = GEN.load_churn()(gc_threshold=GEN.GC_THRESHOLD)
    assert result.gc_collections > 0
    assert len(streamed) == 1
    assert GEN.golden_record(result) == GOLDENS[f"gc/churn{GEN.GC_THRESHOLD}"]


def test_streamed_directory_run_matches_serial(streamed):
    config = SimulationConfig(interconnect="directory")
    benchmark = get_benchmark("semi")
    machine = KL1Machine(
        benchmark.source, MachineConfig(n_pes=8, seed=1), config
    )
    result = machine.run(benchmark.query("tiny"))
    assert len(streamed) == 1
    stats, network = replay_machine(result.trace, config, result.gc_marks)
    assert network is None and result.network is None
    assert result.stats.as_dict() == stats.as_dict()


@pytest.mark.skipif(
    cluster_replay.default_jobs() < 2, reason="the worker needs 2 usable CPUs"
)
def test_real_gate_streams_a_run_longer_than_one_chunk(monkeypatch):
    started = []
    original = cluster_replay.ReplayWorker.__init__

    def spy(self, *args, **kwargs):
        started.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cluster_replay.ReplayWorker, "__init__", spy)
    result = GEN.run("puzzle")
    assert result.memory_refs > machine_module.REPLAY_CHUNK_REFS
    assert len(started) == 1
    assert GEN.golden_record(result) == GOLDENS["k1/puzzle"]
    assert multiprocessing.active_children() == []


def test_runs_shorter_than_one_chunk_replay_serially(workers):
    result = GEN.run("pascal")
    assert result.memory_refs < machine_module.REPLAY_CHUNK_REFS
    assert workers == []
    assert GEN.golden_record(result) == GOLDENS["k1/pascal"]


# ---------------------------------------------------------------------------
# The gate: any unmet condition keeps today's serial path.


class _Daemonic:
    daemon = True


@pytest.mark.parametrize("condition", ["no-fork", "one-cpu", "daemonic"])
def test_unmet_gate_replays_serially(streamed, monkeypatch, condition):
    if condition == "no-fork":
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
    elif condition == "one-cpu":
        monkeypatch.setattr(cluster_replay, "default_jobs", lambda: 1)
    else:
        monkeypatch.setattr(multiprocessing, "current_process", _Daemonic)
    assert GEN.golden_record(GEN.run("tri")) == GOLDENS["k1/tri"]
    assert streamed == []


def test_other_threads_alive_replay_serially(streamed):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        result = GEN.run("tri")
    finally:
        release.set()
        thread.join()
    assert streamed == []
    assert GEN.golden_record(result) == GOLDENS["k1/tri"]


# ---------------------------------------------------------------------------
# Emulation errors: the worker goes, the error and the prefix stay.


@pytest.mark.parametrize(
    "source,query,error,limit",
    [
        ("loop :- loop.\nmain :- loop.", "main", LimitExceededError, 3000),
        (COUNT + "main(R) :- count(800), R := X + 1.", "main(R)",
         DeadlockError, None),
        (COUNT + "f(1, R) :- R = one.\n"
         "main(R) :- count(800), g(800, D), f(D, R).\n"
         "g(0, D) :- D = 0.\n"
         "g(N, D) :- N > 0 | N1 := N - 1, g(N1, D).",
         "main(R)", ProgramFailure, None),
    ],
    ids=["limit", "deadlock", "failure"],
)
def test_emulation_error_stops_the_worker(streamed, source, query, error, limit):
    machine = _machine(source)
    with pytest.raises(error):
        machine.run(query, max_reductions=limit)
    assert len(streamed) == 1
    assert len(machine.trace) == machine.port.total_refs > SMALL_CHUNK


def test_keyboard_interrupt_stops_the_worker(streamed, monkeypatch):
    steps = []
    original = Engine.step

    def step(self, machine):
        steps.append(1)
        if len(steps) == 4000:
            raise KeyboardInterrupt
        original(self, machine)

    monkeypatch.setattr(Engine, "step", step)
    machine = _machine(COUNT + "main :- count(5000).")
    with pytest.raises(KeyboardInterrupt):
        machine.run("main")
    assert len(streamed) == 1
    assert len(machine.trace) == machine.port.total_refs > SMALL_CHUNK


# ---------------------------------------------------------------------------
# Replay errors and dead workers.


def _fail_on_second_feed(monkeypatch, fail):
    """Make the child's consumer call *fail* on its second range."""
    original = MachineReplay.feed

    def feed(self, trace, gc_marks, stop):
        if self.done:
            fail(self)
        original(self, trace, gc_marks, stop)

    monkeypatch.setattr(MachineReplay, "feed", feed)


def test_replay_error_in_the_worker_is_reraised(streamed, monkeypatch):
    def fail(consumer):
        raise ValueError("cannot replay this range")

    _fail_on_second_feed(monkeypatch, fail)
    with pytest.raises(ValueError) as caught:
        GEN.run("tri")
    assert type(caught.value) is ValueError
    assert str(caught.value) == "cannot replay this range"
    assert len(streamed) == 1


def test_blocked_replay_keeps_its_trace_index(streamed, monkeypatch):
    def fail(consumer):
        raise ReplayBlockedError(consumer.done + 5, 1, 0, 1, 0x40)

    _fail_on_second_feed(monkeypatch, fail)
    with pytest.raises(ReplayBlockedError) as caught:
        GEN.run("tri")
    index = caught.value.index
    assert index > SMALL_CHUNK + 5
    assert str(caught.value) == str(ReplayBlockedError(index, 1, 0, 1, 0x40))


@pytest.mark.parametrize(
    "die,exitcode",
    [
        (lambda consumer: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda consumer: os._exit(3), 3),
    ],
    ids=["sigkill", "exit"],
)
def test_dead_worker_raises_a_structured_error(streamed, monkeypatch, die, exitcode):
    _fail_on_second_feed(monkeypatch, die)
    with pytest.raises(ReplayWorkerError) as caught:
        GEN.run("tri")
    assert caught.value.exitcode == exitcode
    assert f"code {exitcode}" in str(caught.value)


# ---------------------------------------------------------------------------
# Emulation seconds exclude the hand-offs.


def test_wall_seconds_exclude_blocked_handoffs(streamed, monkeypatch):
    delay = 0.05
    feeds = []
    original = cluster_replay.ReplayWorker.feed

    def slow_feed(self):
        feeds.append(1)
        time.sleep(delay)
        original(self)

    monkeypatch.setattr(cluster_replay.ReplayWorker, "feed", slow_feed)
    started = time.perf_counter()
    result = GEN.run("tri")
    elapsed = time.perf_counter() - started
    assert len(feeds) > 2
    # Every feed but the tail (sent after emulation) is subtracted.
    assert result.wall_seconds < elapsed - delay * (len(feeds) - 1)
