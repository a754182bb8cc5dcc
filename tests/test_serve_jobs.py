"""The async simulation job service (repro.serve.jobs) and its
fault-tolerance satellites.

The headline test SIGKILLs a worker mid-stream (via the
``REPRO_SERVE_FAULT_KILL_AFTER`` hook — a real signal 9, not an
exception) and asserts the supervisor records a structured
worker-death error, retries from the last checkpoint, and finishes
with counters *bit-identical* to an uninterrupted run.  Alongside:
the ``SweepPool`` worker-death surfacing (``SweepWorkerError``, not a
hang), the bounded LRU trace cache, and the ``repro serve`` /
``repro cache`` CLI smoke paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
import tracemalloc

import pytest

from repro.analysis.runner import (
    RECORD_SUFFIX,
    prune_trace_cache,
    trace_cache_limit_bytes,
    trace_cache_stats,
)
from repro.core.config import SimulationConfig
from repro.core.replay import replay
from repro.obs.schema import SchemaError, validate_job
from repro.obs.telemetry import HEARTBEAT_SCHEMA
from repro.serve.jobs import (
    FAULT_KILL_ENV,
    JobError,
    JobServer,
    JobStore,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.io import write_trace
from repro.trace.synthetic import generate_random_trace


@pytest.fixture(scope="module")
def job_trace():
    return generate_random_trace(6_000, n_pes=4, seed=5)


@pytest.fixture(scope="module")
def reference_stats(job_trace):
    return replay(job_trace, SimulationConfig(), n_pes=4).as_dict()


def _submit(store, trace, **kwargs):
    kwargs.setdefault("chunk_refs", 500)
    kwargs.setdefault("checkpoint_every", 2)
    return store.submit(SimulationConfig(), trace, **kwargs)


# ---------------------------------------------------------------------------
# The happy path.


def test_submit_run_fetch(tmp_path, job_trace, reference_stats):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    record = store.job(job_id)
    assert record["state"] == "queued"
    validate_job(record)

    JobServer(store).run_pending()
    record = store.job(job_id)
    assert record["state"] == "done"
    assert record["retries"] == 0
    result = store.result(job_id)
    assert result["stats"] == reference_stats
    assert result["manifest"]["config"]["protocol"] == "pim"


def test_heartbeats_are_windowed_and_monotone(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    JobServer(store).run_pending()
    beats = store.heartbeats(job_id)
    assert len(beats) >= 3
    assert all(beat["schema"] == HEARTBEAT_SCHEMA for beat in beats)
    refs = [beat["refs_done"] for beat in beats]
    assert refs == sorted(refs)
    assert beats[-1]["done"] is True
    assert beats[-1]["refs_done"] == beats[-1]["refs_total"] == len(job_trace)
    # Windowed, not cumulative: per-chunk miss ratios are each <= 1 and
    # not all equal to the final cumulative value.
    assert all(0.0 <= beat["miss_ratio"] <= 1.0 for beat in beats)


def test_heartbeats_land_every_chunk_of_a_submitted_file(tmp_path, job_trace):
    # However the file was written, the worker reads it in the job's
    # own chunk size: a heartbeat (and a checkpoint) every 500 refs.
    from repro.trace.io import write_trace

    path = tmp_path / "t.trace"
    write_trace(job_trace, path)
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, path, chunk_refs=500)
    assert store.job(job_id)["n_pes"] == job_trace.n_pes
    JobServer(store).run_pending()
    refs = [beat["refs_done"] for beat in store.heartbeats(job_id)]
    total = len(job_trace)
    assert refs[:-1] == [*range(500, total, 500), total]


def test_resumed_worker_seeks_to_its_checkpoint(
    tmp_path, job_trace, reference_stats, monkeypatch
):
    # A worker that finds a checkpoint after 4 of 13 chunks reads the
    # trace from reference 2000 on: 9 chunks, no discarded prefix.
    from repro.core.system import PIMCacheSystem
    from repro.serve import stream
    from repro.serve.checkpoint import snapshot
    from repro.serve.jobs import _job_worker

    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    system = PIMCacheSystem(SimulationConfig(), 4)
    replay(job_trace, system=system, stop=2_000)
    store.write_job_checkpoint(job_id, {
        "state": snapshot(system),
        "chunks_done": 4,
        "refs_done": 2_000,
        "hits_done": system.stats.total_hits,
    })
    reads = []
    iter_trace_chunks = stream.iter_trace_chunks

    def counting(path, chunk_refs, start=0):
        for chunk in iter_trace_chunks(path, chunk_refs, start):
            reads.append((start, len(chunk)))
            yield chunk

    monkeypatch.setattr(stream, "iter_trace_chunks", counting)
    _job_worker(str(store.root), job_id)
    assert reads == [(2_000, 500)] * 8 + [(2_000, len(job_trace) - 6_000)]
    assert store.job(job_id)["state"] == "done"
    assert store.result(job_id)["stats"] == reference_stats


def test_trace_storage_is_content_addressed(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    first = _submit(store, job_trace)
    second = store.submit(
        SimulationConfig(protocol="illinois"), job_trace, chunk_refs=500
    )
    assert first != second
    assert store.job(first)["trace"] == store.job(second)["trace"]
    assert len(list(store.traces_dir.glob("*.trace"))) == 1


def test_store_trace_hashes_in_bounded_memory(tmp_path, job_trace):
    big = TraceBuffer(n_pes=job_trace.n_pes)
    for _ in range(70):
        big.extend(job_trace)
    path = tmp_path / "big.trace"
    write_trace(big, path)
    size = path.stat().st_size
    store = JobStore(tmp_path / "store")
    tracemalloc.start()
    try:
        key = store.store_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The file is hashed block by block, never held whole.
    assert peak < size // 2, (peak, size)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:24]
    assert key == f"{digest}.trace"
    assert store.trace_path(key).stat().st_size == size


def test_clustered_job(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    config = SimulationConfig().with_clusters(2)
    job_id = store.submit(config, job_trace, chunk_refs=500)
    JobServer(store).run_pending()
    result = store.result(job_id)
    assert result["clustered"] is True
    assert result["stats"]["n_clusters"] == 2
    assert result["stats"]["stats"]["total_refs"] == len(job_trace)


def test_submit_rejects_nonpositive_options(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    with pytest.raises(JobError):
        _submit(store, job_trace, chunk_refs=0)
    with pytest.raises(JobError):
        _submit(store, job_trace, checkpoint_every=0)


def test_validate_job_rejects_bad_states(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    record = store.job(job_id)
    bad = dict(record, state="paused")
    with pytest.raises(SchemaError):
        validate_job(bad)
    # A failed job must carry a structured error.
    bad = dict(record, state="failed", error=None)
    with pytest.raises(SchemaError):
        validate_job(bad)


@pytest.mark.parametrize(
    "saved, error", [([], JobError), ({}, SchemaError)], ids=["list", "stateless"]
)
def test_checkpoint_reads_are_validated(tmp_path, job_trace, saved, error):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    store.write_job_checkpoint(job_id, saved)
    with pytest.raises(error):
        store.checkpoint(job_id)


# ---------------------------------------------------------------------------
# Worker death: kill → structured error → resume from checkpoint.


def test_killed_worker_resumes_from_checkpoint(
    tmp_path, job_trace, reference_stats, monkeypatch
):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)  # 12 chunks, checkpoint every 2
    monkeypatch.setenv(FAULT_KILL_ENV, "5")
    record = JobServer(store).run_job(job_id)

    assert record["state"] == "done"
    assert record["retries"] == 1
    assert record["error"]["kind"] == "worker-death"
    assert "signal 9" in record["error"]["detail"]
    assert "checkpoint" in record["error"]["detail"]
    assert store.checkpoint_path(job_id).exists()
    # The acceptance bar: identical counters to an uninterrupted run.
    assert store.result(job_id)["stats"] == reference_stats


def test_job_fails_after_max_retries_with_structured_error(
    tmp_path, job_trace
):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace, max_retries=1)
    # Corrupt the stored trace mid-chunk: every attempt dies.
    trace_path = store.trace_path(store.job(job_id)["trace"])
    raw = trace_path.read_bytes()
    trace_path.write_bytes(raw[: len(raw) // 2])

    record = JobServer(store).run_job(job_id)
    assert record["state"] == "failed"
    assert record["retries"] == 1
    assert record["error"]["kind"] == "worker-death"
    assert "gave up" in record["error"]["detail"]
    assert store.result(job_id) is None


def test_run_job_is_idempotent_once_done(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    server = JobServer(store)
    first = server.run_job(job_id)
    beats_after_first = len(store.heartbeats(job_id))
    again = server.run_job(job_id)
    assert first["state"] == again["state"] == "done"
    assert len(store.heartbeats(job_id)) == beats_after_first


def test_killed_worker_resumes_lazypim_to_identical_result(
    tmp_path, monkeypatch
):
    """A worker SIGKILLed mid-batch in speculative mode resumes from
    the last checkpoint to counters bit-identical to an undisturbed
    streamed run — checkpoints only land on settled batch commits."""
    from repro.serve.stream import replay_stream
    from repro.trace.synthetic import generate_false_sharing_trace

    trace = generate_false_sharing_trace(6_000, n_pes=4, seed=8)
    undisturbed = replay_stream(
        trace,
        SimulationConfig(),
        chunk_refs=500,
        mode="lazypim",
        batch_refs=100,
    ).as_dict()
    assert undisturbed["batch_rollbacks"] > 0

    store = JobStore(tmp_path / "store")
    job_id = store.submit(
        SimulationConfig(),
        trace,
        chunk_refs=500,
        checkpoint_every=2,
        mode="lazypim",
        batch_refs=100,
    )
    monkeypatch.setenv(FAULT_KILL_ENV, "5")
    record = JobServer(store).run_job(job_id)
    assert record["state"] == "done"
    assert record["retries"] == 1
    assert record["mode"] == "lazypim"
    assert store.result(job_id)["stats"] == undisturbed


def test_submit_rejects_unknown_mode(tmp_path, job_trace):
    store = JobStore(tmp_path / "store")
    with pytest.raises(JobError):
        _submit(store, job_trace, mode="eager")


@pytest.mark.parametrize(
    "knobs",
    [
        {"batch_refs": 0},
        {"batch_refs": -5},
        {"batch_refs": 1, "signature_bits": 3},
    ],
    ids=["zero-batch", "negative-batch", "odd-signature"],
)
def test_submit_rejects_bad_batch_knobs(tmp_path, job_trace, knobs):
    store = JobStore(tmp_path / "store")
    with pytest.raises(JobError, match="batch_refs|signature_bits"):
        _submit(store, job_trace, mode="lazypim", **knobs)
    assert list(store.jobs_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# SweepPool worker death surfaces, it does not hang.


def test_sweep_pool_worker_death_raises_structured_error(job_trace):
    from repro.analysis.parallel import SweepPool, SweepWorkerError

    with SweepPool(job_trace, jobs=2) as pool:
        if pool.kind != "persistent":
            pytest.skip("single-CPU host: no worker processes to kill")
        pool.warm()
        victim = pool.pids[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        with pytest.raises(SweepWorkerError) as info:
            while time.monotonic() < deadline:
                pool.map([SimulationConfig(), SimulationConfig()])
        assert info.value.jobs == 2
        assert info.value.n_configs == 2
        assert "repro serve" in str(info.value)
        assert info.value.exitcode == -signal.SIGKILL


def test_sweep_pool_retry_after_restart_is_bit_identical(job_trace):
    """Respawned workers fork from the pool's own trace, so a retried
    map reproduces the sweep bit for bit."""
    from repro.analysis.parallel import SweepPool, SweepWorkerError

    configs = [SimulationConfig(), SimulationConfig(protocol="illinois")]
    with SweepPool(job_trace, jobs=2) as pool:
        if pool.kind != "persistent":
            pytest.skip("single-CPU host: no worker processes to kill")
        pool.warm()
        baseline = [stats.as_dict() for stats in pool.map(configs)]
        victim = pool.pids[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        with pytest.raises(SweepWorkerError):
            while time.monotonic() < deadline:
                pool.map(configs)
        # The pool already respawned; the retry reproduces the sweep.
        retried = [stats.as_dict() for stats in pool.map(configs)]
        assert retried == baseline


# ---------------------------------------------------------------------------
# The bounded disk trace cache.


@pytest.fixture
def fake_cache(tmp_path, monkeypatch):
    root = tmp_path / "tracecache"
    root.mkdir()
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(root))
    monkeypatch.delenv("REPRO_TRACE_CACHE_BYTES", raising=False)
    now = time.time()
    for index in range(4):
        path = root / f"w{index}.trace"
        path.write_bytes(bytes(1_000))
        # Strictly increasing mtimes: w0 is the least recently used.
        os.utime(path, (now + index, now + index))
    return root


def test_trace_cache_stats_counts_files(fake_cache):
    stats = trace_cache_stats()
    assert stats["enabled"] is True
    assert stats["dir"] == str(fake_cache)
    assert stats["files"] == 4
    assert stats["total_bytes"] == 4_000


def test_prune_evicts_least_recently_used_first(fake_cache):
    stats = prune_trace_cache(max_bytes=2_500)
    assert stats["removed"] == 2
    assert stats["removed_bytes"] == 2_000
    assert stats["total_bytes"] == 2_000
    survivors = sorted(p.name for p in fake_cache.glob("*.trace"))
    assert survivors == ["w2.trace", "w3.trace"]


def test_records_are_counted_and_evicted_with_their_traces(fake_cache):
    for trace in fake_cache.glob("*.trace"):
        record = trace.with_suffix(RECORD_SUFFIX)
        record.write_bytes(bytes(100))
        mtime = trace.stat().st_mtime
        os.utime(record, (mtime, mtime))
    stats = trace_cache_stats()
    assert stats["files"] == 8
    assert stats["total_bytes"] == 4_400
    stats = prune_trace_cache(max_bytes=2_500)
    assert stats["removed"] == 4
    assert stats["removed_bytes"] == 2_200
    survivors = sorted(p.name for p in fake_cache.iterdir())
    assert survivors == ["w2.json", "w2.trace", "w3.json", "w3.trace"]


def test_prune_evicts_an_orphan_record(fake_cache):
    orphan = fake_cache / f"old{RECORD_SUFFIX}"
    orphan.write_bytes(bytes(100))
    os.utime(orphan, (0, 0))
    assert trace_cache_stats()["files"] == 5
    stats = prune_trace_cache(max_bytes=4_000)
    assert stats["removed"] == 1
    assert not orphan.exists()


def test_prune_zero_limit_means_unbounded(fake_cache):
    stats = prune_trace_cache(max_bytes=0)
    assert stats["removed"] == 0
    assert stats["files"] == 4


def test_cache_limit_env_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "12345")
    assert trace_cache_limit_bytes() == 12_345
    monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "not-a-number")
    assert trace_cache_limit_bytes() == 512 * 1024 * 1024
    monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "-5")
    assert trace_cache_limit_bytes() == 0


# ---------------------------------------------------------------------------
# CLI smoke: serve + cache.


def test_cli_serve_lifecycle(tmp_path, job_trace, capsys):
    from repro.cli import main
    from repro.trace.io import write_trace

    trace_path = tmp_path / "t.trace"
    write_trace(job_trace, trace_path)
    store = str(tmp_path / "store")

    assert main(["serve", "--store", store, "submit",
                 "--trace", str(trace_path), "--pes", "0",
                 "--chunk", "500"]) == 0
    job_id = capsys.readouterr().out.split()[1]

    assert main(["serve", "--store", store, "run"]) == 0
    assert "done" in capsys.readouterr().out

    assert main(["serve", "--store", store, "status", job_id]) == 0
    out = capsys.readouterr().out
    assert "done" in out and "100.0%" in out

    assert main(["serve", "--store", store, "result", job_id]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["job"] == job_id
    assert record["stats"]["total_refs"] == len(job_trace)


def test_cli_serve_result_before_run_fails(tmp_path, job_trace, capsys):
    from repro.cli import main

    store = JobStore(tmp_path / "store")
    job_id = _submit(store, job_trace)
    assert main(["serve", "--store", str(tmp_path / "store"),
                 "result", job_id]) == 1
    assert "no result yet" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record", [[], {"schema": "repro.obs/job/v1"}], ids=["list", "schema-only"]
)
@pytest.mark.parametrize(
    "command",
    [["status"], ["status", "0001-bad"], ["run"], ["run", "0001-bad"],
     ["result", "0001-bad"]],
    ids=" ".join,
)
def test_cli_serve_reports_a_malformed_ledger_record(tmp_path, capsys, record, command):
    from repro.cli import main

    store = JobStore(tmp_path / "store")
    job_dir = store.jobs_dir / "0001-bad"
    job_dir.mkdir()
    (job_dir / "job.json").write_text(json.dumps(record))
    assert main(["serve", "--store", str(store.root), *command]) == 2
    assert capsys.readouterr().err.startswith("error: job")


def test_cli_cache_stats_and_prune(fake_cache, capsys):
    from repro.cli import main

    assert main(["cache", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "files:  4" in out
    assert main(["cache", "--prune", "--max-bytes", "1500"]) == 0
    out = capsys.readouterr().out
    assert "pruned: 3 trace(s)" in out
    assert "files:  1" in out
