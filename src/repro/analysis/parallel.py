"""Parallel parameter sweeps over a shared reference trace.

A sweep replays one captured trace against many cache configurations
(Tables 2-5 and every figure do exactly this).  Each replay is
independent, so the points fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

The trace is the bulky part — hundreds of thousands of references — so
it is shipped to the workers once, through the
:mod:`repro.trace.io` file format, instead of being pickled into every
task: the pool initializer loads the file into a module global and each
task carries only its :class:`~repro.core.config.SimulationConfig`.
This works under both the ``fork`` and ``spawn`` start methods.

Callers that sweep repeatedly (the benchmark harness, figure scripts
iterating on a parameter grid) should hold a :class:`SweepPool` open:
the worker processes — and the per-worker trace load — are paid for
once at pool construction and amortized over every subsequent
:meth:`SweepPool.map`.  A bare :func:`run_sweep` call builds and tears
down a pool internally, which is convenient for one-shot sweeps but
was mistaken for free by the benchmark: pool startup dominated the
sweep itself and ``parallel_speedup`` came out below 1.

Results are plain :class:`~repro.core.stats.SystemStats` objects (they
pickle cleanly) in the same order as the configurations passed in, and
are bit-identical to serial :func:`~repro.core.replay.replay` calls —
replay is deterministic given (trace, config).
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.cluster.replay import (
    replay_clustered,
    replay_shard,
    split_trace,
    unshard_error,
)
from repro.cluster.system import ClusterStats
from repro.core.config import SimulationConfig
from repro.core.replay import ReplayBlockedError, replay, replay_ranges
from repro.core.stats import SystemStats
from repro.core.system import PIMCacheSystem
from repro.obs.log import get_logger
from repro.obs.manifest import build_manifest, config_fingerprint
from repro.obs.telemetry import (
    DEFAULT_CHUNK_REFS,
    DEFAULT_INTERVAL_SECONDS,
    SweepTelemetry,
    heartbeat,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.io import read_trace, write_trace

logger = get_logger("analysis.parallel")

#: Trace loaded once per worker process by :func:`_init_worker`.
_worker_trace: Optional[TraceBuffer] = None

#: Heartbeat queue handed to workers by :func:`_init_worker` (None when
#: the sweep runs without telemetry — the zero-overhead default).
_worker_queue = None
_worker_chunk: int = DEFAULT_CHUNK_REFS
_worker_interval: float = DEFAULT_INTERVAL_SECONDS
_worker_points_done: int = 0


def _init_worker(
    trace_path: str,
    queue=None,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
) -> None:
    global _worker_trace, _worker_queue, _worker_chunk, _worker_interval
    _worker_trace = read_trace(trace_path)
    _worker_queue = queue
    _worker_chunk = chunk_refs
    _worker_interval = interval_seconds


def _put_heartbeat(record: dict) -> None:
    """Ship one heartbeat; telemetry loss must never kill a sweep."""
    queue = _worker_queue
    if queue is None:
        return
    try:
        queue.put(record)
    except (OSError, EOFError, BrokenPipeError):  # collector went away
        pass


def _replay_point(
    trace: TraceBuffer, config: SimulationConfig, point: int
) -> SystemStats:
    """Replay one sweep point in telemetry-sized chunks.

    Identical counters to a single :func:`~repro.core.replay.replay`
    call — the chunks are ranges of one kernel session, each settling
    its deferred folds at its end, and the system carries all state
    across ranges (the same mechanism as
    :func:`repro.obs.windows.windowed_replay`, which the tests assert).
    Between chunks the worker emits a heartbeat when
    :data:`_worker_interval` has elapsed, plus a final ``done`` record
    when the point completes.  Chunked telemetry drives one flat
    system, so a clustered config raises ``ValueError``.
    """
    global _worker_points_done
    if _worker_queue is None:
        return replay(trace, config)
    if config.cluster.n_clusters > 1:
        raise ValueError(
            f"sweep telemetry replays one bus; point {point} is a "
            f"{config.cluster.n_clusters}-cluster config"
        )
    worker = os.getpid()
    system = PIMCacheSystem(config, trace.n_pes)
    stats = system.stats
    total = len(trace)
    seq = 0
    mark_time = time.perf_counter()
    mark_done = 0
    mark_refs = 0
    mark_hits = 0
    done = 0
    with replay_ranges(trace, system) as session:
        for start in range(0, total, _worker_chunk):
            done = min(start + _worker_chunk, total)
            session.run(start, done)
            now = time.perf_counter()
            if now - mark_time < _worker_interval and done < total:
                continue
            refs_now = sum(sum(row) for row in stats.refs)
            hits_now = sum(sum(row) for row in stats.hits)
            delta_refs = refs_now - mark_refs
            delta_hits = hits_now - mark_hits
            _put_heartbeat(
                heartbeat(
                    worker=worker,
                    seq=seq,
                    point=point,
                    points_done=_worker_points_done,
                    refs_done=done,
                    refs_total=total,
                    refs_per_sec=(done - mark_done) / max(now - mark_time, 1e-9),
                    miss_ratio=(
                        (delta_refs - delta_hits) / delta_refs if delta_refs else 0.0
                    ),
                    done=done >= total,
                )
            )
            seq += 1
            mark_time, mark_done = now, done
            mark_refs, mark_hits = refs_now, hits_now
    if total == 0:
        _put_heartbeat(
            heartbeat(worker, 0, point, _worker_points_done, 0, 0, 0.0, 0.0,
                      done=True)
        )
    _worker_points_done += 1
    return stats


def _replay_one_indexed(task) -> SystemStats:
    """Pool task: replay ``(point_index, config)``, streaming heartbeats
    when the pool has telemetry."""
    index, config = task
    assert _worker_trace is not None, "worker initializer did not run"
    return _replay_point(_worker_trace, config, index)


def _warm_task(_index: int) -> int:
    """No-op pool task: proves a worker is up with its trace loaded."""
    assert _worker_trace is not None, "worker initializer did not run"
    return len(_worker_trace)


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: one per *usable* CPU.

    ``os.sched_getaffinity`` sees cgroup/taskset restrictions, so a
    container pinned to one core gets 1 here even when the host machine
    has more — ``os.cpu_count`` reports the host and oversubscribes.
    Platforms without affinity support fall back to ``os.cpu_count``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class SweepWorkerError(RuntimeError):
    """A sweep worker died mid-task (OOM-kill, SIGKILL, segfault).

    The executor's own :class:`BrokenProcessPool` says only that *some*
    process vanished; this wraps it with what the caller needs to act —
    how many configs were in flight, and that the pool has already
    respawned its workers (:meth:`SweepPool.respawn`) so a retried
    :meth:`SweepPool.map` is bit-identical to an undisturbed sweep.
    Sweeps that must survive worker death mid-*point* belong on the
    checkpointing job service (``repro serve``), which retries from the
    last checkpoint; this error's message points there.
    """

    def __init__(self, jobs: int, n_configs: int):
        super().__init__(
            f"a sweep worker process died while mapping {n_configs} "
            f"config(s) over {jobs} worker(s); the pool has respawned "
            "its workers, so the map may be retried. For runs that "
            "should survive worker death mid-point, submit through the "
            "checkpointing job service (repro serve) instead."
        )
        self.jobs = jobs
        self.n_configs = n_configs


class SweepPool:
    """A persistent worker pool serving many sweeps over one trace.

    The expensive parts of a parallel sweep — spawning worker
    processes and loading the trace into each — happen once, at
    construction, and amortize over every :meth:`map` call::

        with SweepPool(trace, jobs=4) as pool:
            pool.warm()                 # spawn + load now, not mid-timing
            for grid in parameter_grids:
                results = pool.map(grid)

    ``jobs<=1`` degrades to a poolless serial mode (``kind ==
    "serial"``): the trace is loaded in-process once and :meth:`map`
    replays directly, so callers need no special casing on single-CPU
    hosts.  Results always come back in input order and are
    bit-identical to serial replay (replay is deterministic given
    (trace, config)).

    The pool owns its temp trace file (when constructed from an
    in-memory buffer) and its workers; use it as a context manager or
    call :meth:`close`.
    """

    def __init__(
        self,
        trace: Union[TraceBuffer, str, Path],
        jobs: Optional[int] = None,
        telemetry: Optional[SweepTelemetry] = None,
    ):
        if jobs is None:
            jobs = default_jobs()
        self.jobs = max(1, jobs)
        self.telemetry = telemetry
        self._tmp_path: Optional[str] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._trace: Optional[TraceBuffer] = None
        self._initargs: Optional[tuple] = None
        if self.jobs <= 1:
            self._trace = (
                read_trace(trace) if isinstance(trace, (str, Path)) else trace
            )
            return
        if isinstance(trace, (str, Path)):
            trace_path = str(trace)
        else:
            fd, self._tmp_path = tempfile.mkstemp(
                suffix=".trace", prefix="repro-sweep-"
            )
            os.close(fd)
            write_trace(trace, self._tmp_path)
            trace_path = self._tmp_path
        if telemetry is not None:
            # A Manager queue proxy pickles into initargs under both
            # fork and spawn, unlike a bare multiprocessing.Queue.
            self._initargs = (
                trace_path,
                telemetry.queue,
                telemetry.chunk_refs,
                telemetry.interval_seconds,
            )
        else:
            self._initargs = (
                trace_path,
                None,
                DEFAULT_CHUNK_REFS,
                DEFAULT_INTERVAL_SECONDS,
            )
        self._pool = self._spawn_pool()

    def _spawn_pool(self) -> ProcessPoolExecutor:
        assert self._initargs is not None
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_init_worker,
            initargs=self._initargs,
        )

    def respawn(self) -> None:
        """Rebuild the worker processes after a :class:`SweepWorkerError`.

        The replacement workers initialize from the pool's
        construction-time state — same trace file, same telemetry
        queue — so a retried :meth:`map` is bit-identical to what the
        dead pool would have produced.  Serial pools have no workers and
        need no respawn.
        """
        if self._initargs is None:
            return
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._spawn_pool()

    @property
    def kind(self) -> str:
        """``"persistent"`` when backed by worker processes, else
        ``"serial"`` (the ``jobs<=1`` in-process mode)."""
        return "persistent" if self._pool is not None else "serial"

    def warm(self) -> None:
        """Spawn every worker and block until each has its trace loaded.

        The executor spawns workers lazily, one per submitted task, so
        without this the first :meth:`map` pays the startup cost.
        Submitting ``jobs`` tasks forces the full spawn (each submit
        grows the pool while it is below ``max_workers``); waiting on
        them proves every initializer ran.  Serial pools are warm by
        construction.
        """
        if self._pool is not None:
            futures = [
                self._pool.submit(_warm_task, index)
                for index in range(self.jobs)
            ]
            for future in futures:
                future.result()

    def map(self, configs: Sequence[SimulationConfig]) -> List[SystemStats]:
        """Replay the pool's trace against every config, in input order."""
        configs = list(configs)
        if self._pool is not None:
            try:
                return list(
                    self._pool.map(_replay_one_indexed, enumerate(configs))
                )
            except BrokenProcessPool as error:
                # Replace the dead workers before surfacing the error:
                # a caller that catches SweepWorkerError and retries
                # map() gets a working pool, not a stale broken
                # executor.
                self.respawn()
                raise SweepWorkerError(self.jobs, len(configs)) from error
        assert self._trace is not None
        if self.telemetry is None:
            return [replay(self._trace, config) for config in configs]
        # Serial mode streams heartbeats too — same records, emitted
        # from the parent process itself through the module globals.
        global _worker_queue, _worker_chunk, _worker_interval
        _worker_queue = self.telemetry.queue
        _worker_chunk = self.telemetry.chunk_refs
        _worker_interval = self.telemetry.interval_seconds
        try:
            return [
                _replay_point(self._trace, config, index)
                for index, config in enumerate(configs)
            ]
        finally:
            _worker_queue = None

    def close(self) -> None:
        """Shut the workers down and delete the pool's temp trace file."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._tmp_path is not None:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass
            self._tmp_path = None
        self._trace = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_sweep(
    trace: Union[TraceBuffer, str, Path],
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    pool: Optional[SweepPool] = None,
    telemetry: Optional[SweepTelemetry] = None,
) -> List[SystemStats]:
    """Replay *trace* against every config, farming points out to *jobs*
    worker processes.

    *trace* may be an in-memory :class:`TraceBuffer` (written to a
    temporary file for shipment) or a path to an already-written trace
    file (e.g. straight out of the :class:`~repro.analysis.runner.
    Workloads` disk cache, skipping the extra write).

    ``jobs=None`` uses one worker per usable CPU; ``jobs<=1`` (or a
    single config) runs serially in-process, in a serial
    :class:`SweepPool` with no worker processes.
    Results come back in input order and match a serial run bit for
    bit.

    Passing an open :class:`SweepPool` as *pool* serves the sweep from
    its already-warm workers (*trace*, *jobs* and *telemetry* are
    ignored — the pool fixed them at construction).  Without one, a
    pool is built and torn down for this call alone; callers sweeping
    repeatedly should hold their own.

    *telemetry* (a :class:`~repro.obs.telemetry.SweepTelemetry`) makes
    each worker stream heartbeat/progress records while it replays;
    without it workers replay through the unchunked fast path.
    """
    configs = list(configs)
    if pool is not None:
        return pool.map(configs)
    if jobs is None:
        jobs = default_jobs()
    jobs = min(jobs, len(configs)) if configs else 1
    logger.info("sweeping %d configs across %d workers", len(configs), jobs)
    with SweepPool(trace, jobs=jobs, telemetry=telemetry) as sweep_pool:
        return sweep_pool.map(configs)


def run_sweep_report(
    trace: Union[TraceBuffer, str, Path],
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
    trace_cache_key: Optional[str] = None,
    telemetry: Optional[SweepTelemetry] = None,
) -> dict:
    """:func:`run_sweep` plus provenance: a JSON-ready report.

    Each sweep point carries its own config fingerprint (so a point can
    be matched back to its configuration from the report alone) and the
    report as a whole carries a ``repro.obs/manifest/v1`` manifest
    keyed on the *first* configuration — the sweep's baseline.  When
    the sweep streamed *telemetry*, the fleet summary (heartbeat count,
    points completed, stall episodes) lands in the manifest extra.

    An empty config list yields a well-formed empty report: zero
    points, a schema-valid manifest with a null config (there is no
    baseline to key on), and a real wall time.
    """
    configs = list(configs)
    start = time.perf_counter()
    results = (
        run_sweep(trace, configs, jobs=jobs, telemetry=telemetry)
        if configs
        else []
    )
    wall = time.perf_counter() - start
    extra = {"kind": "sweep", "n_points": len(configs)}
    if telemetry is not None:
        extra["telemetry"] = telemetry.summary()
    manifest = build_manifest(
        config=configs[0] if configs else None,
        trace_cache_key=trace_cache_key,
        wall_seconds=round(wall, 3),
        extra=extra,
    )
    return {
        "manifest": manifest,
        "wall_seconds": round(wall, 3),
        "points": [
            {
                "config_hash": config_fingerprint(config),
                "stats": stats.as_dict(),
            }
            for config, stats in zip(configs, results)
        ],
    }


def _replay_cluster_task(task):
    """Pool task: replay one cluster's shard."""
    return replay_shard(*task)


def run_clustered(
    trace: Union[TraceBuffer, str, Path],
    config: SimulationConfig,
    n_pes: Optional[int] = None,
    jobs: Optional[int] = None,
) -> ClusterStats:
    """Clustered replay with per-cluster shards fanned out to the pool.

    The trace splits into one shard per cluster
    (:func:`repro.cluster.replay.split_trace`); each shard replays
    through :func:`repro.core.replay.replay` in its own worker process.  The
    merge is deterministic by construction: clusters share no state, so
    each shard's result is a pure function of (shard, config,
    cluster index), and results are folded in cluster-index order
    (:meth:`~concurrent.futures.Executor.map` preserves input order)
    regardless of which worker finished first.  ``jobs<=1`` (or a
    single cluster) is :func:`repro.cluster.replay.replay_clustered`
    in-process — bit-identical to the pooled run, which the
    determinism tests assert.  A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its index and
    PE in *trace*, pooled or not.
    """
    if isinstance(trace, (str, Path)):
        trace = read_trace(trace)
    n_clusters = config.cluster.n_clusters
    if jobs is None:
        jobs = default_jobs()
    jobs = min(jobs, n_clusters)
    logger.info(
        "clustered replay: %d clusters across %d workers", n_clusters, jobs
    )
    if jobs <= 1:
        return replay_clustered(trace, config, n_pes)
    pes = n_pes if n_pes is not None else trace.n_pes
    shards = split_trace(trace, pes, n_clusters)
    # Unlike a sweep — one big trace replayed many times — each shard
    # is shipped to exactly one task, so the shards travel as pickled
    # task arguments (columnar arrays pickle as raw bytes, milliseconds
    # for typical traces) rather than through a temp-file hand-off.
    tasks = [
        (shard, config, pes // n_clusters, index)
        for index, shard in enumerate(shards)
    ]
    results = []
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(_replay_cluster_task, tasks):
                results.append(result)
    except ReplayBlockedError as error:
        # Results arrive in cluster order, so the blocked shard is the
        # one after the last result gathered.
        raise unshard_error(
            error, trace, pes, n_clusters, len(results)
        ) from None
    return ClusterStats(
        [stats for stats, _ in results], [net for _, net in results]
    )
