"""Parallel parameter sweeps over a shared reference trace.

A sweep replays one captured trace against many cache configurations
(Tables 2-5 and every figure do exactly this).  Each replay is
independent, so the points fan out over a :class:`SweepPool`: ``jobs``
:class:`~repro.cluster.replay.Worker` processes forked from the parent
after it holds the trace.  The trace is the bulky part — hundreds of
thousands of references — and a forked child shares it with the parent
page for page, so it is never written, pickled or shipped; a task
carries only its :class:`~repro.core.config.SimulationConfig`.  The
parent hands the next point to whichever worker answers first
(:func:`multiprocessing.connection.wait`), and folds the heartbeats a
telemetry sweep streams over the same pipes into its
:class:`~repro.obs.telemetry.TelemetryCollector`.

Workers are forked only where
:func:`~repro.cluster.replay.replay_worker_available` allows it (fork,
a non-daemonic process, one live thread, at least two jobs); otherwise
the pool replays serially in-process.  A clustered replay
(:func:`run_clustered`) is the same pool with one task per cluster,
each worker cutting its cluster's shard from its own copy of the trace.

Callers that sweep repeatedly (the benchmark harness, figure scripts
iterating on a parameter grid) should hold a :class:`SweepPool` open:
the fork is paid once and amortized over every :meth:`SweepPool.map`.

Results are plain :class:`~repro.core.stats.SystemStats` objects in the
same order as the configurations passed in, and are bit-identical to
serial :func:`~repro.core.replay.replay` calls — replay is
deterministic given (trace, config).
"""

from __future__ import annotations

import os
import time
from multiprocessing.connection import wait
from pathlib import Path
from typing import List, Optional, Sequence, Union

# ``split_trace`` and ``replay_shard`` are also looked up here by name
# (perfbench's tracer wraps them).
from repro.cluster.replay import (
    BEAT,
    ERROR,
    ReplayWorkerError,
    Worker,
    cluster_shard,
    default_jobs,
    replay_clustered,
    replay_shard,
    replay_worker_available,
    split_trace,
    unshard_error,
)
from repro.cluster.system import ClusterStats
from repro.core.config import SimulationConfig
from repro.core.replay import (
    ReplayBlockedError,
    refuse_lazypim,
    replay,
    replay_ranges,
)
from repro.core.stats import SystemStats
from repro.core.system import PIMCacheSystem
from repro.obs.log import get_logger
from repro.obs.manifest import build_manifest, config_fingerprint
from repro.obs.telemetry import SweepTelemetry, heartbeat
from repro.trace.buffer import TraceBuffer
from repro.trace.io import read_trace

logger = get_logger("analysis.parallel")


class SweepWorkerError(ReplayWorkerError):
    """A sweep worker died mid-task (OOM-kill, SIGKILL, segfault).

    Says what the caller needs to act: the worker's exit code, how many
    configs were in flight, and that the pool has already respawned its
    workers (:meth:`SweepPool.respawn`) so a retried
    :meth:`SweepPool.map` is bit-identical to an undisturbed sweep.
    Sweeps that must survive worker death mid-*point* belong on the
    checkpointing job service (``repro serve``), which retries from the
    last checkpoint; this error's message points there.
    """

    def __init__(self, jobs: int, n_configs: int, exitcode: Optional[int] = None):
        super().__init__(
            exitcode,
            f"a sweep worker process exited with code {exitcode} while "
            f"mapping {n_configs} config(s) over {jobs} worker(s); the "
            "pool has respawned its workers, so the map may be retried. "
            "For runs that should survive worker death mid-point, submit "
            "through the checkpointing job service (repro serve) instead.",
        )
        self.jobs = jobs
        self.n_configs = n_configs


class SweepPool:
    """A persistent worker pool serving many sweeps over one trace.

    The workers fork once, at construction, and serve every
    :meth:`map` call::

        with SweepPool(trace, jobs=4) as pool:
            for grid in parameter_grids:
                results = pool.map(grid)

    Where no worker may be forked (``jobs<=1``, or
    :func:`~repro.cluster.replay.replay_worker_available` says no) the
    pool is serial (``kind == "serial"``) and :meth:`map` replays
    in-process, so callers need no special casing.  Results always come
    back in input order and are bit-identical to serial replay.

    With *telemetry*, each point replays in chunks and streams
    heartbeats (:func:`~repro.obs.telemetry.heartbeat`) into the
    telemetry's collector, from the workers or from the serial pool
    itself.  Use the pool as a context manager or call :meth:`close`.
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
        self._trace = read_trace(trace) if isinstance(trace, (str, Path)) else trace
        #: Sweep points replayed by this process: a worker's own count.
        self._points_done = 0
        self._workers: List[Worker] = []
        self._fork()

    def _fork(self) -> None:
        if not replay_worker_available(self.jobs):
            return
        try:
            for _ in range(self.jobs):
                siblings = [worker.conn for worker in self._workers]
                self._workers.append(Worker(self._handle, siblings))
        except BaseException:
            self.close()
            raise

    def respawn(self) -> None:
        """Replace the worker processes, as after a
        :class:`SweepWorkerError` (which :meth:`map` has already done).

        The replacements fork from the pool's own trace and telemetry,
        so a retried :meth:`map` is bit-identical to what the dead
        workers would have produced.  Serial pools have no workers and
        need no respawn.
        """
        if self._workers:
            self.close()
            self._fork()

    @property
    def kind(self) -> str:
        """``"persistent"`` when backed by worker processes, else
        ``"serial"``."""
        return "persistent" if self._workers else "serial"

    @property
    def pids(self) -> List[int]:
        """The process ids of the workers (none in a serial pool)."""
        return [worker.process.pid for worker in self._workers]

    def warm(self) -> None:
        """Block until every worker has answered once."""
        self._run("_ping", [()] * len(self._workers))

    def map(self, configs: Sequence[SimulationConfig]) -> List[SystemStats]:
        """Replay the pool's trace against every config, in input order."""
        configs = list(configs)
        try:
            return self._run("_point", list(enumerate(configs)))
        except ReplayWorkerError as death:
            raise SweepWorkerError(
                self.jobs, len(configs), death.exitcode
            ) from death

    def _run(self, task: str, tasks: Sequence[tuple]) -> list:
        """``self.<task>(emit, *args)`` for each *args* of *tasks*, on
        the workers or in-process; the results in order.  A task's
        exception is raised once all tasks in flight have answered: the
        first one's in task order."""
        if not self._workers:
            emit = self.telemetry.collector.handle if self.telemetry else None
            return [getattr(self, task)(emit, *args) for args in tasks]
        collector = self.telemetry.collector if self.telemetry else None
        timeout = self.telemetry.interval_seconds if self.telemetry else None
        results: list = [None] * len(tasks)
        errors = {}
        queued = iter(enumerate(tasks))
        idle = list(self._workers)
        busy = {}
        try:
            while True:
                # Tasks go out in order, so none queued can precede an
                # error already seen.
                while idle and not errors:
                    index, args = next(queued, (None, None))
                    if index is None:
                        break
                    worker = idle.pop()
                    worker.send((task, args))
                    busy[worker.conn] = worker, index
                if not busy:
                    break
                for conn in wait(list(busy), timeout):
                    worker, index = busy[conn]
                    kind, payload = worker.receive()
                    if kind == BEAT:
                        collector.handle(payload)
                        continue
                    del busy[conn]
                    idle.append(worker)
                    if kind == ERROR:
                        errors[index] = payload
                    else:
                        results[index] = payload
                if collector is not None:
                    collector.check_stalls()
        except BaseException:
            # Workers still busy would answer into the next call.
            self.respawn()
            raise
        if errors:
            raise errors[min(errors)]
        return results

    def _handle(self, request, conn):
        """A worker's handler: run one task of :meth:`_run`."""
        task, args = request
        emit = None
        if self.telemetry is not None:
            def emit(record):
                conn.send((BEAT, record))
        return getattr(self, task)(emit, *args)

    def _ping(self, emit) -> int:
        return len(self._trace)

    def _point(self, emit, point: int, config: SimulationConfig) -> SystemStats:
        """Replay one sweep point; with *emit*, in telemetry-sized chunks.

        Identical counters to a single :func:`~repro.core.replay.replay`
        call — the chunks are ranges of one kernel session, each
        settling its deferred folds at its end, and the system carries
        all state across ranges (the same mechanism as
        :func:`repro.obs.windows.windowed_replay`, which the tests
        assert).  Between chunks a heartbeat goes to *emit* when the
        telemetry interval has elapsed, plus a final ``done`` record
        when the point completes.  Chunked telemetry drives one flat
        system, so a clustered config raises ``ValueError``, and the
        chunks would cut LazyPIM batches, so a LazyPIM config does too.
        """
        trace = self._trace
        if emit is None:
            return replay(trace, config)
        if config.cluster.n_clusters > 1:
            raise ValueError(
                f"sweep telemetry replays one bus; point {point} is a "
                f"{config.cluster.n_clusters}-cluster config"
            )
        refuse_lazypim(config, f"sweep telemetry (point {point})")
        chunk = self.telemetry.chunk_refs
        interval = self.telemetry.interval_seconds
        worker = os.getpid()
        system = PIMCacheSystem(config, trace.n_pes)
        stats = system.stats
        total = len(trace)
        seq = 0
        mark_time = time.perf_counter()
        mark_done = 0
        mark_refs = 0
        mark_hits = 0
        with replay_ranges(trace, system) as session:
            for start in range(0, total, chunk):
                done = min(start + chunk, total)
                session.run(start, done)
                now = time.perf_counter()
                if now - mark_time < interval and done < total:
                    continue
                refs_now = sum(sum(row) for row in stats.refs)
                hits_now = sum(sum(row) for row in stats.hits)
                delta_refs = refs_now - mark_refs
                delta_hits = hits_now - mark_hits
                emit(
                    heartbeat(
                        worker=worker,
                        seq=seq,
                        point=point,
                        points_done=self._points_done,
                        refs_done=done,
                        refs_total=total,
                        refs_per_sec=(done - mark_done)
                        / max(now - mark_time, 1e-9),
                        miss_ratio=(
                            (delta_refs - delta_hits) / delta_refs
                            if delta_refs else 0.0
                        ),
                        done=done >= total,
                    )
                )
                seq += 1
                mark_time, mark_done = now, done
                mark_refs, mark_hits = refs_now, hits_now
        if total == 0:
            emit(heartbeat(worker, 0, point, self._points_done, 0, 0, 0.0,
                           0.0, done=True))
        self._points_done += 1
        return stats

    def _cluster(self, emit, config: SimulationConfig, n_pes: int, cluster: int):
        """Replay *cluster*'s shard of the pool's trace: ``(stats,
        network stats)``, or its blocked reference re-indexed to the
        whole trace."""
        n_clusters = config.cluster.n_clusters
        shard = cluster_shard(self._trace, n_pes, n_clusters, cluster)
        try:
            return replay_shard(shard, config, n_pes // n_clusters, cluster)
        except ReplayBlockedError as error:
            raise unshard_error(
                error, self._trace, n_pes, n_clusters, cluster
            ) from None

    def close(self) -> None:
        """Stop the workers; no process outlives this."""
        while self._workers:
            self._workers.pop().close()

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

    *trace* may be an in-memory :class:`TraceBuffer` or a path to a
    trace file (e.g. straight out of the :class:`~repro.analysis.runner.
    Workloads` disk cache), read once by the parent.

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


def run_clustered(
    trace: Union[TraceBuffer, str, Path],
    config: SimulationConfig,
    n_pes: Optional[int] = None,
    jobs: Optional[int] = None,
) -> ClusterStats:
    """Clustered replay with one task per cluster on a :class:`SweepPool`.

    Each worker cuts its cluster's shard from its own copy of the trace
    (:func:`repro.cluster.replay.cluster_shard`) and replays it through
    :func:`repro.core.replay.replay`.  The merge is deterministic by
    construction: clusters share no state, so each shard's result is a
    pure function of (shard, config, cluster index), and results are
    folded in cluster-index order regardless of which worker finished
    first.  Where the pool would be serial (``jobs<=1``, a single
    cluster, or no fork allowed) this is
    :func:`repro.cluster.replay.replay_clustered` in-process —
    bit-identical to the pooled run, which the determinism tests
    assert.  A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its index and
    PE in *trace*, pooled or not; a dead worker raises
    :class:`~repro.cluster.replay.ReplayWorkerError`.
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
    with SweepPool(trace, jobs=jobs) as pool:
        if pool.kind == "serial":
            return replay_clustered(trace, config, n_pes)
        pes = n_pes if n_pes is not None else trace.n_pes
        results = pool._run(
            "_cluster", [(config, pes, cluster) for cluster in range(n_clusters)]
        )
    return ClusterStats(
        [stats for stats, _ in results], [net for _, net in results]
    )
