"""Replay paths for clustered systems: sharded, interleaved, merged.

:func:`repro.core.replay.replay` takes any config: when
``config.cluster.n_clusters > 1`` (or its *system* is a
:class:`~repro.cluster.system.ClusteredSystem`) it hands off to
:func:`_replay_clustered`, which splits the range into per-cluster
shards (:func:`split_trace`) and replays each through the generated
kernel into its cluster's persistent
:class:`~repro.cluster.system.ClusterCacheSystem`.  Successive ranges
compose exactly as they do on a flat system, which is what streaming
(:func:`repro.serve.stream.replay_stream`) and :func:`replay_machine`
(the statistics of an execution-driven run, from its trace) rely on.
:func:`replay_clustered` is the same replay returning the per-cluster
and network breakdown.

:func:`replay_interleaved` drives :meth:`ClusteredSystem.access` one
reference at a time in trace order instead — the ordering-faithful
reference path (and the serial baseline the clustered benchmark
measures).  The two agree bit-for-bit because clusters share no mutable
state: a cluster's counters are a function of its own PEs' references
*in their own relative order*, which sharding preserves.  That same
argument makes the shard results independent of worker scheduling, so
:func:`repro.analysis.parallel.run_clustered` can fan shards out over
forked workers (:func:`cluster_shard`, :func:`replay_shard`) and merge
deterministically (shards are merged in cluster-index order regardless
of completion order).

:class:`MachineReplay` is the replay of an execution-driven run: one
live system fed the trace in ranges, flushed at the run's garbage
collections.  :func:`replay_machine` feeds it the whole trace after
the run; a :class:`ReplayWorker` runs it in a forked process fed each
chunk as the machine records it.

:class:`Worker` is the one way replay leaves the parent process: a
child forked after the parent holds the trace, serving one pipe of
requests and answering each with a result, a heartbeat record or the
exception it raised.  The :class:`ReplayWorker` of a run, the workers
of a :class:`~repro.analysis.parallel.SweepPool` and so the clustered
fan-out are all :class:`Worker` processes: one fork, behind one gate
(:func:`replay_worker_available`), with one death path, EOF or a
broken pipe turned into a :class:`ReplayWorkerError` naming the exit
code.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import threading
from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.network import NetworkStats
from repro.cluster.system import ClusterCacheSystem, ClusterStats, ClusteredSystem
from repro.core.config import SimulationConfig
from repro.core.replay import ReplayBlockedError, replay, replay_access_driven
from repro.core.stats import SystemStats
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer


def split_trace(
    buffer: TraceBuffer,
    n_pes: int,
    n_clusters: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> List[TraceBuffer]:
    """Partition references ``[start, stop)`` of *buffer* (the whole
    buffer by default) into per-cluster shards (see
    :func:`cluster_shard`)."""
    return [
        cluster_shard(buffer, n_pes, n_clusters, cluster, start, stop)
        for cluster in range(n_clusters)
    ]


def cluster_shard(
    buffer: TraceBuffer,
    n_pes: int,
    n_clusters: int,
    cluster: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> TraceBuffer:
    """The references of *cluster*'s PEs among ``[start, stop)`` of
    *buffer*, in their original relative order, with PE indices
    renumbered to cluster-local (``pe - cluster * pes_per_cluster``).

    The split is on the parallel fast path (it runs once per clustered
    replay, over the full trace), so it avoids a per-reference Python
    loop: the columns are filtered with numpy boolean masks over
    zero-copy views of the column arrays.
    """
    if n_pes % n_clusters != 0:
        raise ValueError(
            f"n_pes ({n_pes}) must divide evenly into {n_clusters} clusters"
        )
    pes_per_cluster = n_pes // n_clusters
    lo = cluster * pes_per_cluster
    window = slice(start, stop)
    pe_col, op_col, area_col, addr_col, flags_col = buffer.columns()
    pe = np.frombuffer(pe_col, dtype=np.int8)[window]
    mask = (pe >= lo) & (pe < lo + pes_per_cluster)

    def pick(column: array) -> array:
        view = np.frombuffer(column, dtype=column.typecode)[window]
        return array(column.typecode, view[mask].tobytes())

    shard = TraceBuffer(pes_per_cluster)
    shard._pe = array("b", (pe[mask] - lo).tobytes())
    shard._op = pick(op_col)
    shard._area = pick(area_col)
    shard._addr = pick(addr_col)
    shard._flags = pick(flags_col)
    return shard


def unshard_error(
    error: ReplayBlockedError,
    buffer: TraceBuffer,
    n_pes: int,
    n_clusters: int,
    cluster: int,
    start: int = 0,
) -> ReplayBlockedError:
    """*error*, raised replaying *cluster*'s shard of the references of
    *buffer* from *start* on (see :func:`split_trace`), re-indexed to
    the blocked reference's position and PE number in *buffer*."""
    pes_per_cluster = n_pes // n_clusters
    lo = cluster * pes_per_cluster
    pe = np.frombuffer(buffer.columns()[0], dtype=np.int8)[start:]
    positions = np.flatnonzero((pe >= lo) & (pe < lo + pes_per_cluster))
    return ReplayBlockedError(
        start + int(positions[error.index]), error.pe + lo, error.op,
        error.area, error.address,
    )


def replay_shard(
    shard: TraceBuffer,
    config: SimulationConfig,
    pes_per_cluster: int,
    cluster_index: int,
    mode: Optional[str] = None,
    batch_refs: Optional[int] = None,
    signature_bits: Optional[int] = None,
) -> "tuple[SystemStats, NetworkStats]":
    """Replay one cluster's shard through :func:`repro.core.replay.replay`.

    Returns ``(stats, network_stats)`` — both picklable: the unit of
    work :func:`repro.analysis.parallel.run_clustered` ships to pool
    workers.  *mode* selects the coherence execution
    mode per shard: under ``"lazypim"`` each cluster runs its own
    independent speculative batch engine over its shard — speculation
    is a per-bus mechanism, so per-cluster batching is the faithful
    clustered composition.
    """
    system = ClusterCacheSystem(config, pes_per_cluster, cluster_index)
    stats = replay(
        shard,
        system=system,
        mode=mode,
        batch_refs=batch_refs,
        signature_bits=signature_bits,
    )
    return stats, system.network.stats


def replay_clustered(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    mode: Optional[str] = None,
    batch_refs: Optional[int] = None,
    signature_bits: Optional[int] = None,
) -> ClusterStats:
    """:func:`repro.core.replay.replay` of *buffer* into a fresh
    :class:`ClusteredSystem`, returning the per-cluster and network
    breakdown alongside the merged stats.

    A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its index and
    PE in *buffer* (the first blocked shard in cluster order).
    """
    system = ClusteredSystem(
        config if config is not None else SimulationConfig(),
        n_pes if n_pes is not None else buffer.n_pes,
    )
    replay(buffer, system=system, mode=mode, batch_refs=batch_refs,
           signature_bits=signature_bits)
    return system.cluster_stats()


def replay_interleaved(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    check_invariants_every: Optional[int] = None,
    values=None,
    on_result=None,
) -> ClusterStats:
    """Reference-at-a-time replay through :meth:`ClusteredSystem.access`.

    The ordering-faithful serial path: every reference dispatches in
    global trace order, exactly as an execution-driven run would issue
    them.  Counter-identical to :func:`replay_clustered` (the property
    tests assert it), but one dispatch per reference — this is the
    "serial" side of the clustered benchmark's speedup comparison.

    ``values`` and ``on_result`` are forwarded to
    :func:`repro.core.replay.replay_access_driven`; the differential
    oracle uses them to inject write values and check every read against
    its per-cluster flat-memory reference model.
    """
    if config is None:
        config = SimulationConfig()
    pes = n_pes if n_pes is not None else buffer.n_pes
    system = ClusteredSystem(config, pes)
    replay_access_driven(
        buffer,
        system,
        values=values,
        on_result=on_result,
        check_invariants_every=check_invariants_every,
    )
    return system.cluster_stats()


def new_system(config: SimulationConfig, n_pes: int):
    """A fresh system for *config*: clustered when K > 1, else flat."""
    if config.cluster.n_clusters > 1:
        return ClusteredSystem(config, n_pes)
    return PIMCacheSystem(config, n_pes)


def _replay_clustered(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig],
    n_pes: Optional[int],
    system: Optional[ClusteredSystem],
    start: int = 0,
    stop: Optional[int] = None,
    **kwargs,
) -> SystemStats:
    """:func:`repro.core.replay.replay` on a clustered machine: advance
    *system* (default: a fresh :class:`ClusteredSystem` for
    *config*/*n_pes*) by references ``[start, stop)`` of *buffer* and
    return its merged stats.

    Each cluster's shard of the range replays into that cluster's
    persistent system with *kwargs* (mode, batching, invariant
    period); a single cluster replays the range itself, the shard
    being the whole of it, so no copy is made and the kernel's
    preprocessing cache keys on the caller's buffer.  A blocked
    reference raises :class:`~repro.core.replay.ReplayBlockedError`
    with its position and PE in *buffer*.
    """
    if system is None:
        system = ClusteredSystem(
            config, n_pes if n_pes is not None else buffer.n_pes
        )
    if system.n_clusters == 1:
        replay(buffer, system=system.systems[0], start=start, stop=stop,
               **kwargs)
        return system.stats
    n_pes, n_clusters = system.n_pes, system.n_clusters
    shards = split_trace(buffer, n_pes, n_clusters, start, stop)
    for cluster, (sub, shard) in enumerate(zip(system.systems, shards)):
        if not len(shard):
            continue
        try:
            replay(shard, system=sub, **kwargs)
        except ReplayBlockedError as error:
            raise unshard_error(
                error, buffer, n_pes, n_clusters, cluster, start
            ) from None
    return system.stats


def system_result(system):
    """The result object of a replayed system: flat stats or, for a
    clustered system, the per-cluster breakdown."""
    if isinstance(system, ClusteredSystem):
        return system.cluster_stats()
    return system.stats


class MachineReplay:
    """The replay of an execution-driven run, fed its trace in ranges.

    One live system for *config* takes references ``[done, stop)`` at
    each :meth:`feed`, invalidated without charge at every garbage
    collection mark it passes, as the collector relocates the heap
    under the caches.  Replaying ``[0, b)`` then ``[b, n)`` into one
    system equals replaying ``[0, n)``, so any split of the trace gives
    the same :meth:`result`: :func:`replay_machine` feeds the whole
    trace at once, a :class:`ReplayWorker` feeds it as it is recorded.
    """

    def __init__(self, config: SimulationConfig, n_pes: int):
        self.system = new_system(config, n_pes)
        #: References replayed so far.
        self.done = 0
        self._flushed = 0

    def feed(self, trace: TraceBuffer, gc_marks: Sequence[int], stop: int) -> None:
        """Replay references ``[done, stop)`` of *trace*, flushing the
        caches at each of *gc_marks* (the run's, in order) up to *stop*."""
        system = self.system
        while self._flushed < len(gc_marks) and gc_marks[self._flushed] <= stop:
            mark = gc_marks[self._flushed]
            replay(trace, system=system, start=self.done, stop=mark)
            system.flush_all(silent=True)
            self.done = mark
            self._flushed += 1
        replay(trace, system=system, start=self.done, stop=stop)
        self.done = stop

    def result(self) -> Tuple[SystemStats, Optional[NetworkStats]]:
        """``(stats, None)`` on one bus, ``(merged stats, merged network
        counters)`` on a clustered machine."""
        system = self.system
        if isinstance(system, ClusteredSystem):
            return system.stats, system.cluster_stats().network
        return system.stats, None


def replay_machine(
    trace: TraceBuffer,
    config: SimulationConfig,
    gc_marks: Sequence[int] = (),
) -> Tuple[SystemStats, Optional[NetworkStats]]:
    """The cache statistics of an execution-driven run, from its trace.

    The machine's reference stream does not depend on the cache, so
    replaying the trace under *config* reproduces what driving the
    cache live would have counted: ``(stats, None)`` on one bus,
    ``(merged stats, merged network counters)`` when
    ``config.cluster.n_clusters > 1``.  *gc_marks* are the trace
    positions of the run's garbage collections (see
    :class:`MachineReplay`).
    """
    consumer = MachineReplay(config, trace.n_pes)
    consumer.feed(trace, gc_marks, len(trace))
    return consumer.result()


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


def replay_worker_available(jobs: Optional[int] = None) -> bool:
    """Whether *jobs* replay workers may be forked: the fork start
    method exists, *jobs* (default :func:`default_jobs`) is at least
    two, this process is not daemonic (those may not have children)
    and no other Python thread is alive (forking one is unsafe).  Every
    :class:`Worker` is forked only after this said yes."""
    if jobs is None:
        jobs = default_jobs()
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and jobs >= 2
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )


class ReplayWorkerError(RuntimeError):
    """A replay worker died without answering (SIGKILL, OOM-kill,
    ``os._exit``); :attr:`exitcode` says how."""

    def __init__(self, exitcode: Optional[int], message: Optional[str] = None):
        super().__init__(
            message
            or f"a replay worker exited with code {exitcode} before answering"
        )
        self.exitcode = exitcode


#: What a worker's message carries: a task's result, the exception the
#: task raised, or a heartbeat record sent while it runs.
RESULT, ERROR, BEAT = range(3)


class Worker:
    """A forked process that answers requests over one pipe.

    The child inherits the parent's memory, the trace above all, so a
    request carries only what differs between tasks.  For each request
    the child calls ``handle(request, conn)``: it may send ``(BEAT,
    record)`` heartbeats or read more from *conn*, and its return value,
    or the exception it raised, is the answer.  A ``None`` request, or
    the parent's end closing, ends the child.

    This is the one death path: a send that finds the pipe broken or a
    receive that finds EOF raises :class:`ReplayWorkerError` with the
    child's exit code.  The parent holds no copy of the child's end, so
    a dead child is seen at once, never as a hang.  *siblings* are the
    parent's ends of earlier workers' pipes, closed in the child for
    the same reason the other way round.
    """

    def __init__(self, handle, siblings: Sequence = ()):
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve,
            args=(handle, child, [self.conn, *siblings]),
            name="replay-worker",
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            child.close()

    def send(self, request) -> None:
        """Send one request."""
        try:
            self.conn.send(request)
        except OSError:
            raise self.death() from None

    def receive(self) -> tuple:
        """The next ``(kind, payload)`` message (see :data:`RESULT`)."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise self.death() from None

    def death(self) -> ReplayWorkerError:
        """The error of a child that is gone, once it is reaped."""
        self.close()
        return ReplayWorkerError(self.process.exitcode)

    def close(self) -> None:
        """Stop the child if it still runs and release the pipe."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def _serve(handle, conn, inherited) -> None:
    """The body of a :class:`Worker`'s child process."""
    # Ctrl-C reaches the whole process group; the parent decides.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    while True:
        try:
            request = conn.recv()
        except EOFError:  # the parent is gone
            return
        if request is None:
            return
        try:
            answer = (RESULT, handle(request, conn))
        except Exception as error:
            answer = (ERROR, error)
        try:
            conn.send(answer)
        except OSError:  # the parent is gone
            return


class ReplayWorker:
    """A :class:`Worker` that replays a run's trace while it is recorded.

    The child inherits the references and GC marks recorded so far and
    replays them into a :class:`MachineReplay` at once.  Each
    :meth:`feed` sends it, as raw column bytes, the references and marks
    recorded since the last one, which it replays while the machine
    goes on emulating; :meth:`result` sends the end and returns the
    child's ``(stats, network)`` — the same as :func:`replay_machine`
    of the whole trace, since only the split differs.

    A replay error in the child is re-raised by :meth:`result` as it
    was raised; a dead child raises :class:`ReplayWorkerError` from the
    next :meth:`feed` or :meth:`result`.  :meth:`result` and
    :meth:`close` each leave no process behind.
    """

    def __init__(
        self, trace: TraceBuffer, config: SimulationConfig, gc_marks: List[int]
    ):
        self._trace = trace
        self._marks = gc_marks
        self._sent = len(trace)
        self._sent_marks = len(gc_marks)
        self._worker = Worker(functools.partial(_replay_run, trace, gc_marks))
        self._worker.send(config)

    def feed(self) -> None:
        """Send the references and GC marks recorded since the last
        feed.  Blocks while the child is still replaying earlier ones
        and the pipe is full."""
        stop = len(self._trace)
        conn = self._worker.conn
        try:
            conn.send(self._marks[self._sent_marks:])
            for column in self._trace.columns():
                size = column.itemsize
                conn.send_bytes(
                    column, self._sent * size, (stop - self._sent) * size
                )
        except OSError:
            raise self._worker.death() from None
        self._sent = stop
        self._sent_marks = len(self._marks)

    def result(self) -> Tuple[SystemStats, Optional[NetworkStats]]:
        """Send the rest of the trace and return the replay's result."""
        try:
            self.feed()
            self._worker.send(None)
            kind, payload = self._worker.receive()
        finally:
            self.close()
        if kind == ERROR:
            raise payload
        return payload

    def close(self) -> None:
        """Stop the child if it still runs and release the pipe."""
        self._worker.close()


def _replay_run(trace, gc_marks, config, conn):
    """A :class:`ReplayWorker` child's one task: replay the inherited
    prefix, then each feed, until the ``None`` that ends the run.  After
    a replay error it reads the feeds to the end without replaying, so
    the parent is never left blocked on a full pipe."""
    error = None
    consumer = MachineReplay(config, trace.n_pes)
    columns = trace.columns()
    while True:
        if error is None:
            try:
                consumer.feed(trace, gc_marks, len(trace))
            except Exception as caught:
                error = caught
        marks = conn.recv()
        if marks is None:
            break
        gc_marks.extend(marks)
        for column in columns:
            data = conn.recv_bytes()
            if error is None:
                column.frombytes(data)
    if error is not None:
        raise error
    return consumer.result()
