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
the process pool (:func:`replay_shard`) and merge deterministically
(shards are merged in cluster-index order regardless of completion
order).

:class:`MachineReplay` is the replay of an execution-driven run: one
live system fed the trace in ranges, flushed at the run's garbage
collections.  :func:`replay_machine` feeds it the whole trace after
the run; a :class:`ReplayWorker` runs it in a forked process fed each
chunk as the machine records it.
"""

from __future__ import annotations

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
    buffer by default) into per-cluster shards.

    Each shard holds the references of one cluster's PEs, in their
    original relative order, with PE indices renumbered to
    cluster-local (``pe - cluster * pes_per_cluster``).

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
    pe_col, op_col, area_col, addr_col, flags_col = buffer.columns()
    window = slice(start, stop)
    pe = np.frombuffer(pe_col, dtype=np.int8)[window]
    op = np.frombuffer(op_col, dtype=np.int8)[window]
    area = np.frombuffer(area_col, dtype=np.int8)[window]
    addr = np.frombuffer(addr_col, dtype=np.int64)[window]
    flags = np.frombuffer(flags_col, dtype=np.int8)[window]
    shards = []
    for cluster in range(n_clusters):
        lo = cluster * pes_per_cluster
        mask = (pe >= lo) & (pe < lo + pes_per_cluster)
        shard = TraceBuffer(pes_per_cluster)
        shard._pe = array("b", (pe[mask] - lo).tobytes())
        shard._op = array("b", op[mask].tobytes())
        shard._area = array("b", area[mask].tobytes())
        shard._addr = array("q", addr[mask].tobytes())
        shard._flags = array("b", flags[mask].tobytes())
        shards.append(shard)
    return shards


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


def replay_worker_available() -> bool:
    """Whether a run may fork a :class:`ReplayWorker`: the fork start
    method exists, at least two CPUs are usable, this process is not
    daemonic (those may not have children) and no other Python thread
    is alive (forking one is unsafe)."""
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and default_jobs() >= 2
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )


class ReplayWorkerError(RuntimeError):
    """The replay worker of a run died without sending its result
    (SIGKILL, OOM-kill, ``os._exit``); :attr:`exitcode` says how."""

    def __init__(self, exitcode: Optional[int]):
        super().__init__(
            f"the replay worker exited with code {exitcode} before "
            "returning the run's statistics"
        )
        self.exitcode = exitcode


class ReplayWorker:
    """A forked process that replays a run's trace while it is recorded.

    The child inherits the references and GC marks recorded so far and
    replays them into a :class:`MachineReplay` at once.  Each
    :meth:`feed` sends it, over a pipe, the references and marks
    recorded since the last one, which it replays while the machine
    goes on emulating; :meth:`result` sends the end and returns the
    child's ``(stats, network)`` — the same as :func:`replay_machine`
    of the whole trace, since only the split differs.

    A replay error in the child is re-raised by :meth:`result` as it
    was raised.  A child that dies without a result raises
    :class:`ReplayWorkerError`: the parent holds no copy of the child's
    pipe ends, so a send sees a broken pipe and a receive sees EOF,
    never a hang.  :meth:`result` and :meth:`close` each leave no
    process behind.
    """

    def __init__(
        self, trace: TraceBuffer, config: SimulationConfig, gc_marks: List[int]
    ):
        context = multiprocessing.get_context("fork")
        chunks_in, self._chunks = context.Pipe(duplex=False)
        self._results, results_out = context.Pipe(duplex=False)
        self._trace = trace
        self._marks = gc_marks
        self._sent = len(trace)
        self._sent_marks = len(gc_marks)
        self._broken = False
        self._process = context.Process(
            target=_serve_replay,
            args=(chunks_in, self._chunks, results_out, trace, config,
                  list(gc_marks)),
            name="replay-worker",
            daemon=True,
        )
        try:
            self._process.start()
        finally:
            chunks_in.close()
            results_out.close()

    def feed(self) -> None:
        """Send the references and GC marks recorded since the last
        feed.  Blocks while the child is still replaying earlier ones
        and the pipe is full; after the child died it sends nothing."""
        stop = len(self._trace)
        if not self._broken:
            try:
                self._chunks.send(self._marks[self._sent_marks:])
                for column in self._trace.columns():
                    size = column.itemsize
                    self._chunks.send_bytes(
                        column, self._sent * size, (stop - self._sent) * size
                    )
            except OSError:  # the child is gone: result() says why
                self._broken = True
        self._sent = stop
        self._sent_marks = len(self._marks)

    def result(self) -> Tuple[SystemStats, Optional[NetworkStats]]:
        """Send the rest of the trace and return the replay's result."""
        try:
            self.feed()
            if not self._broken:
                try:
                    self._chunks.send(None)
                except OSError:
                    pass
            try:
                status, payload = self._results.recv()
            except EOFError:
                self._process.join()
                raise ReplayWorkerError(self._process.exitcode) from None
            self._process.join()
        finally:
            self.close()
        if status == "error":
            raise payload
        return payload

    def close(self) -> None:
        """Stop the child if it still runs and release the pipes."""
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._chunks.close()
        self._results.close()


def _serve_replay(chunks, chunks_writer, results, trace, config, gc_marks):
    """The body of a :class:`ReplayWorker`'s child process."""
    # Ctrl-C reaches the whole process group; the parent decides.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Without this copy of the writer, a parent that dies leaves the
    # child's receive waiting forever instead of seeing EOF.
    chunks_writer.close()
    try:
        consumer = MachineReplay(config, trace.n_pes)
        consumer.feed(trace, gc_marks, len(trace))
        columns = trace.columns()
        while True:
            marks = chunks.recv()
            if marks is None:
                break
            gc_marks.extend(marks)
            for column in columns:
                column.frombytes(chunks.recv_bytes())
            consumer.feed(trace, gc_marks, len(trace))
        outcome = ("ok", consumer.result())
    except EOFError:  # the parent is gone
        return
    except Exception as error:
        # A parent still sending now sees a broken pipe, not a full one.
        chunks.close()
        outcome = ("error", error)
    results.send(outcome)
