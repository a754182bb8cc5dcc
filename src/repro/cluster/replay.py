"""Replay paths for clustered systems: interleaved, sharded, merged.

Two serial paths with identical counters:

* :func:`replay_interleaved` drives :meth:`ClusteredSystem.access` one
  reference at a time in trace order — the ordering-faithful reference
  path (and the serial baseline the clustered benchmark measures).
* :func:`replay_clustered` splits the trace into per-cluster shards
  (:func:`split_trace`) and runs each shard through
  :func:`repro.core.replay.replay` (the generated kernel) with a
  caller-built :class:`~repro.cluster.system.ClusterCacheSystem`.

They agree bit-for-bit because clusters share no mutable state: a
cluster's counters are a function of its own PEs' references *in their
own relative order*, which sharding preserves.  That same argument
makes the shard results independent of worker scheduling, so
:func:`repro.analysis.parallel.run_clustered` can fan shards out over
the process pool and merge deterministically (shards are merged in
cluster-index order regardless of completion order).

:func:`replay_into` advances a persistent flat or clustered system by
one range of a trace — the step streaming replay takes per chunk — and
:func:`replay_machine` uses it to produce the statistics of an
execution-driven run from the run's trace.
"""

from __future__ import annotations

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

    Returns ``(stats, network_stats)`` — both picklable, so this is
    also the unit of work :func:`repro.analysis.parallel.run_clustered`
    ships to pool workers.  *mode* selects the coherence execution
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
    """Serial per-cluster shard replay with deterministic merge.

    A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its index and
    PE in *buffer* (the first blocked shard in cluster order).
    """
    if config is None:
        config = SimulationConfig()
    pes = n_pes if n_pes is not None else buffer.n_pes
    n_clusters = config.cluster.n_clusters
    shards = split_trace(buffer, pes, n_clusters)
    pes_per_cluster = pes // n_clusters
    per_cluster = []
    networks = []
    for cluster_index, shard in enumerate(shards):
        try:
            stats, network = replay_shard(
                shard,
                config,
                pes_per_cluster,
                cluster_index,
                mode=mode,
                batch_refs=batch_refs,
                signature_bits=signature_bits,
            )
        except ReplayBlockedError as error:
            raise unshard_error(
                error, buffer, pes, n_clusters, cluster_index
            ) from None
        per_cluster.append(stats)
        networks.append(network)
    return ClusterStats(per_cluster, networks)


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


def replay_into(
    system,
    buffer: TraceBuffer,
    start: int = 0,
    stop: Optional[int] = None,
    mode: Optional[str] = None,
    batch_refs: Optional[int] = None,
    signature_bits: Optional[int] = None,
) -> None:
    """Advance *system* (flat or clustered) by references
    ``[start, stop)`` of *buffer*.

    A clustered system replays each cluster's shard of the range into
    that cluster's persistent system, so successive ranges compose
    exactly as they do on a flat system.  A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its position
    and PE in *buffer*.
    """
    kwargs = dict(mode=mode, batch_refs=batch_refs, signature_bits=signature_bits)
    if not isinstance(system, ClusteredSystem):
        replay(buffer, system=system, start=start, stop=stop, **kwargs)
        return
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


def system_result(system):
    """The result object of a replayed system: flat stats or, for a
    clustered system, the per-cluster breakdown."""
    if isinstance(system, ClusteredSystem):
        return system.cluster_stats()
    return system.stats


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
    positions of the run's garbage collections; at each one every
    cache is invalidated without charge, as the collector relocates the
    heap under them.
    """
    system = new_system(config, trace.n_pes)
    start = 0
    for mark in gc_marks:
        replay_into(system, trace, start, mark)
        system.flush_all(silent=True)
        start = mark
    replay_into(system, trace, start, len(trace))
    result = system_result(system)
    if isinstance(result, ClusterStats):
        return result.stats, result.network
    return result, None
