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
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from repro.cluster.system import ClusterCacheSystem, ClusterStats, ClusteredSystem
from repro.core.config import SimulationConfig
from repro.core.replay import ReplayBlockedError, replay, replay_access_driven
from repro.trace.buffer import TraceBuffer


def split_trace(
    buffer: TraceBuffer, n_pes: int, n_clusters: int
) -> List[TraceBuffer]:
    """Partition *buffer* into per-cluster shards.

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
    pe = np.frombuffer(pe_col, dtype=np.int8)
    op = np.frombuffer(op_col, dtype=np.int8)
    area = np.frombuffer(area_col, dtype=np.int8)
    addr = np.frombuffer(addr_col, dtype=np.int64)
    flags = np.frombuffer(flags_col, dtype=np.int8)
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
) -> ReplayBlockedError:
    """*error*, raised replaying *cluster*'s shard of *buffer* (see
    :func:`split_trace`), re-indexed to the blocked reference's position
    and PE number in *buffer*."""
    pes_per_cluster = n_pes // n_clusters
    lo = cluster * pes_per_cluster
    pe = np.frombuffer(buffer.columns()[0], dtype=np.int8)
    positions = np.flatnonzero((pe >= lo) & (pe < lo + pes_per_cluster))
    return ReplayBlockedError(
        int(positions[error.index]), error.pe + lo, error.op, error.area,
        error.address,
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
