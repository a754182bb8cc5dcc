"""Clustered cache systems: K independent buses behind one facade.

:class:`ClusterCacheSystem` is one cluster: a standard
:class:`~repro.core.system.PIMCacheSystem` over the cluster's local PEs
plus a :class:`~repro.cluster.network.ClusterNetwork` interface.  It
adds no handler and wraps none: the generated handlers and the replay
kernel (:mod:`repro.core.protocol.codegen`) read ``network`` when they
are bound, count each reference's transactions to a block homed in
*another* cluster (fetches, write-throughs, invalidations, and the
directory's third-party messages), and charge them to the network at
the reference's end.  So the charge is the same whether the access
came through :meth:`access`, the windowed observer, or the replay
kernel, which runs every miss shape of a K ≥ 2 cluster inline.

:class:`ClusteredSystem` partitions ``n_pes`` PEs contiguously into the
K clusters of ``config.cluster`` and routes each access to the owning
cluster's system.  Clusters are *fully independent*: cross-cluster
coherence is modelled by the home-node directory's forward accounting
(LazyPIM-style boundary bookkeeping), not by mutating remote cluster
state — the substitution that makes sharded per-cluster replay
bit-identical to an interleaved run and therefore parallelizable with a
deterministic merge (docs/CLUSTER.md states the argument precisely).

With ``K == 1`` every block is homed locally, nothing is charged, and
the facade delegates to one ``PIMCacheSystem`` — counter-for-counter
identical to the flat model, which the golden tests pin down
bit-for-bit.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.config import SimulationConfig
from repro.core.stats import SystemStats
from repro.core.system import PIMCacheSystem
from repro.cluster.network import ClusterNetwork, NetworkStats


def merged_system_stats(parts: Sequence[SystemStats]) -> SystemStats:
    """Machine-wide view of per-cluster stats.

    Scalar counters sum exactly as :meth:`SystemStats.merge` does, but
    the per-PE clocks *concatenate* in cluster order — the clusters run
    side by side, they are not sequential work on the same PEs.  A
    single part is returned as-is (live, zero-copy).
    """
    if len(parts) == 1:
        return parts[0]
    total = SystemStats.merged(list(parts))
    pe_cycles = [cycles for part in parts for cycles in part.pe_cycles]
    total.pe_cycles[:] = pe_cycles
    total.n_pes = len(pe_cycles)
    return total


class ClusterStats:
    """Per-cluster and merged counters of one clustered run."""

    def __init__(
        self,
        per_cluster: List[SystemStats],
        network_per_cluster: List[NetworkStats],
    ):
        self.per_cluster = per_cluster
        self.network_per_cluster = network_per_cluster
        self.stats = merged_system_stats(per_cluster)
        self.network = NetworkStats.merged(network_per_cluster)

    @property
    def n_clusters(self) -> int:
        return len(self.per_cluster)

    def as_dict(self) -> dict:
        """JSON-ready form: merged stats plus the network breakdown."""
        return {
            "n_clusters": self.n_clusters,
            "stats": self.stats.as_dict(),
            "network": self.network.as_dict(),
            "network_per_cluster": [
                n.as_dict() for n in self.network_per_cluster
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ClusterStats(n_clusters={self.n_clusters}, "
            f"refs={self.stats.total_refs}, "
            f"network_messages={self.network.messages})"
        )


class ClusterCacheSystem(PIMCacheSystem):
    """One cluster's bus: a ``PIMCacheSystem`` with a network interface.

    ``n_pes`` here is the cluster's *local* PE count; ``cluster_index``
    places it in the machine.  Addresses are global — the home policy in
    ``config.cluster`` decides which references cross the boundary.
    """

    __slots__ = ("cluster_index", "network")

    def __init__(
        self, config: SimulationConfig, n_pes: int, cluster_index: int = 0
    ):
        cluster = config.cluster
        if not 0 <= cluster_index < cluster.n_clusters:
            raise ValueError(
                f"cluster_index {cluster_index} outside "
                f"[0, {cluster.n_clusters})"
            )
        self.cluster_index = cluster_index
        # Set before the handlers are bound: they and the replay kernel
        # charge it (repro.core.protocol.codegen).
        self.network = ClusterNetwork(
            cluster, cluster_index, config.cache.block_words
        )
        super().__init__(config, n_pes)


class ClusteredSystem:
    """K cluster buses plus the network, behind the system interface.

    Exposes the surface the replay drivers use (``access``, ``stats``,
    ``flush_all``, ``check_invariants``), so
    :func:`~repro.core.replay.replay_access_driven` and
    :func:`~repro.cluster.replay.replay_machine` drive it as they drive
    a flat ``PIMCacheSystem``.  Global PE indices map to
    ``(cluster, local PE)`` by contiguous partition — PEs ``[0, P)`` are
    cluster 0, ``[P, 2P)`` cluster 1, and so on.
    """

    def __init__(self, config: SimulationConfig, n_pes: int):
        n_clusters = config.cluster.n_clusters
        if n_pes % n_clusters != 0:
            raise ValueError(
                f"n_pes ({n_pes}) must divide evenly into "
                f"{n_clusters} clusters"
            )
        self.config = config
        self.n_pes = n_pes
        self.n_clusters = n_clusters
        self.pes_per_cluster = n_pes // n_clusters
        self.systems = [
            ClusterCacheSystem(config, self.pes_per_cluster, index)
            for index in range(n_clusters)
        ]

    # -- the PIMCacheSystem surface the replay drivers use -------------

    def access(
        self, pe: int, op: int, area: int, address: int,
        value: int = 0, flags: int = 0,
    ):
        cluster, local_pe = divmod(pe, self.pes_per_cluster)
        return self.systems[cluster].access(
            local_pe, op, area, address, value, flags
        )

    def flush_all(self, silent: bool = False) -> int:
        return sum(system.flush_all(silent) for system in self.systems)

    def check_invariants(self) -> None:
        for system in self.systems:
            system.check_invariants()

    @property
    def stats(self) -> SystemStats:
        """Machine-wide merged counters (live view for ``K == 1``)."""
        return merged_system_stats([system.stats for system in self.systems])

    # -- cluster-specific surface --------------------------------------

    def cluster_stats(self) -> ClusterStats:
        """Per-cluster stats, network counters, and the merged view."""
        return ClusterStats(
            [system.stats for system in self.systems],
            [system.network.stats for system in self.systems],
        )

    def cluster_of(self, pe: int) -> int:
        return pe // self.pes_per_cluster

    def attach_probe(self, probe) -> None:
        """Attach *probe* to every cluster's system.

        ``K == 1`` delegates directly (full probe contract).  With more
        clusters the probe observes all of them through one event
        stream; per-access hooks run on the cluster that served the
        access, so PE indices in events are cluster-local.
        """
        if self.n_clusters == 1:
            self.systems[0].attach_probe(probe)
            return
        raise NotImplementedError(
            "per-access probing of a multi-cluster system is not "
            "supported; probe a single cluster's system (systems[i]) or "
            "replay per cluster"
        )

    def detach_probe(self):
        if self.n_clusters == 1:
            return self.systems[0].detach_probe()
        return None

    def __repr__(self) -> str:
        return (
            f"ClusteredSystem(n_clusters={self.n_clusters}, "
            f"n_pes={self.n_pes}, protocol={self.config.protocol!r})"
        )

