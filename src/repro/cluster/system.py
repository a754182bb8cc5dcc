"""Clustered cache systems: K independent buses behind one facade.

:class:`ClusterCacheSystem` is one cluster: a standard
:class:`~repro.core.system.PIMCacheSystem` over the cluster's local PEs
whose dispatch-table handlers are wrapped (exactly the
:meth:`~repro.core.system.PIMCacheSystem.attach_probe` pattern) so that
accesses to blocks homed in *another* cluster charge the inter-cluster
network.  The wrapper diffs ``pattern_counts`` across the handler call —
the same counters every replay path maintains — so the charge is
identical whether the access came through :meth:`access`, the windowed
observer, or the generated replay kernel (which bypasses wrappers
only for bus-free cache hits, and a hit never generates a pattern).

:class:`ClusteredSystem` partitions ``n_pes`` PEs contiguously into the
K clusters of ``config.cluster`` and routes each access to the owning
cluster's system.  Clusters are *fully independent*: cross-cluster
coherence is modelled by the home-node directory's forward accounting
(LazyPIM-style boundary bookkeeping), not by mutating remote cluster
state — the substitution that makes sharded per-cluster replay
bit-identical to an interleaved run and therefore parallelizable with a
deterministic merge (docs/CLUSTER.md states the argument precisely).

With ``K == 1`` no wrapping is installed and the facade delegates to a
bare, untouched ``PIMCacheSystem`` — counter-for-counter identical to
the flat model, which the golden tests pin down bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import SimulationConfig
from repro.core.states import BusPattern
from repro.core.stats import SystemStats
from repro.core.system import BLOCKED, PIMCacheSystem
from repro.cluster.network import ClusterNetwork, NetworkStats
from repro.obs.events import EventKind

_SWAP_IN = int(BusPattern.SWAP_IN)
_SWAP_IN_WITH_SWAP_OUT = int(BusPattern.SWAP_IN_WITH_SWAP_OUT)
_WRITE_THROUGH = int(BusPattern.WRITE_THROUGH)
_INVALIDATION = int(BusPattern.INVALIDATION)


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
        super().__init__(config, n_pes)
        cluster = config.cluster
        if not 0 <= cluster_index < cluster.n_clusters:
            raise ValueError(
                f"cluster_index {cluster_index} outside "
                f"[0, {cluster.n_clusters})"
            )
        self.cluster_index = cluster_index
        self.network = ClusterNetwork(
            cluster, cluster_index, config.cache.block_words
        )
        if cluster.n_clusters > 1:
            self._install_network_wrappers()

    def _install_network_wrappers(self) -> None:
        """Wrap every distinct dispatch handler with the network charge.

        The wrapped table becomes the system's *base* table, so a probe
        attached later wraps the network-charging handlers (its BUS /
        TRANSITION events keep their meaning) and detaching restores the
        network-charging table, never the unclustered one.
        """
        home_of = self.config.cluster.home_of
        my_cluster = self.cluster_index
        network = self.network
        stats = self.stats
        pattern_counts = self.stats.pattern_counts
        pe_cycles = self._pe_cycles
        fetch_forward = network.fetch_forward
        write_forward = network.write_forward
        inval_forward = network.inval_forward
        wrappers: Dict[object, object] = {}

        def wrap(handler):
            wrapped = wrappers.get(handler)
            if wrapped is None:
                def wrapped(
                    pe, sop, area, address, block, value=0, flags=0,
                    _handler=handler,
                ):
                    home = home_of(block)
                    if home == my_cluster:
                        return _handler(pe, sop, area, address, block, value, flags)
                    fetches0 = (
                        pattern_counts[_SWAP_IN]
                        + pattern_counts[_SWAP_IN_WITH_SWAP_OUT]
                    )
                    writes0 = pattern_counts[_WRITE_THROUGH]
                    invals0 = pattern_counts[_INVALIDATION]
                    dir0 = (
                        stats.directory_forwards
                        + stats.directory_invalidations
                    )
                    result = _handler(pe, sop, area, address, block, value, flags)
                    if result[0] == BLOCKED:
                        return result
                    fetches = (
                        pattern_counts[_SWAP_IN]
                        + pattern_counts[_SWAP_IN_WITH_SWAP_OUT]
                        - fetches0
                    )
                    writes = pattern_counts[_WRITE_THROUGH] - writes0
                    invals = pattern_counts[_INVALIDATION] - invals0
                    # Each third-party message the home-node directory
                    # sent for a remote-homed block also crosses the
                    # ring (zero under the bus backend).
                    dir_msgs = (
                        stats.directory_forwards
                        + stats.directory_invalidations
                        - dir0
                    )
                    if not (fetches or writes or invals or dir_msgs):
                        return result
                    now = pe_cycles[pe]
                    stall = 0
                    for _ in range(fetches):
                        stall += fetch_forward(now + stall, home)
                    for _ in range(writes):
                        stall += write_forward(now + stall, home)
                    for _ in range(invals + dir_msgs):
                        stall += inval_forward(now + stall, home)
                    pe_cycles[pe] = now + stall
                    probe = self._probe
                    if probe is not None:
                        probe._emit(
                            EventKind.NETWORK, now + stall, pe, sop, area,
                            address,
                            f"forward->c{home} "
                            f"f={fetches} w={writes} i={invals}"
                            + (f" d={dir_msgs}" if dir_msgs else ""),
                            stall,
                        )
                    return result

                wrappers[handler] = wrapped
            return wrapped

        self._op_table = [
            [wrap(handler) for handler in row] for row in self._base_op_table
        ]
        self._base_op_table = self._op_table


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

