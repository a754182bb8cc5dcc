"""Hierarchical multi-cluster simulation (the paper's full PIM target).

The paper's machine is clusters of ~8 PEs — each cluster a snooping bus
of coherent caches — joined by an inter-cluster network (Section 1).
The rest of this repository models one cluster; this package scales it
out: :class:`~repro.cluster.system.ClusteredSystem` partitions the PEs
into K independent cluster buses (one
:class:`~repro.core.system.PIMCacheSystem` each, any registered
protocol) and charges references whose block's *home* cluster differs
from the issuing PE's through an explicit
:class:`~repro.cluster.network.ClusterNetwork`.

See ``docs/CLUSTER.md`` for the model, its deliberate simplifications
relative to a directory-coherent hierarchy, and the determinism
argument that makes per-cluster parallel replay exact.
"""

from repro.cluster.network import ClusterNetwork, NetworkStats
from repro.cluster.replay import (
    new_system,
    replay_clustered,
    replay_interleaved,
    replay_machine,
    replay_shard,
    split_trace,
    system_result,
)
from repro.cluster.system import (
    ClusterCacheSystem,
    ClusterStats,
    ClusteredSystem,
    merged_system_stats,
)

__all__ = [
    "ClusterCacheSystem",
    "ClusterNetwork",
    "ClusterStats",
    "ClusteredSystem",
    "NetworkStats",
    "merged_system_stats",
    "new_system",
    "replay_clustered",
    "replay_interleaved",
    "replay_machine",
    "replay_shard",
    "split_trace",
    "system_result",
]
