"""The inter-cluster network: links, hops, FIFO queueing, forwarding.

Each cluster owns one full-duplex link into the network.  An outbound
message waits for the link to free (FIFO, tracked as a busy-until
timeline exactly like the cluster bus's ``bus_free_at``), is serialized
at :attr:`~repro.core.config.ClusterConfig.link_width_words` words per
cycle, then crosses :meth:`~repro.core.config.ClusterConfig.ring_hops`
hops of :attr:`~repro.core.config.ClusterConfig.hop_cycles` each to the
home cluster's directory.

Three message classes, mirroring what a home-node directory must
forward between cluster buses:

* **fetch forward** — a miss on a remote-homed block.  The request (one
  address word) travels to the home directory, which services it from
  its memory bank; the reply carries the block back.  The issuing PE
  stalls for the full round trip (the local bus pattern the miss
  charged already covers the memory-bank latency itself).
* **write forward** — a write-through store to a remote-homed word
  (address + data).  Posted: the PE stalls only until the message is on
  the link; delivery latency is accounted but not charged to the PE.
* **invalidate forward** — an invalidation broadcast crossing the
  boundary so remote-cluster copies die too.  Posted, one address word.

Swap-out write-backs (victim traffic) are drained asynchronously by the
cluster's memory interface and charged no network stall — the victim
block's home is unrelated to the address that caused the eviction, and
the paper's timing model already hides swap-out writes behind the
subsequent fetch.

Everything here is integer arithmetic over state owned by one cluster,
so a cluster's network charges depend only on that cluster's own
reference subsequence — the property that makes per-cluster parallel
replay bit-identical to an interleaved run (see docs/CLUSTER.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import ClusterConfig


class NetworkStats:
    """Counters of one cluster's network interface (or a merged view)."""

    __slots__ = (
        "cluster",
        "n_clusters",
        "fetch_forwards",
        "write_forwards",
        "inval_forwards",
        "messages",
        "words_sent",
        "words_received",
        "queue_wait_cycles",
        "latency_cycles",
        "stall_cycles",
        "link_busy_cycles",
        "forwards_by_home",
    )

    def __init__(self, cluster: int, n_clusters: int):
        #: Cluster index this interface belongs to (-1 for a merged view).
        self.cluster = cluster
        self.n_clusters = n_clusters
        self.fetch_forwards = 0
        self.write_forwards = 0
        self.inval_forwards = 0
        #: All outbound messages (the three forward classes summed).
        self.messages = 0
        #: Words serialized onto this cluster's outbound link.
        self.words_sent = 0
        #: Words delivered back by fetch replies (the home's link).
        self.words_received = 0
        #: Cycles messages spent queued behind the outbound link FIFO.
        self.queue_wait_cycles = 0
        #: End-to-end transport cycles of every message (posted included).
        self.latency_cycles = 0
        #: Cycles actually added to issuing-PE clocks.
        self.stall_cycles = 0
        #: Cycles the outbound link spent serializing messages.
        self.link_busy_cycles = 0
        #: Outbound messages by destination (home) cluster.
        self.forwards_by_home: List[int] = [0] * n_clusters

    _SUM_FIELDS = (
        "fetch_forwards",
        "write_forwards",
        "inval_forwards",
        "messages",
        "words_sent",
        "words_received",
        "queue_wait_cycles",
        "latency_cycles",
        "stall_cycles",
        "link_busy_cycles",
    )

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        """Accumulate *other* into this instance (returns self)."""
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if len(other.forwards_by_home) > len(self.forwards_by_home):
            self.forwards_by_home.extend(
                [0] * (len(other.forwards_by_home) - len(self.forwards_by_home))
            )
            self.n_clusters = len(self.forwards_by_home)
        for home, count in enumerate(other.forwards_by_home):
            self.forwards_by_home[home] += count
        return self

    @classmethod
    def merged(cls, parts: Sequence["NetworkStats"]) -> "NetworkStats":
        """Fold per-cluster interfaces into one machine-wide aggregate."""
        if not parts:
            raise ValueError("cannot merge an empty list of network stats")
        total = cls(-1, parts[0].n_clusters)
        for part in parts:
            total.merge(part)
        return total

    def as_dict(self) -> dict:
        return {
            "cluster": self.cluster,
            "n_clusters": self.n_clusters,
            "fetch_forwards": self.fetch_forwards,
            "write_forwards": self.write_forwards,
            "inval_forwards": self.inval_forwards,
            "messages": self.messages,
            "words_sent": self.words_sent,
            "words_received": self.words_received,
            "queue_wait_cycles": self.queue_wait_cycles,
            "latency_cycles": self.latency_cycles,
            "stall_cycles": self.stall_cycles,
            "link_busy_cycles": self.link_busy_cycles,
            "forwards_by_home": list(self.forwards_by_home),
        }

    def __repr__(self) -> str:
        return (
            f"NetworkStats(cluster={self.cluster}, "
            f"messages={self.messages}, stall={self.stall_cycles})"
        )


class ClusterNetwork:
    """One cluster's interface onto the inter-cluster network."""

    __slots__ = ("config", "cluster_index", "block_words", "link_free_at", "stats")

    def __init__(self, config: ClusterConfig, cluster_index: int, block_words: int):
        self.config = config
        self.cluster_index = cluster_index
        self.block_words = block_words
        #: Outbound-link timeline: the cycle at which the link frees.
        self.link_free_at = 0
        self.stats = NetworkStats(cluster_index, config.n_clusters)

    def _serialize(self, words: int) -> int:
        width = self.config.link_width_words
        return -(-words // width)

    def _send(self, now: int, home: int, words: int) -> "tuple[int, int, int]":
        """Queue *words* onto the outbound link at cycle *now*.

        Returns ``(wait, serialize, hop_latency)``: cycles queued behind
        the FIFO, cycles serializing onto the link, and one-way hop
        transit to *home*.  The message is considered issued the cycle
        after *now* (matching the bus model's ``pe_clock + 1`` start).
        """
        stats = self.stats
        serialize = self._serialize(words)
        issue = now + 1
        start = issue if issue > self.link_free_at else self.link_free_at
        wait = start - issue
        self.link_free_at = start + serialize
        hops = self.config.ring_hops(self.cluster_index, home)
        hop_latency = hops * self.config.hop_cycles
        stats.messages += 1
        stats.words_sent += words
        stats.queue_wait_cycles += wait
        stats.link_busy_cycles += serialize
        stats.latency_cycles += hop_latency + serialize
        stats.forwards_by_home[home] += 1
        return wait, serialize, hop_latency

    def fetch_forward(self, now: int, home: int) -> int:
        """Round-trip block fetch through *home*'s directory.

        Returns the cycles the issuing PE stalls beyond *now*: issue +
        queue wait + request transit, then block reply transit back
        (the reply rides the home cluster's link; only its latency is
        charged here, keeping this cluster's state self-contained).
        """
        stats = self.stats
        wait, serialize, hop_latency = self._send(now, home, 1)
        reply = self._serialize(self.block_words)
        stats.fetch_forwards += 1
        stats.words_received += self.block_words
        stats.latency_cycles += hop_latency + reply
        stall = 1 + wait + serialize + hop_latency + hop_latency + reply
        stats.stall_cycles += stall
        return stall

    def write_forward(self, now: int, home: int) -> int:
        """Posted write-through to a remote home (address + data word).

        Returns the cycles the PE stalls: only until the message is
        accepted onto the link — delivery completes asynchronously.
        """
        wait, serialize, _ = self._send(now, home, 2)
        self.stats.write_forwards += 1
        stall = 1 + wait + serialize
        self.stats.stall_cycles += stall
        return stall

    def inval_forward(self, now: int, home: int) -> int:
        """Posted invalidation forward to a remote home (one word)."""
        wait, serialize, _ = self._send(now, home, 1)
        self.stats.inval_forwards += 1
        stall = 1 + wait + serialize
        self.stats.stall_cycles += stall
        return stall

    def charge(
        self, now: int, home: int, fetches: int, writes: int, invals: int
    ) -> int:
        """Forward one reference's traffic to *home*, from cycle *now*:
        its fetches, then its writes, then its invalidations, each
        message issued when the last one released the PE.  Returns the
        issuing PE's total stall."""
        stall = 0
        for _ in range(fetches):
            stall += self.fetch_forward(now + stall, home)
        for _ in range(writes):
            stall += self.write_forward(now + stall, home)
        for _ in range(invals):
            stall += self.inval_forward(now + stall, home)
        return stall

    def occupancy(self, elapsed: Optional[int] = None) -> float:
        """Fraction of elapsed cycles the outbound link was busy."""
        if elapsed is None:
            elapsed = self.link_free_at
        busy = self.stats.link_busy_cycles
        return busy / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"ClusterNetwork(cluster={self.cluster_index}, "
            f"link_free_at={self.link_free_at}, "
            f"messages={self.stats.messages})"
        )
