"""Configuration dataclasses for the cache, bus, optimizations and machine.

The defaults reproduce the paper's base model (Section 4.2): eight PEs,
each with a four-Kword, four-way set-associative, 256-column cache with
four-word blocks, on a one-word common bus with an eight-cycle shared
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.protocol import is_registered, protocol_names
from repro.core.states import BusPattern
from repro.trace.events import Area, Op

#: Word-address width assumed when estimating directory cost (Section 4.4's
#: "a four-Kword cache is 190000 bits" figure reproduces exactly with
#: 32-bit word addresses and a 5-byte data word).
ADDRESS_BITS = 32

#: Data word width in bits (Section 4.4: "a 5 byte data word").
WORD_BITS = 40

#: Cache block state field width (five states).
STATE_BITS = 3


def _require_power_of_two(name: str, value: int) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one PE's cache.

    ``block_words`` × ``n_sets`` × ``associativity`` gives the data
    capacity in words; the base model is 4 × 256 × 4 = 4 Kwords.
    """

    block_words: int = 4
    n_sets: int = 256
    associativity: int = 4

    def __post_init__(self) -> None:
        _require_power_of_two("block_words", self.block_words)
        _require_power_of_two("n_sets", self.n_sets)
        if self.associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {self.associativity}")

    @property
    def capacity_words(self) -> int:
        """Total data capacity in words."""
        return self.block_words * self.n_sets * self.associativity

    @property
    def n_lines(self) -> int:
        """Total number of cache lines."""
        return self.n_sets * self.associativity

    @property
    def tag_bits(self) -> int:
        """Width of the address tag stored per line."""
        return (
            ADDRESS_BITS
            - int(math.log2(self.n_sets))
            - int(math.log2(self.block_words))
        )

    @property
    def directory_bits(self) -> int:
        """Bits spent on tags and state — the 'cache address array'."""
        return self.n_lines * (self.tag_bits + STATE_BITS)

    @property
    def total_bits(self) -> int:
        """Directory plus data bits — Figure 2's x-axis."""
        return self.directory_bits + self.capacity_words * WORD_BITS

    @classmethod
    def from_capacity(
        cls, capacity_words: int, block_words: int = 4, associativity: int = 4
    ) -> "CacheConfig":
        """Build a config of the given data capacity (in words)."""
        _require_power_of_two("capacity_words", capacity_words)
        _require_power_of_two("block_words", block_words)
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        n_sets = capacity_words // (block_words * associativity)
        if n_sets < 1:
            raise ValueError(
                f"capacity {capacity_words} words too small for "
                f"{block_words}-word blocks x {associativity} ways"
            )
        return cls(
            block_words=block_words, n_sets=n_sets, associativity=associativity
        )


@dataclass(frozen=True)
class BusConfig:
    """Common bus and shared-memory timing (Section 4.2).

    The bus is ``width_words`` wide; tag/address and data share it, so an
    address transfer costs one cycle and a block transfer costs
    ``ceil(block_words / width_words)`` cycles.  Shared memory takes
    ``memory_access_cycles`` to respond; a swap-out *write* is hidden
    behind the subsequent fetch (so swap-in costs the same with or
    without a swap-out), but a cache-to-cache transfer with a swap-out
    keeps the bus for the non-overlapped part of the victim transfer.
    """

    width_words: int = 1
    memory_access_cycles: int = 8

    def __post_init__(self) -> None:
        if self.width_words < 1:
            raise ValueError(f"width_words must be >= 1, got {self.width_words}")
        if self.memory_access_cycles < 1:
            raise ValueError(
                f"memory_access_cycles must be >= 1, got {self.memory_access_cycles}"
            )

    def transfer_cycles(self, block_words: int) -> int:
        """Bus cycles to move one block."""
        return -(-block_words // self.width_words)

    def pattern_cycles(self, pattern: BusPattern, block_words: int) -> int:
        """Bus cycles held by one occurrence of a bus access *pattern*.

        With the base parameters this yields the paper's 13 / 13 / 10 /
        7 / 5 / 2 cycle costs.
        """
        transfer = self.transfer_cycles(block_words)
        if pattern in (BusPattern.SWAP_IN_WITH_SWAP_OUT, BusPattern.SWAP_IN):
            return 1 + self.memory_access_cycles + transfer
        if pattern == BusPattern.C2C:
            return 3 + transfer
        if pattern == BusPattern.C2C_WITH_SWAP_OUT:
            return 3 + transfer + (transfer - 1)
        if pattern == BusPattern.SWAP_OUT_ONLY:
            return 1 + transfer
        if pattern == BusPattern.INVALIDATION:
            return 2
        if pattern == BusPattern.WRITE_THROUGH:
            return 1 + self.transfer_cycles(1)  # address + one data word
        raise ValueError(f"unknown bus pattern {pattern!r}")


@dataclass(frozen=True)
class OptimizationConfig:
    """Which software-controlled commands the cache controller honours.

    Mirrors Table 4's columns: ``heap_direct_write`` is the "Heap"
    optimization (DW in the heap area), ``goal_commands`` is "Goal"
    (ER, RP and DW in the goal area), ``comm_read_invalidate`` is "Comm"
    (RI in the communication area).  A command that is not honoured is
    demoted to the corresponding plain R or W, exactly as an unoptimized
    cache controller would treat it.
    """

    heap_direct_write: bool = True
    goal_commands: bool = True
    comm_read_invalidate: bool = True

    @classmethod
    def none(cls) -> "OptimizationConfig":
        """Table 4's "None" column — a conventional cache."""
        return cls(False, False, False)

    @classmethod
    def heap_only(cls) -> "OptimizationConfig":
        """Table 4's "Heap" column — DW in the heap area only."""
        return cls(True, False, False)

    @classmethod
    def goal_only(cls) -> "OptimizationConfig":
        """Table 4's "Goal" column — ER, RP, DW in the goal area only."""
        return cls(False, True, False)

    @classmethod
    def comm_only(cls) -> "OptimizationConfig":
        """Table 4's "Comm" column — RI in the communication area only."""
        return cls(False, False, True)

    @classmethod
    def all(cls) -> "OptimizationConfig":
        """Table 4's "All" column."""
        return cls(True, True, True)

    def honours(self, op: int, area: int) -> bool:
        """Whether command *op* issued to *area* is honoured (else demoted)."""
        if op == Op.DW:
            if area == Area.HEAP:
                return self.heap_direct_write
            if area == Area.GOAL:
                return self.goal_commands
            return False
        if op in (Op.ER, Op.RP):
            return area == Area.GOAL and self.goal_commands
        if op == Op.RI:
            return area == Area.COMMUNICATION and self.comm_read_invalidate
        return True


#: Table 4's five optimization columns, in paper order.
TABLE4_COLUMNS = (
    ("None", OptimizationConfig.none()),
    ("Heap", OptimizationConfig.heap_only()),
    ("Goal", OptimizationConfig.goal_only()),
    ("Comm", OptimizationConfig.comm_only()),
    ("All", OptimizationConfig.all()),
)


@dataclass(frozen=True)
class ClusterConfig:
    """Hierarchical machine organization (Section 1's PIM target).

    The paper's machine is not one flat bus: PEs are grouped into
    clusters of about eight, each cluster a snooping bus of coherent
    caches, and the clusters are joined by a network.  ``n_clusters``
    partitions the PEs into equal contiguous groups, each simulated by
    its own :class:`~repro.core.system.PIMCacheSystem`; shared memory
    is distributed across clusters by ``interleave`` and references
    whose block's *home* cluster differs from the issuing PE's cluster
    pay an explicit network charge (see :mod:`repro.cluster.network`).

    Network timing: each cluster owns one full-duplex link into the
    network.  A message waits for the outbound link FIFO, is serialized
    at ``link_width_words`` words per cycle, and crosses
    ``ring_hops(src, dst)`` hops at ``hop_cycles`` each.
    """

    n_clusters: int = 1
    #: Home-cluster policy for shared-memory blocks: ``"block"``
    #: interleaves consecutive blocks round-robin across clusters;
    #: ``"page"`` assigns runs of ``page_blocks`` blocks to one home.
    interleave: str = "block"
    page_blocks: int = 16
    #: Per-hop network latency in cycles.
    hop_cycles: int = 4
    #: Link bandwidth — words a cluster's network link moves per cycle.
    link_width_words: int = 1

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError(
                f"n_clusters must be >= 1, got {self.n_clusters}"
            )
        if self.interleave not in ("block", "page"):
            raise ValueError(
                f"interleave must be 'block' or 'page', got {self.interleave!r}"
            )
        _require_power_of_two("page_blocks", self.page_blocks)
        if self.hop_cycles < 1:
            raise ValueError(f"hop_cycles must be >= 1, got {self.hop_cycles}")
        if self.link_width_words < 1:
            raise ValueError(
                f"link_width_words must be >= 1, got {self.link_width_words}"
            )

    def home_of(self, block: int) -> int:
        """Home cluster of a shared-memory *block*."""
        if self.interleave == "block":
            return block % self.n_clusters
        return (block // self.page_blocks) % self.n_clusters

    def ring_hops(self, src: int, dst: int) -> int:
        """Hop count between two clusters on a bidirectional ring."""
        around = abs(src - dst)
        return min(around, self.n_clusters - around)

    def cluster_of_pe(self, pe: int, n_pes: int) -> int:
        """Cluster of global PE index *pe* (contiguous partition)."""
        return pe // (n_pes // self.n_clusters)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the cache system needs to run."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    opts: OptimizationConfig = field(default_factory=OptimizationConfig)
    #: Name of a protocol registered in :mod:`repro.core.protocol` —
    #: validated against the registry at construction.  The built-ins:
    #: ``"pim"`` keeps dirty blocks dirty across cache-to-cache transfers
    #: (the SM state); ``"illinois"`` copies dirty blocks back to shared
    #: memory on every transfer, as the Illinois protocol does; the
    #: Section 3 ablation baselines ``"write_through"`` (write-through
    #: with invalidation, no write-allocate) and ``"write_update"``
    #: (write-through with broadcast update of remote copies) reproduce
    #: the copy-back and invalidation-vs-broadcast arguments; and
    #: ``"write_once"`` is Goodman's classic hybrid.
    protocol: str = "pim"
    #: Nominal hardware lock-directory capacity per PE.  Occupancy beyond
    #: this is allowed but counted, to validate the paper's claim that
    #: "one or two lock entries per directory" suffice.
    lock_entries: int = 2
    #: Model data words in cache and memory (slower; used by the
    #: coherence property tests).
    track_data: bool = False
    #: Hierarchical organization: how many cluster buses share the
    #: machine, and the inter-cluster network's timing.  The default
    #: (one cluster) is the flat single-bus model of Section 4.2.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: Interconnect backend resolving bus-visible transactions —
    #: validated against :mod:`repro.core.interconnect` at construction.
    #: ``"bus"`` is the paper's snooping broadcast bus; ``"directory"``
    #: resolves requests through a home-node directory (sharer bitmasks,
    #: owner tracking), charging ``cluster.hop_cycles`` of indirection
    #: per third-party message.
    interconnect: str = "bus"

    def __post_init__(self) -> None:
        if not is_registered(self.protocol):
            known = ", ".join(protocol_names())
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"registered protocols: {known}"
            )
        # Imported late: repro.core.interconnect imports the protocol
        # package, which this module also imports at top level.
        from repro.core.interconnect import (
            interconnect_names,
            is_interconnect_registered,
        )

        if not is_interconnect_registered(self.interconnect):
            known = ", ".join(interconnect_names())
            raise ValueError(
                f"unknown interconnect {self.interconnect!r}; "
                f"registered interconnects: {known}"
            )
        if self.lock_entries < 1:
            raise ValueError(f"lock_entries must be >= 1, got {self.lock_entries}")

    def with_opts(self, opts: OptimizationConfig) -> "SimulationConfig":
        """Copy of this config with different optimization flags."""
        return replace(self, opts=opts)

    def with_cache(self, cache: CacheConfig) -> "SimulationConfig":
        """Copy of this config with a different cache geometry."""
        return replace(self, cache=cache)

    def with_interconnect(self, interconnect: str) -> "SimulationConfig":
        """Copy of this config on a different interconnect backend."""
        return replace(self, interconnect=interconnect)

    def with_clusters(self, n_clusters: int, **kwargs) -> "SimulationConfig":
        """Copy of this config partitioned into *n_clusters* clusters.

        Extra keyword arguments are forwarded to :class:`ClusterConfig`
        (``hop_cycles``, ``interleave``, ...).
        """
        return replace(
            self, cluster=ClusterConfig(n_clusters=n_clusters, **kwargs)
        )


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the KL1 abstract machine (Section 2.2).

    Goal records are fixed-size (``goal_record_words``, two cache blocks
    in the base model), holding a link word, a code pointer, an arity and
    up to five arguments.  Suspension records hold a link, the floating
    goal's address and the hooked variable.  Communication-area mailboxes
    hold a request flag plus reply slots for the on-demand scheduler.
    """

    n_pes: int = 8
    seed: int = 1
    goal_record_words: int = 8
    suspension_record_words: int = 3
    #: Reply slots (of two words each) per PE mailbox.
    comm_reply_slots: int = 2
    #: Safety valve: abort if a run exceeds this many reductions.
    max_reductions: int = 50_000_000
    #: How many idle polls an idle PE performs per scheduler turn.
    steal_attempts_per_turn: int = 1
    #: Per-PE heap-segment size (in words) that triggers a stop-and-copy
    #: collection between scheduler sweeps.  None disables GC (the
    #: default: experiment presets size their heaps to avoid collecting,
    #: and the paper excludes GC from measurement).
    gc_threshold_words: "int | None" = None
    #: Probability that a lock on shared data is marked contended
    #: (reduction-granularity interleaving serializes genuine conflicts
    #: away; the paper measures 0.1-2.4 % of unlocks finding a waiter,
    #: so that tail is injected stochastically — see port.py).
    lock_conflict_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise ValueError(f"n_pes must be >= 1, got {self.n_pes}")
        if self.goal_record_words < 4:
            raise ValueError(
                f"goal_record_words must be >= 4, got {self.goal_record_words}"
            )
        if self.suspension_record_words < 3:
            raise ValueError(
                "suspension_record_words must be >= 3, got "
                f"{self.suspension_record_words}"
            )

    @property
    def max_goal_args(self) -> int:
        """Arguments a goal record can carry (record minus link/code/arity)."""
        return self.goal_record_words - 3
