"""Regeneration of the paper's Figures 1-3 and the secondary sweeps.

Figures are returned as structured series (per-benchmark x/y points)
with a ``render()`` producing an ASCII table of the same data the
paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.analysis.formatting import format_table
from repro.analysis.runner import Workloads
from repro.analysis.tables import BENCH_ORDER
from repro.core.config import (
    BusConfig,
    CacheConfig,
    OptimizationConfig,
    SimulationConfig,
)
from repro.trace.events import Area


#: Value formats (``format()`` specs): counts with thousands separators,
#: ratios and percentage shares with fixed decimals.
COUNT, RATIO, SHARE = ",.0f", ".4f", ".2f"


@dataclass
class Sweep:
    """One parameter sweep: per-benchmark series over an x-axis."""

    title: str
    x_label: str
    x_values: List[object]
    #: metric name -> benchmark -> series (one value per x).
    series: Dict[str, Dict[str, List[float]]]
    #: metric name -> the format of its values, or one format per x
    #: where a series mixes counts and ratios.
    formats: Dict[str, Union[str, Tuple[str, ...]]]

    def render(self) -> str:
        parts = []
        for metric, per_bench in self.series.items():
            spec = self.formats[metric]
            specs = (spec,) * len(self.x_values) if isinstance(spec, str) \
                else spec
            rows = [
                [bench] + [format(v, f) for v, f in zip(values, specs)]
                for bench, values in per_bench.items()
            ]
            parts.append(
                format_table(
                    (f"{metric} \\ {self.x_label}", *map(str, self.x_values)),
                    rows,
                    title=f"{self.title} — {metric}",
                )
            )
        return "\n\n".join(parts)


def figure1(
    workloads: Workloads, block_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16)
) -> Sweep:
    """Figure 1: cache block size vs miss ratio and bus traffic.

    Four-Kword, four-way caches with all optimized commands.  The paper's
    shape: miss ratio falls steadily with block size, but bus traffic is
    flat between two- and four-word blocks and *rises* above four words
    (logic programs lack the spatial locality to amortize long blocks).
    """
    miss: Dict[str, List[float]] = {}
    bus: Dict[str, List[float]] = {}
    for name in BENCH_ORDER:
        miss[name] = []
        bus[name] = []
        for block_words in block_sizes:
            cache = CacheConfig.from_capacity(
                4096, block_words=block_words, associativity=4
            )
            stats = workloads.replay(name, SimulationConfig(cache=cache))
            miss[name].append(stats.miss_ratio)
            bus[name].append(float(stats.bus_cycles_total))
    return Sweep(
        title="Figure 1: Cache Block Size vs Miss Ratio and Bus Traffic",
        x_label="block words",
        x_values=list(block_sizes),
        series={"miss ratio": miss, "bus cycles": bus},
        formats={"miss ratio": RATIO, "bus cycles": COUNT},
    )


def figure2(
    workloads: Workloads,
    capacities: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192, 16384),
) -> Sweep:
    """Figure 2: cache capacity vs miss ratio and bus traffic
    (four-word blocks, four-way, all optimized commands).  The x-axis in
    the paper is total bits (directory + 5-byte data words); the
    structured result carries both."""
    miss: Dict[str, List[float]] = {}
    bus: Dict[str, List[float]] = {}
    bits: List[int] = []
    for capacity in capacities:
        bits.append(CacheConfig.from_capacity(capacity).total_bits)
    for name in BENCH_ORDER:
        miss[name] = []
        bus[name] = []
        for capacity in capacities:
            cache = CacheConfig.from_capacity(capacity)
            stats = workloads.replay(name, SimulationConfig(cache=cache))
            miss[name].append(stats.miss_ratio)
            bus[name].append(float(stats.bus_cycles_total))
    sweep = Sweep(
        title="Figure 2: Cache Capacity vs Miss Ratio and Bus Traffic",
        x_label="capacity (words)",
        x_values=list(capacities),
        series={"miss ratio": miss, "bus cycles": bus},
        formats={"miss ratio": RATIO, "bus cycles": COUNT},
    )
    sweep.total_bits = bits  # type: ignore[attr-defined]
    return sweep


def figure3(
    workloads: Workloads, pe_counts: Tuple[int, ...] = (1, 2, 4, 8)
) -> Sweep:
    """Figure 3: number of PEs vs bus traffic, plus the per-area share
    shift (the paper: communication grows from ~0 to a dominant share
    while the heap's share falls as PEs are added)."""
    bus: Dict[str, List[float]] = {}
    comm_share: Dict[str, List[float]] = {}
    heap_share: Dict[str, List[float]] = {}
    for name in BENCH_ORDER:
        bus[name] = []
        comm_share[name] = []
        heap_share[name] = []
        for n_pes in pe_counts:
            stats = workloads.result(name, n_pes).stats
            assert stats is not None
            bus[name].append(float(stats.bus_cycles_total))
            shares = stats.area_bus_percentages()
            comm_share[name].append(shares[Area.COMMUNICATION])
            heap_share[name].append(shares[Area.HEAP])
    return Sweep(
        title="Figure 3: Number of PEs vs Bus Traffic",
        x_label="PEs",
        x_values=list(pe_counts),
        series={
            "bus cycles": bus,
            "comm % of bus": comm_share,
            "heap % of bus": heap_share,
        },
        formats={
            "bus cycles": COUNT, "comm % of bus": SHARE,
            "heap % of bus": SHARE,
        },
    )


def associativity_sweep(
    workloads: Workloads, ways: Tuple[int, ...] = (1, 2, 4, 8)
) -> Sweep:
    """Section 4.3's note: two-way caches produce more bus traffic than
    four-way; direct-mapped significantly more."""
    bus: Dict[str, List[float]] = {}
    relative: Dict[str, List[float]] = {}
    for name in BENCH_ORDER:
        bus[name] = []
        for associativity in ways:
            cache = CacheConfig.from_capacity(4096, associativity=associativity)
            stats = workloads.replay(name, SimulationConfig(cache=cache))
            bus[name].append(float(stats.bus_cycles_total))
        base = bus[name][ways.index(4)]
        relative[name] = [cycles / base for cycles in bus[name]]
    return Sweep(
        title="Associativity vs Bus Traffic (4 Kword cache)",
        x_label="ways",
        x_values=list(ways),
        series={"bus cycles": bus, "relative to 4-way": relative},
        formats={"bus cycles": COUNT, "relative to 4-way": RATIO},
    )


def bus_width_study(workloads: Workloads) -> Sweep:
    """Section 4.4: a two-word bus reduces traffic to 62-75 % of the
    one-word bus (insensitive to benchmark)."""
    ratio: Dict[str, List[float]] = {}
    for name in BENCH_ORDER:
        narrow = workloads.replay(
            name, SimulationConfig(bus=BusConfig(width_words=1))
        ).bus_cycles_total
        wide = workloads.replay(
            name, SimulationConfig(bus=BusConfig(width_words=2))
        ).bus_cycles_total
        ratio[name] = [float(narrow), float(wide), wide / narrow]
    return Sweep(
        title="Two-word Bus vs One-word Bus",
        x_label="measure",
        x_values=["1-word cycles", "2-word cycles", "ratio"],
        series={"bus": ratio},
        formats={"bus": (COUNT, COUNT, RATIO)},
    )


@dataclass
class OptimizationDetail:
    """Section 4.6's per-mechanism effects."""

    #: benchmark -> heap swap-ins with DW relative to without.
    heap_swap_in_ratio: Dict[str, float]
    #: benchmark -> swap-outs with goal commands relative to without.
    goal_swap_out_ratio: Dict[str, float]
    #: benchmark -> invalidate bus commands with comm RI relative to without.
    comm_invalidate_ratio: Dict[str, float]

    def render(self) -> str:
        rows = [
            [
                name,
                f"{self.heap_swap_in_ratio[name]:.2f}",
                f"{self.goal_swap_out_ratio[name]:.2f}",
                f"{self.comm_invalidate_ratio[name]:.2f}",
            ]
            for name in self.heap_swap_in_ratio
        ]
        return format_table(
            ("benchmark", "heap swap-in (DW)", "swap-out (Goal)", "I cmds (RI)"),
            rows,
            title="Section 4.6: per-mechanism effect (ratio vs mechanism off)",
        )


def optimization_details(workloads: Workloads) -> OptimizationDetail:
    """Quantify each mechanism in isolation, as Section 4.6 does:
    DW's swap-in reduction, the goal commands' swap-out reduction, and
    RI's invalidate-command avoidance."""
    from repro.core.states import BusCommand

    heap_ratio, goal_ratio, comm_ratio = {}, {}, {}
    for name in BENCH_ORDER:
        none = workloads.replay(
            name, SimulationConfig(opts=OptimizationConfig.none())
        )
        heap = workloads.replay(
            name, SimulationConfig(opts=OptimizationConfig.heap_only())
        )
        goal = workloads.replay(
            name, SimulationConfig(opts=OptimizationConfig.goal_only())
        )
        comm = workloads.replay(
            name, SimulationConfig(opts=OptimizationConfig.comm_only())
        )
        heap_ratio[name] = heap.swap_ins / max(none.swap_ins, 1)
        goal_ratio[name] = goal.swap_outs / max(none.swap_outs, 1)
        comm_ratio[name] = comm.command_counts[BusCommand.I] / max(
            none.command_counts[BusCommand.I], 1
        )
    return OptimizationDetail(heap_ratio, goal_ratio, comm_ratio)
