"""The report's ablation and sensitivity studies: the Section 3 design
arguments (SM state, write policy, lock-directory size), Section 4.2's
memory-latency claim and the Aurora transfer claim of Sections 1 and 5.

Each study returns a :class:`Study`: labelled rows of raw measures plus
the columns ``render()`` shows, so the report's claims
(:mod:`repro.analysis.claims`) read the same numbers the tables print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.formatting import format_table
from repro.analysis.protocols import protocol_comparison
from repro.analysis.runner import Workloads
from repro.analysis.tables import BENCH_ORDER
from repro.core.config import BusConfig, OptimizationConfig, SimulationConfig
from repro.core.replay import replay
from repro.core.states import BusPattern
from repro.trace.synthetic import AuroraTraceConfig, generate_aurora_trace

#: Column formats: a plain count, a ratio with an ``x`` suffix.
COUNT, TIMES = str, "{:.2f}x".format


@dataclass
class Study:
    """Labelled rows of measures; ``columns`` picks what is rendered."""

    title: str
    #: (header, row key, formatter) for each rendered column.
    columns: Tuple[Tuple[str, str, Callable[[object], str]], ...]
    #: row label (a benchmark or a config) -> measure -> value.
    rows: Dict[str, Dict[str, float]]
    label: str = "bench"

    def render(self) -> str:
        return format_table(
            (self.label, *(header for header, _, _ in self.columns)),
            [
                (name, *(fmt(row[key]) for _, key, fmt in self.columns))
                for name, row in self.rows.items()
            ],
            title=self.title,
        )


def sm_ablation(workloads: Workloads) -> Study:
    """Section 3.1's rationale for the SM state: without it (Illinois),
    every cache-to-cache transfer of a dirty block also writes shared
    memory, raising the memory modules' busy time and swap-outs."""
    rows = {}
    for name in BENCH_ORDER:
        comparison = protocol_comparison(
            workloads.trace(name), protocols=("pim", "illinois")
        )
        pim, illinois = comparison["pim"], comparison["illinois"]
        rows[name] = {
            **{f"pim_{key}": value for key, value in pim.items()},
            **{f"illinois_{key}": value for key, value in illinois.items()},
            "penalty": illinois["memory_busy_cycles"]
            / max(pim["memory_busy_cycles"], 1),
        }
    return Study(
        "SM-state ablation: shared-memory pressure without SM",
        (
            ("PIM mem busy", "pim_memory_busy_cycles", COUNT),
            ("Illinois mem busy", "illinois_memory_busy_cycles", COUNT),
            ("penalty", "penalty", TIMES),
            ("PIM swap-outs", "pim_swap_outs", COUNT),
            ("Illinois swap-outs", "illinois_swap_outs", COUNT),
        ),
        rows,
    )


def write_policy(workloads: Workloads) -> Study:
    """Section 3's copy-back choice: write-through and broadcast update,
    each with the optimized commands off, against copy-back."""
    rows = {}
    for name in BENCH_ORDER:
        stats = {
            protocol: workloads.replay(
                name,
                SimulationConfig(
                    protocol=protocol, opts=OptimizationConfig.none()
                ),
            )
            for protocol in ("pim", "write_through", "write_update")
        }
        copyback, through = stats["pim"], stats["write_through"]
        rows[name] = {
            **{
                f"{protocol}_bus": s.bus_cycles_total
                for protocol, s in stats.items()
            },
            "penalty": through.bus_cycles_total
            / max(copyback.bus_cycles_total, 1),
            "pim_memory": copyback.memory_busy_cycles,
            "write_through_memory": through.memory_busy_cycles,
        }
    return Study(
        "Write-policy ablation: the copy-back choice (Section 3)",
        (
            ("copy-back bus", "pim_bus", COUNT),
            ("write-through bus", "write_through_bus", COUNT),
            ("penalty", "penalty", TIMES),
            ("write-update bus", "write_update_bus", COUNT),
            ("copy-back mem", "pim_memory", COUNT),
            ("write-through mem", "write_through_memory", COUNT),
        ),
        rows,
    )


def memory_latency(
    workloads: Workloads, latencies: Tuple[int, int, int] = (4, 8, 16)
) -> Study:
    """Section 4.2: bus traffic is insensitive to memory access time
    because most of it is cache-to-cache.  Sweeps the shared-memory
    latency around the base 8 cycles."""
    rows = {}
    for name in BENCH_ORDER:
        stats = {
            f"mem={cycles}": workloads.replay(
                name,
                SimulationConfig(bus=BusConfig(memory_access_cycles=cycles)),
            )
            for cycles in latencies
        }
        fast, base, slow = stats.values()
        counts = base.pattern_counts
        c2c = counts[BusPattern.C2C] + counts[BusPattern.C2C_WITH_SWAP_OUT]
        swap_ins = (
            counts[BusPattern.SWAP_IN]
            + counts[BusPattern.SWAP_IN_WITH_SWAP_OUT]
        )
        rows[name] = {
            **{key: s.bus_cycles_total for key, s in stats.items()},
            "swing": slow.bus_cycles_total / max(fast.bus_cycles_total, 1),
            "c2c_share": c2c / max(c2c + swap_ins, 1),
            "same_patterns": fast.pattern_counts == slow.pattern_counts,
        }
    return Study(
        "Memory access time vs bus traffic (Section 4.2 claim)",
        (
            *((key, key, COUNT) for key in stats),
            (f"{latencies[-1]}/{latencies[0]} ratio", "swing",
             "{:.2f}".format),
            ("c2c share", "c2c_share", "{:.0%}".format),
        ),
        rows,
    )


def lock_capacity(workloads: Workloads) -> Study:
    """Section 3.1: "only one or two lock entries per directory" are
    needed.  The base config has two; its replay records the peak
    simultaneous occupancy and every registration beyond capacity."""
    rows = {}
    for name in BENCH_ORDER:
        stats = workloads.replay(name, SimulationConfig())
        rows[name] = {
            "peak": stats.lock_dir_max_occupancy,
            "overflows": stats.lock_dir_overflows,
            "lock_reads": stats.lr_bus + stats.lr_no_bus,
        }
    return Study(
        "Lock-directory occupancy (capacity 2, Section 3.1 claim)",
        (
            ("peak entries", "peak", COUNT),
            ("overflows", "overflows", COUNT),
            ("lock reads", "lock_reads", COUNT),
        ),
        rows,
    )


def aurora_transfer(workloads: Optional[Workloads] = None) -> Study:
    """Sections 1 and 5: the optimized commands also help a
    non-committed-choice system, here the synthetic Aurora-style
    OR-parallel trace (8 workers).  The trace is the same at every
    scale, so *workloads* is not read."""
    trace = generate_aurora_trace(
        AuroraTraceConfig(n_pes=8, steps_per_pe=4000)
    )
    rows = {}
    for label, opts in (
        ("none", OptimizationConfig.none()), ("all", OptimizationConfig.all())
    ):
        stats = replay(trace, SimulationConfig(opts=opts))
        rows[label] = {
            "bus": stats.bus_cycles_total,
            "miss_ratio": stats.miss_ratio,
            "lock_reads": stats.lr_bus + stats.lr_no_bus,
        }
    for row in rows.values():
        row["relative"] = row["bus"] / max(rows["none"]["bus"], 1)
    return Study(
        f"Aurora-style OR-parallel trace ({len(trace)} refs, 8 workers)",
        (
            ("bus cycles", "bus", COUNT),
            ("miss ratio", "miss_ratio", "{:.4f}".format),
            ("relative", "relative", "{:.2f}".format),
            ("lock reads", "lock_reads", COUNT),
        ),
        rows,
        label="config",
    )
