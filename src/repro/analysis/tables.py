"""Regeneration of the paper's Tables 1-5.

Each ``tableN`` function takes a :class:`~repro.analysis.runner.Workloads`
cache and returns a small result object carrying both the structured
numbers and a ``render()`` method producing the paper-shaped ASCII
table.  EXPERIMENTS.md records measured-vs-paper values.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.formatting import format_millions, format_table
from repro.analysis.runner import Workloads, unoptimized_config
from repro.core.config import TABLE4_COLUMNS, SimulationConfig
from repro.trace.events import Area

BENCH_ORDER = ("tri", "semi", "puzzle", "pascal")

#: Column order used by Table 2 (the paper's area columns).
AREA_COLUMNS = ("inst", "data", "heap", "goal", "susp", "comm")

_AREA_KEYS = {
    "inst": Area.INSTRUCTION,
    "heap": Area.HEAP,
    "goal": Area.GOAL,
    "susp": Area.SUSPENSION,
    "comm": Area.COMMUNICATION,
}


def _mean(values: List[float]) -> float:
    return statistics.fmean(values)


def _sigma(values: List[float]) -> float:
    return statistics.pstdev(values)


# ----------------------------------------------------------------------
# Table 1 — benchmark summary
# ----------------------------------------------------------------------


@dataclass
class Table1:
    """Per-benchmark high-level characteristics on eight PEs."""

    rows: List[Dict[str, object]]

    def render(self) -> str:
        return format_table(
            ("bench", "lines", "sec.", "su", "reduct", "susp", "instr", "ref"),
            [
                (
                    row["bench"],
                    row["lines"],
                    f"{row['seconds']:.1f}",
                    f"{row['speedup']:.1f}",
                    row["reductions"],
                    row["suspensions"],
                    format_millions(row["instructions"]),
                    format_millions(row["refs"]),
                )
                for row in self.rows
            ],
            title="Table 1: Short Summary of Benchmarks on Eight PEs",
        )


def table1(workloads: Workloads) -> Table1:
    """Table 1: lines, emulation time, relative speedup on 8 PEs,
    reductions, suspensions, instructions, memory references.

    Speedup is simulated-cycle speedup (one-PE cycles / eight-PE cycles)
    — the paper used emulator wall-clock on the host Symmetry, which has
    no analogue here.  ``seconds`` is the host wall time of the
    trace-recording emulation, stored with the cached trace (a warm run
    reports the stored time); the replay for the run's statistics is
    not included.
    """
    rows = []
    for name in BENCH_ORDER:
        eight = workloads.result(name, 8)
        one = workloads.result(name, 1)
        assert eight.stats is not None and one.stats is not None
        speedup = one.stats.total_cycles / max(eight.stats.total_cycles, 1)
        rows.append(
            {
                "bench": name.capitalize(),
                "lines": eight.source_lines,
                "seconds": eight.machine.wall_seconds,
                "speedup": speedup,
                "reductions": eight.machine.reductions,
                "suspensions": eight.machine.suspensions,
                "instructions": eight.machine.instructions,
                "refs": eight.machine.memory_refs,
            }
        )
    return Table1(rows)


# ----------------------------------------------------------------------
# Table 2 — references and bus cycles by area
# ----------------------------------------------------------------------


@dataclass
class Table2:
    """Percent of memory references / bus cycles by storage area, for an
    unoptimized base cache."""

    ref_mean: Dict[str, float]
    ref_sigma: Dict[str, float]
    ref_data_mean: Dict[str, float]
    bus_mean: Dict[str, float]
    bus_sigma: Dict[str, float]
    bus_data_mean: Dict[str, float]
    bus_rows: List[Dict[str, object]]

    def render(self) -> str:
        def srow(label, values):
            return [label] + [
                f"{values[c]:.2f}" if c in values else "-" for c in AREA_COLUMNS
            ]

        rows = [
            srow("E(i+d) ref%", self.ref_mean),
            srow("sigma ref%", self.ref_sigma),
            srow("E(data) ref%", self.ref_data_mean),
            srow("E(i+d) bus%", self.bus_mean),
            srow("sigma bus%", self.bus_sigma),
            srow("E(data) bus%", self.bus_data_mean),
        ]
        for row in self.bus_rows:
            rows.append(
                [row["bench"]]
                + [f"{row[c]:.2f}" for c in AREA_COLUMNS]
            )
        return format_table(
            ("", *AREA_COLUMNS),
            rows,
            title="Table 2: % Memory References and Bus Cycles by Area",
        )


def _area_percentages(stats) -> Dict[str, float]:
    percentages = stats.area_ref_percentages()
    values = {k: percentages[a] for k, a in _AREA_KEYS.items()}
    values["data"] = 100.0 - values["inst"]
    return values


def _bus_percentages(stats) -> Dict[str, float]:
    percentages = stats.area_bus_percentages()
    values = {k: percentages[a] for k, a in _AREA_KEYS.items()}
    values["data"] = 100.0 - values["inst"]
    return values


def table2(workloads: Workloads) -> Table2:
    """Table 2: reference and bus-cycle shares per area (no optimized
    commands; the optimized commands exist precisely to attack the
    shares this table exposes)."""
    config = unoptimized_config()
    ref_rows, bus_rows, named_bus = [], [], []
    for name in BENCH_ORDER:
        stats = workloads.replay(name, config)
        ref_rows.append(_area_percentages(stats))
        bus = _bus_percentages(stats)
        bus_rows.append(bus)
        named_bus.append({"bench": name.capitalize(), **bus})

    def aggregate(rows, fn):
        return {c: fn([row[c] for row in rows]) for c in AREA_COLUMNS}

    def data_only(rows):
        # Shares within the data areas only (the paper's E(data) row).
        out = {}
        for column in ("heap", "goal", "susp", "comm"):
            out[column] = _mean(
                [100.0 * row[column] / row["data"] for row in rows if row["data"]]
            )
        return out

    return Table2(
        ref_mean=aggregate(ref_rows, _mean),
        ref_sigma=aggregate(ref_rows, _sigma),
        ref_data_mean=data_only(ref_rows),
        bus_mean=aggregate(bus_rows, _mean),
        bus_sigma=aggregate(bus_rows, _sigma),
        bus_data_mean=data_only(bus_rows),
        bus_rows=named_bus,
    )


# ----------------------------------------------------------------------
# Table 3 — references by operation
# ----------------------------------------------------------------------

OP_COLUMNS = ("R", "LR", "W", "UW+U")


@dataclass
class Table3:
    """Percent of memory references by operation class."""

    overall_mean: Dict[str, float]
    overall_sigma: Dict[str, float]
    data_mean: Dict[str, float]
    data_sigma: Dict[str, float]
    heap_mean: Dict[str, float]
    heap_sigma: Dict[str, float]
    bench_rows: List[Dict[str, object]]

    def render(self) -> str:
        rows = [
            ["E(inst+data)"] + [f"{self.overall_mean[c]:.2f}" for c in OP_COLUMNS],
            ["sigma(i+d)"] + [f"{self.overall_sigma[c]:.2f}" for c in OP_COLUMNS],
            ["E(data)"] + [f"{self.data_mean[c]:.2f}" for c in OP_COLUMNS],
            ["sigma(data)"] + [f"{self.data_sigma[c]:.2f}" for c in OP_COLUMNS],
            ["E(heap)"] + [f"{self.heap_mean[c]:.2f}" for c in OP_COLUMNS],
            ["sigma(heap)"] + [f"{self.heap_sigma[c]:.2f}" for c in OP_COLUMNS],
        ]
        for row in self.bench_rows:
            rows.append([row["bench"]] + [f"{row[c]:.2f}" for c in OP_COLUMNS])
        return format_table(
            ("operation", *OP_COLUMNS),
            rows,
            title="Table 3: Percentage of Memory References by Operation",
        )


def table3(workloads: Workloads) -> Table3:
    """Table 3: operation mix (reads, lock-reads, writes, unlocks).

    DW counts as a write and ER/RP/RI count as reads — Table 3 reports
    what the *software* issues, independent of controller demotion.
    """
    overall, data, heap, bench_rows = [], [], [], []
    for name in BENCH_ORDER:
        stats = workloads.result(name, 8).stats
        assert stats is not None
        overall.append(stats.op_ref_percentages())
        data_row = stats.op_ref_percentages(data_only=True)
        data.append(data_row)
        heap.append(stats.heap_op_percentages())
        bench_rows.append({"bench": name.capitalize(), **data_row})

    def aggregate(rows, fn):
        return {c: fn([row[c] for row in rows]) for c in OP_COLUMNS}

    return Table3(
        overall_mean=aggregate(overall, _mean),
        overall_sigma=aggregate(overall, _sigma),
        data_mean=aggregate(data, _mean),
        data_sigma=aggregate(data, _sigma),
        heap_mean=aggregate(heap, _mean),
        heap_sigma=aggregate(heap, _sigma),
        bench_rows=bench_rows,
    )


# ----------------------------------------------------------------------
# Table 4 — effect of the optimized commands
# ----------------------------------------------------------------------


@dataclass
class Table4:
    """Bus cycles relative to the unoptimized cache, per optimization
    site (None / Heap / Goal / Comm / All)."""

    columns: List[str]
    rows: List[Dict[str, object]]
    #: Raw bus-cycle counts backing the ratios.
    raw: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def render(self) -> str:
        return format_table(
            ("benchmark", *self.columns),
            [
                [row["bench"]] + [f"{row[c]:.2f}" for c in self.columns]
                for row in self.rows
            ],
            title=(
                "Table 4: Effect of Optimized Cache Commands in Reducing "
                "Bus Traffic (bus cycles relative to no-opt)"
            ),
        )


def table4(workloads: Workloads) -> Table4:
    """Table 4: replay each benchmark's trace under the five
    optimization configurations and normalize to "None"."""
    columns = [label for label, _ in TABLE4_COLUMNS]
    rows, raw = [], {}
    for name in BENCH_ORDER:
        cycles = {}
        for label, opts in TABLE4_COLUMNS:
            stats = workloads.replay(name, SimulationConfig(opts=opts))
            cycles[label] = stats.bus_cycles_total
        base = cycles["None"]
        raw[name] = cycles
        rows.append(
            {
                "bench": name.capitalize(),
                **{label: cycles[label] / base for label in columns},
            }
        )
    return Table4(columns=columns, rows=rows, raw=raw)


# ----------------------------------------------------------------------
# Table 5 — lock protocol hit ratios
# ----------------------------------------------------------------------


@dataclass
class Table5:
    """The no-cost lock operation ratios of the three-state protocol."""

    rows: List[Dict[str, object]]

    def render(self) -> str:
        benches = [row["bench"] for row in self.rows]
        metrics = (
            ("LR hit-ratio", "lr_hit"),
            ("LR hit-to-Exclusive", "lr_exclusive"),
            ("U,UW hit-to-No-waiter", "no_waiter"),
        )
        table_rows = []
        for label, key in metrics:
            table_rows.append(
                [label] + [f"{row[key]:.3f}" for row in self.rows]
            )
        return format_table(
            ("", *benches),
            table_rows,
            title="Table 5: Hit Ratios of No Cost Lock Operations",
        )


def table5(workloads: Workloads) -> Table5:
    """Table 5: from the execution-driven base runs — LR hit ratio, LR
    hits landing in exclusive blocks (zero bus), and unlocks finding no
    waiter (no UL broadcast)."""
    rows = []
    for name in BENCH_ORDER:
        stats = workloads.result(name, 8).stats
        assert stats is not None
        rows.append(
            {
                "bench": name.capitalize(),
                "lr_hit": stats.lr_hit_ratio,
                "lr_exclusive": stats.lr_hit_to_exclusive_ratio,
                "no_waiter": stats.unlock_no_waiter_ratio,
            }
        )
    return Table5(rows)
