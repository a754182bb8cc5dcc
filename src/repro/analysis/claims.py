"""The paper's claims as data, checked against the report's own results.

Each :class:`Claim` names one statement of the paper (Section 4's tables
and figures, the Section 3 design arguments), the bound that checks it
on the scaled workloads and a *measure*: a function of one structured
result the report builds (``Table1`` ... ``Table5``, a ``Sweep``,
``OptimizationDetail`` or a ``Study``).  The claim id's prefix names
that result, so evaluating a claim replays nothing.

A measure that spans the benchmarks returns the worst case against its
bound (the least value for a lower bound, the greatest for an upper
one), or the ``(least, greatest)`` pair for a two-sided bound.  The
bounds are calibrated at :data:`CLAIMS_SCALE`; the report evaluates
them at that scale only.
"""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

#: The workload scale the bounds are calibrated at.
CLAIMS_SCALE = "small"

Measured = Union[float, Tuple[float, float]]

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One checked statement: ``id`` is ``<section>.<name>``."""

    id: str
    statement: str
    #: ``"<op> <limit>"``, or ``"<low> <op> x <op> <high>"``.
    bound: str
    measure: Callable[[object], Measured]

    @property
    def section(self) -> str:
        """The key of the report result the measure reads."""
        return self.id.split(".", 1)[0]


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: Measured
    holds: bool


def _holds(bound: str, measured: Measured) -> bool:
    words = bound.split()
    least, most = measured if isinstance(measured, tuple) else (measured,) * 2
    if len(words) == 2:
        op, limit = words
        return _OPS[op](least, float(limit)) and _OPS[op](most, float(limit))
    low, low_op, _, high_op, high = words
    return _OPS[low_op](float(low), least) and _OPS[high_op](most, float(high))


def evaluate(
    results: Dict[str, object], claims: Sequence[Claim]
) -> List[Verdict]:
    """Measure every claim on its section's result and check its bound."""
    verdicts = []
    for claim in claims:
        measured = claim.measure(results[claim.section])
        verdicts.append(Verdict(claim, measured, _holds(claim.bound, measured)))
    return verdicts


def _show(value: Measured) -> str:
    if isinstance(value, tuple):
        return "–".join(map(_show, value))
    return format(value, ".4g") if isinstance(value, float) else str(value)


def render(verdicts: Sequence[Verdict]) -> str:
    """The verdicts as a markdown table under a one-line tally."""
    failed = sum(not verdict.holds for verdict in verdicts)
    lines = [
        f"{len(verdicts) - failed} of {len(verdicts)} claims hold.",
        "",
        "| claim | statement | bound | measured | verdict |",
        "|---|---|---|---|---|",
    ]
    for verdict in verdicts:
        claim = verdict.claim
        lines.append(
            f"| `{claim.id}` | {claim.statement} | {claim.bound} | "
            f"{_show(verdict.measured)} | "
            f"{'ok' if verdict.holds else '**FAIL**'} |"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Measures
# ----------------------------------------------------------------------


def _span(values) -> Tuple[float, float]:
    values = list(values)
    return min(values), max(values)


def _spread(values) -> float:
    least, most = _span(values)
    return most - least


def _by_bench(rows) -> Dict[str, Dict[str, object]]:
    """A table's rows by benchmark name (lower-cased)."""
    return {row["bench"].lower(): row for row in rows}


def _points(sweep, metric: str) -> Dict[str, Dict[object, float]]:
    """One sweep metric as benchmark -> x value -> y value."""
    return {
        bench: dict(zip(sweep.x_values, values))
        for bench, values in sweep.series[metric].items()
    }


def _steps(sweep, metric: str) -> float:
    """The largest ratio of one point to the one before it."""
    return max(
        after / before
        for values in sweep.series[metric].values()
        for before, after in zip(values, values[1:])
    )


def _gain(values: List[float]) -> float:
    """Relative bus-traffic saving from the first to the last point."""
    return (values[0] - values[-1]) / values[0]


def _growth(sweep) -> Dict[str, float]:
    """Bus cycles on the most PEs over bus cycles on the fewest."""
    return {
        bench: values[-1] / values[0]
        for bench, values in sweep.series["bus cycles"].items()
    }


_SCHEDULER_BOUND = ("tri", "semi", "pascal")
_TABLE4_SITES = ("Heap", "Goal", "Comm", "All")


def _susp_rate(table1, bench: str) -> float:
    row = _by_bench(table1.rows)[bench]
    return row["suspensions"] / row["reductions"]


def _op_total(row) -> float:
    return row["R"] + row["LR"] + row["W"] + row["UW+U"]


CLAIMS: Tuple[Claim, ...] = (
    # Table 1 -- benchmark summary on eight PEs.
    Claim("table1.reductions", "every benchmark does real work (reductions)",
          "> 5000", lambda t: min(r["reductions"] for r in t.rows)),
    Claim("table1.refs_per_reduction",
          "tens of references per reduction (paper: ~40)", "10 < x < 120",
          lambda t: _span(r["refs"] / r["reductions"] for r in t.rows)),
    Claim("table1.instruction_share",
          "instructions are a large minority of refs (paper: 0.43)",
          "0.15 < x < 0.6",
          lambda t: _span(r["instructions"] / r["refs"] for r in t.rows)),
    Claim("table1.no_slowdown", "no benchmark slows down on eight PEs",
          "> 0.8", lambda t: min(r["speedup"] for r in t.rows)),
    Claim("table1.puzzle_speedup",
          "Puzzle, a parallel search, speeds up (paper: 4.8-6.5)", "> 3.0",
          lambda t: _by_bench(t.rows)["puzzle"]["speedup"]),
    Claim("table1.tri_speedup", "Tri speeds up on eight PEs", "> 2.0",
          lambda t: _by_bench(t.rows)["tri"]["speedup"]),
    Claim("table1.tri_suspension_free",
          "Tri is nearly suspension-free (suspensions per reduction)",
          "< 0.1", lambda t: _susp_rate(t, "tri")),
    Claim("table1.semi_suspends_more",
          "Semi suspends more per reduction than Puzzle (difference)", "> 0",
          lambda t: _susp_rate(t, "semi") - _susp_rate(t, "puzzle")),
    # Table 2 -- references and bus cycles by area, unoptimized cache.
    Claim("table2.inst_refs", "instructions: many refs (paper: 43 %)",
          "> 15", lambda t: t.ref_mean["inst"]),
    Claim("table2.inst_bus", "instructions: few bus cycles (paper: 4.5 %)",
          "< 12", lambda t: t.bus_mean["inst"]),
    Claim("table2.inst_bus_per_ref",
          "instruction bus share over instruction ref share", "< 0.5",
          lambda t: t.bus_mean["inst"] / t.ref_mean["inst"]),
    Claim("table2.heap_bus_per_ref",
          "heap bus share over heap ref share (poor locality)", "> 1",
          lambda t: t.bus_mean["heap"] / t.ref_mean["heap"]),
    Claim("table2.puzzle_heap_bus", "Puzzle's heap bus share (paper: 81 %)",
          "> 60", lambda t: _by_bench(t.bus_rows)["puzzle"]["heap"]),
    Claim("table2.pascal_heap_bus", "Pascal's heap bus share (paper: 59 %)",
          "> 40", lambda t: _by_bench(t.bus_rows)["pascal"]["heap"]),
    Claim("table2.comm_bus_per_ref",
          "comm area: bus share over ref share (paper: 17 % / 2 %)", "> 2",
          lambda t: t.bus_mean["comm"] / t.ref_mean["comm"]),
    Claim("table2.susp_refs", "suspension area: few refs (paper: < 3 %)",
          "< 3", lambda t: t.ref_mean["susp"]),
    Claim("table2.susp_bus", "suspension area: few bus cycles", "< 8",
          lambda t: t.bus_mean["susp"]),
    # Table 3 -- references by operation.
    Claim("table3.reads_dominate", "reads dominate all references (%)",
          "> 55", lambda t: t.overall_mean["R"]),
    Claim("table3.data_writes", "data writes (paper: 30.7 %)",
          "20 < x < 50", lambda t: t.data_mean["W"]),
    Claim("table3.data_reads_per_write", "data reads per data write",
          "> 1", lambda t: t.data_mean["R"] / t.data_mean["W"]),
    Claim("table3.data_locks", "data lock reads (paper: 5.1 %)",
          "1 < x < 12", lambda t: t.data_mean["LR"]),
    Claim("table3.every_lock_unlocked",
          "every LR has its unlock: LR % and UW+U % differ by", "< 1.0",
          lambda t: abs(t.data_mean["LR"] - t.data_mean["UW+U"])),
    Claim("table3.heap_locks_more",
          "heap LR share minus overall LR share (bindings)", "> 0",
          lambda t: t.heap_mean["LR"] - t.overall_mean["LR"]),
    Claim("table3.rows_partition",
          "each benchmark's operation mix misses 100 % by", "< 0.5",
          lambda t: max(abs(_op_total(row) - 100.0) for row in t.bench_rows)),
    # Table 4 -- bus cycles relative to the unoptimized cache.
    Claim("table4.no_optimization_hurts",
          "no optimization site adds bus cycles", "<= 1.001",
          lambda t: max(r[c] for r in t.rows for c in _TABLE4_SITES)),
    Claim("table4.all_in_band",
          "All cuts bus cycles to 0.51-0.62 (band widened)",
          "0.25 <= x <= 0.90", lambda t: _span(r["All"] for r in t.rows)),
    Claim("table4.all_matches_best_site",
          "All minus the best single site", "<= 0.02",
          lambda t: max(r["All"] - min(r["Heap"], r["Goal"], r["Comm"])
                        for r in t.rows)),
    Claim("table4.dw_beats_ri", "Heap (DW) minus Comm (RI)", "<= 0.05",
          lambda t: max(r["Heap"] - r["Comm"] for r in t.rows)),
    Claim("table4.ri_saves_few_cycles", "Comm (RI) (paper: 0.83-0.99)",
          "> 0.90", lambda t: min(r["Comm"] for r in t.rows)),
    Claim("table4.puzzle_gains_most_from_dw",
          "Puzzle's Heap minus the lowest other Heap", "<= 0",
          lambda t: _by_bench(t.rows)["puzzle"]["Heap"] - min(
              r["Heap"] for name, r in _by_bench(t.rows).items()
              if name != "puzzle")),
    # Table 5 -- the no-cost lock operations.
    Claim("table5.no_waiter",
          "unlocks find no waiter (paper: >= 0.976)", ">= 0.95",
          lambda t: min(r["no_waiter"] for r in t.rows)),
    Claim("table5.exclusive_hits",
          "LR hits to exclusive blocks, of all LR hits", "> 0.6",
          lambda t: min((r["lr_exclusive"] / r["lr_hit"] for r in t.rows
                         if r["lr_hit"] > 0), default=float("nan"))),
    Claim("table5.puzzle_lr_hit", "Puzzle's LR hit ratio (paper: 0.959)",
          "> 0.85", lambda t: _by_bench(t.rows)["puzzle"]["lr_hit"]),
    Claim("table5.tri_lr_hit", "Tri's LR hit ratio (paper: 0.743)",
          "> 0.6", lambda t: _by_bench(t.rows)["tri"]["lr_hit"]),
    # Figure 1 -- block size.
    Claim("figure1.miss_ratio_falls",
          "miss ratio falls with block size (worst step ratio)", "<= 1.10",
          lambda s: _steps(s, "miss ratio")),
    Claim("figure1.two_and_four_close",
          "2w and 4w bus cycles differ by (relative to 2w)", "< 0.35",
          lambda s: max(abs(p[4] - p[2]) / p[2]
                        for p in _points(s, "bus cycles").values())),
    Claim("figure1.long_blocks_restrictive",
          "long blocks are restrictive: 16w / 4w bus cycles", "> 1.5",
          lambda s: min(p[16] / p[4]
                        for p in _points(s, "bus cycles").values())),
    Claim("figure1.sweet_spot_small",
          "best of 2w and 4w bus cycles over 1w", "<= 1.0",
          lambda s: max(min(p[2], p[4]) / p[1]
                        for p in _points(s, "bus cycles").values())),
    # Figure 2 -- capacity.
    Claim("figure2.four_kword_bits",
          "a 4 Kword cache is ~190000 bits (x-axis)", "== 189440",
          lambda s: s.total_bits[s.x_values.index(4096)]),
    Claim("figure2.miss_ratio_falls",
          "more capacity never raises misses (worst step ratio)", "<= 1.02",
          lambda s: _steps(s, "miss ratio")),
    Claim("figure2.bus_falls",
          "more capacity never raises traffic (worst step ratio)", "<= 1.05",
          lambda s: _steps(s, "bus cycles")),
    Claim("figure2.semi_flat",
          "Semi's working set fits early: its bus-cycle gain", "< 0.35",
          lambda s: _gain(s.series["bus cycles"]["semi"])),
    Claim("figure2.puzzle_gains_most",
          "Puzzle's gain minus the best other benchmark's", ">= 0",
          lambda s: _gain(s.series["bus cycles"]["puzzle"]) - max(
              _gain(values) for name, values in s.series["bus cycles"].items()
              if name != "puzzle")),
    Claim("figure2.puzzle_gain",
          "Puzzle's large structures: its bus-cycle gain", "> 0.5",
          lambda s: _gain(s.series["bus cycles"]["puzzle"])),
    # Figure 3 -- number of PEs.
    Claim("figure3.parallel_never_cuts_traffic",
          "8-PE over 1-PE bus cycles, every benchmark", "> 0.85",
          lambda s: min(_growth(s).values())),
    Claim("figure3.scheduler_bound_grow",
          "8-PE over 1-PE bus cycles, Tri/Semi/Pascal", "> 1.5",
          lambda s: min(_growth(s)[name] for name in _SCHEDULER_BOUND)),
    Claim("figure3.comm_negligible_at_one_pe",
          "comm % of bus on one PE, Tri/Semi/Pascal", "< 1.0",
          lambda s: max(s.series["comm % of bus"][n][0]
                        for n in _SCHEDULER_BOUND)),
    Claim("figure3.comm_substantial_at_eight",
          "comm % of bus on eight PEs (paper: 29 %)", "> 5.0",
          lambda s: min(s.series["comm % of bus"][n][-1]
                        for n in _SCHEDULER_BOUND)),
    Claim("figure3.comm_share_grows",
          "comm % of bus, eight PEs minus one", "> 0",
          lambda s: min(s.series["comm % of bus"][n][-1]
                        - s.series["comm % of bus"][n][0]
                        for n in _SCHEDULER_BOUND)),
    Claim("figure3.heap_share_falls",
          "heap % of bus, eight PEs minus one", "< 0",
          lambda s: max(s.series["heap % of bus"][n][-1]
                        - s.series["heap % of bus"][n][0]
                        for n in _SCHEDULER_BOUND)),
    Claim("figure3.tri_grows_more_than_puzzle",
          "Tri's traffic growth over Puzzle's (load distribution)", "> 1",
          lambda s: _growth(s)["tri"] / _growth(s)["puzzle"]),
    Claim("figure3.tri_growth", "Tri's 8-PE over 1-PE bus cycles", "> 2.0",
          lambda s: _growth(s)["tri"]),
    # Section 4.3 -- associativity, relative to four ways.
    Claim("associativity.two_way_costs_more",
          "2-way over 4-way bus cycles (paper: +18 % for BUP)", "> 1.02",
          lambda s: min(p[2] for p in _points(s, "relative to 4-way")
                        .values())),
    Claim("associativity.direct_mapped_far_worse",
          "direct-mapped over 4-way bus cycles", "> 1.5",
          lambda s: min(p[1] for p in _points(s, "relative to 4-way")
                        .values())),
    Claim("associativity.direct_worse_than_two_way",
          "direct-mapped minus 2-way (relative)", "> 0",
          lambda s: min(p[1] - p[2] for p in _points(s, "relative to 4-way")
                        .values())),
    Claim("associativity.diminishing_returns",
          "2->4-way saving minus 4->8-way saving", "> 0",
          lambda s: min((p[2] - p[4]) - (p[4] - p[8])
                        for p in _points(s, "relative to 4-way").values())),
    Claim("associativity.eight_way_floor",
          "8-way over 4-way bus cycles", "> 0.6",
          lambda s: min(p[8] for p in _points(s, "relative to 4-way")
                        .values())),
    # Section 4.4 -- two-word bus.
    Claim("bus_width.ratio_in_band",
          "2-word over 1-word bus cycles (paper: 0.62-0.75)",
          "0.55 < x < 0.85",
          lambda s: _span(v[2] for v in s.series["bus"].values())),
    Claim("bus_width.insensitive_to_benchmark",
          "spread of that ratio across benchmarks", "< 0.15",
          lambda s: _spread(v[2] for v in s.series["bus"].values())),
    # Section 4.6 -- per-mechanism effects.
    Claim("opt_details.dw_cuts_heap_swap_ins",
          "heap swap-ins with DW (paper: 0.10-0.55)", "< 0.9",
          lambda d: max(d.heap_swap_in_ratio.values())),
    Claim("opt_details.dw_puzzle", "Puzzle's heap swap-ins with DW",
          "< 0.3", lambda d: d.heap_swap_in_ratio["puzzle"]),
    Claim("opt_details.dw_tri", "Tri's heap swap-ins with DW", "< 0.7",
          lambda d: d.heap_swap_in_ratio["tri"]),
    Claim("opt_details.goal_never_adds_swap_outs",
          "swap-outs with the goal commands (paper: 0.90-0.98)", "<= 1.0",
          lambda d: max(d.goal_swap_out_ratio.values())),
    Claim("opt_details.ri_removes_invalidates",
          "I commands with RI, every benchmark", "< 0.96",
          lambda d: max(d.comm_invalidate_ratio.values())),
    Claim("opt_details.ri_mean",
          "I commands with RI, mean (paper: 0.30-0.40)", "< 0.9",
          lambda d: statistics.fmean(d.comm_invalidate_ratio.values())),
    # Section 3.1 -- the SM state.
    Claim("sm_ablation.memory_pressure",
          "memory busy cycles without SM over with SM", "> 1",
          lambda s: min(r["penalty"] for r in s.rows.values())),
    Claim("sm_ablation.swap_outs", "swap-outs without SM minus with SM",
          "> 0", lambda s: min(r["illinois_swap_outs"] - r["pim_swap_outs"]
                               for r in s.rows.values())),
    Claim("sm_ablation.same_hits",
          "both protocols see the same hits: miss ratios differ by",
          "== 0", lambda s: max(abs(r["illinois_miss_ratio"]
                                    - r["pim_miss_ratio"])
                                for r in s.rows.values())),
    # Section 3 -- the write policy.
    Claim("write_policy.through_costs_bus",
          "write-through over copy-back bus cycles", "> 1",
          lambda s: min(r["penalty"] for r in s.rows.values())),
    Claim("write_policy.update_costs_bus",
          "write-update over copy-back bus cycles", "> 1",
          lambda s: min(r["write_update_bus"] / r["pim_bus"]
                        for r in s.rows.values())),
    Claim("write_policy.memory_pressure",
          "copy-back over write-through memory busy cycles", "< 0.5",
          lambda s: max(r["pim_memory"] / r["write_through_memory"]
                        for r in s.rows.values())),
    Claim("write_policy.update_buys_nothing",
          "write-update over write-through bus cycles", "> 0.85",
          lambda s: min(r["write_update_bus"] / r["write_through_bus"]
                        for r in s.rows.values())),
    # Section 4.2 -- memory access time.
    Claim("memory_latency.insensitive",
          "16-cycle over 4-cycle memory: bus cycles", "< 1.8",
          lambda s: max(r["swing"] for r in s.rows.values())),
    Claim("memory_latency.same_transfers",
          "benchmarks whose transfers change with latency", "== 0",
          lambda s: sum(not r["same_patterns"] for r in s.rows.values())),
    Claim("memory_latency.c2c_share",
          "cache-to-cache share of block fetches", "> 0.25",
          lambda s: min(r["c2c_share"] for r in s.rows.values())),
    # Section 3.1 -- lock-directory size.
    Claim("lock_capacity.two_entries_suffice",
          "peak lock entries per directory", "<= 2",
          lambda s: max(r["peak"] for r in s.rows.values())),
    Claim("lock_capacity.no_overflow",
          "registrations beyond two entries", "== 0",
          lambda s: sum(r["overflows"] for r in s.rows.values())),
    Claim("lock_capacity.locks_exercised", "lock reads, fewest of any bench",
          "> 0", lambda s: min(r["lock_reads"] for r in s.rows.values())),
    # Sections 1 and 5 -- the Aurora transfer.
    Claim("aurora.optimizations_transfer",
          "Aurora trace: All over None bus cycles (KL1: 0.51-0.62)",
          "< 0.75", lambda s: s.rows["all"]["relative"]),
    Claim("aurora.has_lock_traffic", "Aurora trace: lock reads", "> 0",
          lambda s: s.rows["none"]["lock_reads"]),
)
