"""One-shot report generator: every table, figure and ablation in a
single markdown document.

Used by ``python -m repro report`` and by EXPERIMENTS.md regeneration::

    from repro.analysis.report import generate_report
    text = generate_report(scale="small")
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import figures as figures_module
from repro.analysis import tables as tables_module
from repro.analysis.formatting import format_table
from repro.analysis.protocols import (
    format_protocol_comparison,
    protocol_comparison,
)
from repro.analysis.runner import Workloads
from repro.cluster.replay import replay_clustered
from repro.core.config import OptimizationConfig, SimulationConfig

#: The experiments in presentation order: (title, builder taking Workloads).
_SECTIONS = (
    ("Table 1 — benchmark summary", tables_module.table1),
    ("Table 2 — references and bus cycles by area", tables_module.table2),
    ("Table 3 — references by operation", tables_module.table3),
    ("Table 4 — effect of the optimized commands", tables_module.table4),
    ("Table 5 — lock-protocol hit ratios", tables_module.table5),
    ("Figure 1 — block size sweep", figures_module.figure1),
    ("Figure 2 — capacity sweep", figures_module.figure2),
    ("Figure 3 — PE count sweep", figures_module.figure3),
    ("Associativity sweep", figures_module.associativity_sweep),
    ("Bus width study", figures_module.bus_width_study),
    ("Per-mechanism effects (Section 4.6)", figures_module.optimization_details),
)


def _sm_ablation_section(workloads: Workloads) -> str:
    rows = []
    for name in tables_module.BENCH_ORDER:
        comparison = protocol_comparison(
            workloads.trace(name), protocols=("pim", "illinois")
        )
        pim, illinois = comparison["pim"], comparison["illinois"]
        rows.append(
            (
                name,
                pim["memory_busy_cycles"],
                illinois["memory_busy_cycles"],
                f"{illinois['memory_busy_cycles'] / max(pim['memory_busy_cycles'], 1):.2f}x",
            )
        )
    return format_table(
        ("bench", "PIM mem busy", "Illinois mem busy", "penalty"),
        rows,
        title="SM-state ablation: shared-memory pressure without SM",
    )


def _protocol_matrix_section(workloads: Workloads) -> str:
    """Every registered protocol on one representative trace."""
    name = tables_module.BENCH_ORDER[0]
    comparison = protocol_comparison(workloads.trace(name))
    return format_protocol_comparison(
        comparison,
        title=f"Protocol matrix on `{name}` (every registered protocol)",
    )


def _cluster_traffic_section(workloads: Workloads, n_clusters: int = 2) -> str:
    """Inter- vs intra-cluster traffic on one representative trace.

    Replays the trace on a clustered machine and tabulates, per
    cluster, how many bus transactions stayed on the local bus versus
    crossing the inter-cluster network — plus the stall cycles that
    crossing cost and the sending link's occupancy.
    """
    name = tables_module.BENCH_ORDER[0]
    buffer = workloads.trace(name)
    clustered = replay_clustered(
        buffer, SimulationConfig().with_clusters(n_clusters)
    )
    rows = []
    for stats, net in zip(
        clustered.per_cluster, clustered.network_per_cluster
    ):
        bus_ops = sum(stats.pattern_counts)
        inter = net.messages
        elapsed = max(stats.pe_cycles) if stats.pe_cycles else 0
        rows.append(
            (
                f"c{net.cluster}",
                f"{stats.total_refs:,}",
                f"{bus_ops - inter:,}",
                f"{inter:,}",
                f"{inter / max(bus_ops, 1):.1%}",
                f"{net.stall_cycles:,}",
                f"{net.link_busy_cycles / max(elapsed, 1):.1%}",
            )
        )
    total_stats, total_net = clustered.stats, clustered.network
    total_ops = sum(total_stats.pattern_counts)
    total_elapsed = max(total_stats.pe_cycles) if total_stats.pe_cycles else 0
    rows.append(
        (
            "total",
            f"{total_stats.total_refs:,}",
            f"{total_ops - total_net.messages:,}",
            f"{total_net.messages:,}",
            f"{total_net.messages / max(total_ops, 1):.1%}",
            f"{total_net.stall_cycles:,}",
            f"{total_net.link_busy_cycles / max(total_elapsed * n_clusters, 1):.1%}",
        )
    )
    return format_table(
        (
            "cluster", "refs", "intra bus ops", "inter msgs", "inter %",
            "net stall", "link occ",
        ),
        rows,
        title=(
            f"Inter- vs intra-cluster traffic on `{name}` "
            f"({n_clusters} clusters)"
        ),
    )


def _write_policy_section(workloads: Workloads) -> str:
    rows = []
    for name in tables_module.BENCH_ORDER:
        copyback = workloads.replay(
            name, SimulationConfig(opts=OptimizationConfig.none())
        )
        through = workloads.replay(
            name,
            SimulationConfig(
                protocol="write_through", opts=OptimizationConfig.none()
            ),
        )
        rows.append(
            (
                name,
                copyback.bus_cycles_total,
                through.bus_cycles_total,
                f"{through.bus_cycles_total / max(copyback.bus_cycles_total, 1):.2f}x",
            )
        )
    return format_table(
        ("bench", "copy-back bus", "write-through bus", "penalty"),
        rows,
        title="Write-policy ablation: the copy-back choice (Section 3)",
    )


def generate_report(
    scale: str = "small", workloads: Optional[Workloads] = None
) -> str:
    """Build the full experiment report as markdown-flavoured text."""
    if workloads is None:
        workloads = Workloads(scale=scale)
    parts = [
        "# PIM cache reproduction — full experiment report",
        "",
        f"Workload scale: `{scale}`.  All numbers regenerated by this run;",
        "paper-vs-measured commentary lives in EXPERIMENTS.md.",
        "",
    ]
    for title, builder in _SECTIONS:
        parts.append(f"## {title}")
        parts.append("")
        parts.append("```")
        parts.append(builder(workloads).render())
        parts.append("```")
        parts.append("")
    parts.append("## SM-state ablation")
    parts.append("")
    parts.append("```")
    parts.append(_sm_ablation_section(workloads))
    parts.append("```")
    parts.append("")
    parts.append("## Write-policy ablation")
    parts.append("")
    parts.append("```")
    parts.append(_write_policy_section(workloads))
    parts.append("```")
    parts.append("")
    parts.append("## Protocol matrix")
    parts.append("")
    parts.append("```")
    parts.append(_protocol_matrix_section(workloads))
    parts.append("```")
    parts.append("")
    parts.append("## Cluster traffic")
    parts.append("")
    parts.append("```")
    parts.append(_cluster_traffic_section(workloads))
    parts.append("```")
    parts.append("")
    return "\n".join(parts)
