"""One-shot report generator: every table, figure and ablation in a
single markdown document, ending with the paper's claims checked
against those results (:mod:`repro.analysis.claims`).

Used by ``python -m repro report`` (exit 1 if a claim fails) and by
EXPERIMENTS.md regeneration::

    from repro.analysis.report import generate_report
    report = generate_report(scale="small")
    report.text, report.failed
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import claims as claims_module
from repro.analysis import figures as figures_module
from repro.analysis import studies
from repro.analysis import tables as tables_module
from repro.analysis.formatting import format_table
from repro.analysis.protocols import (
    format_protocol_comparison,
    protocol_comparison,
)
from repro.analysis.runner import Workloads
from repro.cluster.replay import replay_clustered
from repro.core.config import SimulationConfig


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


#: The experiments in presentation order: (result key, heading, builder
#: taking Workloads and returning a result with ``render()``, or text).
#: A claim's id starts with the key of the result it reads.
SECTIONS = (
    ("table1", "Table 1 — benchmark summary", tables_module.table1),
    ("table2", "Table 2 — references and bus cycles by area",
     tables_module.table2),
    ("table3", "Table 3 — references by operation", tables_module.table3),
    ("table4", "Table 4 — effect of the optimized commands",
     tables_module.table4),
    ("table5", "Table 5 — lock-protocol hit ratios", tables_module.table5),
    ("figure1", "Figure 1 — block size sweep", figures_module.figure1),
    ("figure2", "Figure 2 — capacity sweep", figures_module.figure2),
    ("figure3", "Figure 3 — PE count sweep", figures_module.figure3),
    ("associativity", "Associativity sweep",
     figures_module.associativity_sweep),
    ("bus_width", "Bus width study", figures_module.bus_width_study),
    ("opt_details", "Per-mechanism effects (Section 4.6)",
     figures_module.optimization_details),
    ("sm_ablation", "SM-state ablation", studies.sm_ablation),
    ("write_policy", "Write-policy ablation", studies.write_policy),
    ("memory_latency", "Memory-latency sensitivity (Section 4.2)",
     studies.memory_latency),
    ("lock_capacity", "Lock-directory capacity (Section 3.1)",
     studies.lock_capacity),
    ("aurora", "Aurora transfer (Sections 1 and 5)", studies.aurora_transfer),
    ("protocol_matrix", "Protocol matrix", _protocol_matrix_section),
    ("cluster_traffic", "Cluster traffic", _cluster_traffic_section),
)


@dataclass
class Report:
    """The rendered report, each section's result by key, and the
    verdict on each claim (none unless the workloads run at
    :data:`~repro.analysis.claims.CLAIMS_SCALE`)."""

    text: str
    results: Dict[str, object]
    verdicts: List[claims_module.Verdict]

    @property
    def failed(self) -> List[str]:
        """The ids of the claims that do not hold."""
        return [v.claim.id for v in self.verdicts if not v.holds]


def generate_report(
    scale: str = "small", workloads: Optional[Workloads] = None
) -> Report:
    """Build every section as markdown-flavoured text, then check the
    paper's claims against the sections' results."""
    if workloads is None:
        workloads = Workloads(scale=scale)
    scale = workloads.scale
    parts = [
        "# PIM cache reproduction — full experiment report",
        "",
        f"Workload scale: `{scale}`.  All numbers regenerated by this run;",
        "paper-vs-measured commentary lives in EXPERIMENTS.md.",
        "",
    ]
    results: Dict[str, object] = {}
    for key, heading, build in SECTIONS:
        result = results[key] = build(workloads)
        body = result if isinstance(result, str) else result.render()
        parts += [f"## {heading}", "", "```", body, "```", ""]
    parts += ["## Claims", ""]
    verdicts: List[claims_module.Verdict] = []
    if scale == claims_module.CLAIMS_SCALE:
        verdicts = claims_module.evaluate(results, claims_module.CLAIMS)
        parts.append(claims_module.render(verdicts))
    else:
        parts.append(
            f"Not evaluated: the bounds are calibrated at "
            f"`{claims_module.CLAIMS_SCALE}`."
        )
    parts.append("")
    return Report("\n".join(parts), results, verdicts)
