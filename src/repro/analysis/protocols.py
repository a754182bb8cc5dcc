"""Cross-protocol comparison: one trace, every registered protocol.

The protocol registry makes protocol ablations cheap; this module turns
them into a table.  :func:`protocol_comparison` replays one captured
trace under each requested protocol through
:func:`repro.cluster.replay.replay_clustered` and collects the headline
counters, adding the inter-cluster network columns when the base config
partitions the machine.
:func:`format_protocol_comparison` renders them with the shared ASCII
table formatter and :func:`comparison_report` emits the machine-readable
JSON form (schema ``repro.obs/comparison/v1``, validated by
:func:`repro.obs.schema.validate_comparison`).  Used by ``repro
compare`` and the report's protocol matrix section.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.formatting import format_table
from repro.cluster.replay import replay_clustered
from repro.core.config import SimulationConfig
from repro.core.illinois import protocol_config
from repro.core.protocol import protocol_names
from repro.obs.manifest import build_manifest
from repro.obs.schema import COMPARISON_SCHEMA
from repro.trace.buffer import TraceBuffer

#: Columns of the comparison table: (header, stats key, formatter).
_COLUMNS = (
    ("bus cycles", "bus_cycles", "{:,}".format),
    ("mem busy", "memory_busy_cycles", "{:,}".format),
    ("swap outs", "swap_outs", "{:,}".format),
    ("c2c", "c2c_transfers", "{:,}".format),
    ("miss ratio", "miss_ratio", "{:.4f}".format),
)

#: Extra columns present when the comparison ran on a clustered machine.
_NETWORK_COLUMNS = (
    ("net msgs", "network_messages", "{:,}".format),
    ("net stall", "network_stall_cycles", "{:,}".format),
)

#: Extra columns present when the comparison ran in speculative mode.
_SPECULATIVE_COLUMNS = (
    ("commits", "batch_commits", "{:,}".format),
    ("rollbacks", "batch_rollbacks", "{:,}".format),
)


def protocol_comparison(
    buffer: TraceBuffer,
    base: Optional[SimulationConfig] = None,
    protocols: Optional[Sequence[str]] = None,
    n_pes: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Replay *buffer* under each protocol (default: the full registry).

    Each row holds bus cycles, shared-memory busy cycles, swap-outs,
    cache-to-cache transfers and the miss ratio; ``("pim", "illinois")``
    is the paper's SM ablation.  A *base* config with
    ``cluster.n_clusters > 1`` adds ``network_messages`` /
    ``network_stall_cycles`` per row.
    A LazyPIM *base* routes every replay through the speculative
    batch-coherence engine (docs/SPECULATIVE.md) and adds
    ``batch_commits`` / ``batch_rollbacks`` per row.
    """
    if protocols is None:
        protocols = protocol_names()
    lazypim = base is not None and base.speculation.mode == "lazypim"
    results: Dict[str, Dict[str, float]] = {}
    for name in protocols:
        result = replay_clustered(buffer, protocol_config(name, base), n_pes)
        stats = result.stats
        row = {
            "bus_cycles": stats.bus_cycles_total,
            "memory_busy_cycles": stats.memory_busy_cycles,
            "swap_outs": stats.swap_outs,
            "c2c_transfers": stats.c2c_transfers,
            "miss_ratio": stats.miss_ratio,
        }
        if result.n_clusters > 1:
            row["network_messages"] = result.network.messages
            row["network_stall_cycles"] = result.network.stall_cycles
        if lazypim:
            row["batch_commits"] = stats.batch_commits
            row["batch_rollbacks"] = stats.batch_rollbacks
        results[name] = row
    return results


def _columns_for(comparison: Dict[str, Dict[str, float]]):
    first = next(iter(comparison.values()), {})
    columns = _COLUMNS
    if "network_messages" in first:
        columns = columns + _NETWORK_COLUMNS
    if "batch_commits" in first:
        columns = columns + _SPECULATIVE_COLUMNS
    return columns


def format_protocol_comparison(
    comparison: Dict[str, Dict[str, float]],
    title: str = "Cross-protocol comparison",
) -> str:
    """Render a :func:`protocol_comparison` result as an ASCII table.

    Adds a ``vs pim`` column (bus-cycle ratio against the ``pim`` row)
    whenever the comparison includes the paper's protocol, and the
    network columns whenever the rows carry them.
    """
    columns = _columns_for(comparison)
    reference = comparison.get("pim")
    headers = ["protocol"] + [header for header, _, _ in columns]
    if reference:
        headers.append("bus vs pim")
    rows = []
    for name, entry in comparison.items():
        row = [name] + [fmt(entry[key]) for _, key, fmt in columns]
        if reference:
            row.append(
                "{:.2f}x".format(
                    entry["bus_cycles"] / max(reference["bus_cycles"], 1)
                )
            )
        rows.append(tuple(row))
    return format_table(tuple(headers), rows, title=title)


def comparison_report(
    comparison: Dict[str, Dict[str, float]],
    base: Optional[SimulationConfig] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The machine-readable form of a comparison (``repro compare
    --json``): schema-tagged rows plus a provenance manifest."""
    return {
        "schema": COMPARISON_SCHEMA,
        "clusters": base.cluster.n_clusters if base is not None else None,
        "rows": [
            {"protocol": name, **entry} for name, entry in comparison.items()
        ],
        "manifest": build_manifest(
            config=base, extra={"kind": "comparison", **(extra or {})}
        ),
    }
