"""Bench-history regression tracking: ``repro bench --compare``.

A single ``BENCH_replay.json`` says how fast replay is *now*; catching
a regression needs *then*.  ``repro bench`` appends one schema-validated
record per run to a JSONL history file (:data:`DEFAULT_HISTORY`), each
carrying a host fingerprint, the git SHA, and the per-section rates
pulled out of the report — and ``--compare`` diffs a fresh run against
the same-host history before appending it.

The comparison is noise-aware.  Benchmarks on shared machines jitter;
a fixed percentage threshold either cries wolf on a noisy host or
sleeps through real regressions on a quiet one.  Instead the threshold
per section is ``clamp(3 x relative MAD of the same-host history,``
:data:`MIN_THRESHOLD`\\ ``,`` :data:`MAX_THRESHOLD`\\ ``)`` against the
same-host **median**: three median-absolute-deviations is the robust
analogue of a 3-sigma band, the floor keeps a short (even single-entry,
MAD = 0) history from flagging sub-percent jitter while still catching
a >=20% drop, and the ceiling keeps a wildly noisy history from
excusing anything.  Records from *other* hosts are ignored — rates are
only comparable on the machine that produced them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.log import get_logger
from repro.obs.manifest import git_sha
from repro.obs.schema import (
    BENCH_HISTORY_SCHEMA,
    validate_bench_history,
    validate_jsonl,
)

logger = get_logger("analysis.history")

#: Default history file, next to ``BENCH_replay.json`` at the repo root.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Regression threshold floor: never flag a drop smaller than this.
MIN_THRESHOLD = 0.08

#: Regression threshold ceiling: flag a drop this big however noisy
#: the history is.
MAX_THRESHOLD = 0.18

#: MAD multiplier (the robust analogue of a 3-sigma band).
MAD_FACTOR = 3.0


def host_fingerprint() -> dict:
    """Identify the measuring host: names, arch, CPU count, and a hash.

    Same-host history selection keys on the ``fingerprint`` digest, so
    the inputs are things that change when rates stop being comparable
    — a different machine, architecture, or CPU allocation — and not
    things that drift between runs on one box (load, uptime, pids).
    """
    info = {
        "hostname": platform.node() or "unknown",
        "machine": platform.machine() or "unknown",
        "cpus": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")
    ).hexdigest()
    info["fingerprint"] = digest[:16]
    return info


def _report_sections(report: dict) -> Dict[str, float]:
    """Flatten a bench report's comparable rates into named sections.

    Only positive numeric rates survive — ``"skipped"`` markers and
    nulls (single-CPU hosts) drop out, so a record never
    claims a rate the host could not measure.
    """
    sections: Dict[str, float] = {}

    def keep(name: str, value) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if value > 0:
                sections[name] = value

    for workload, entry in report.get("workloads", {}).items():
        keep(f"workload.{workload}.refs_per_sec", entry.get("refs_per_sec"))
    sweep = report.get("sweep") or {}
    keep("sweep.parallel_speedup", sweep.get("parallel_speedup"))
    cluster = report.get("cluster") or {}
    keep("cluster.refs_per_sec_serial", cluster.get("refs_per_sec_serial"))
    keep("cluster.refs_per_sec_parallel", cluster.get("refs_per_sec_parallel"))
    return sections


def history_record(report: dict) -> dict:
    """One appendable history record distilled from a bench report."""
    sections = _report_sections(report)
    if not sections:
        raise ValueError("bench report has no comparable rate sections")
    record = {
        "schema": BENCH_HISTORY_SCHEMA,
        "created_unix": round(time.time(), 3),
        "host": host_fingerprint(),
        "git_sha": git_sha(),
        "quick": bool(report.get("quick", False)),
        "repeats": int(report.get("repeats", 0)) or 1,
        "sections": sections,
    }
    return validate_bench_history(record)


def append_history(
    record: dict, path: Union[str, Path] = DEFAULT_HISTORY
) -> Path:
    """Validate and append one record to the history file."""
    validate_bench_history(record)
    path = Path(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(path: Union[str, Path] = DEFAULT_HISTORY) -> List[dict]:
    """Every validated record in the history file (empty when absent).

    A malformed line raises :class:`SchemaError` naming ``path:line``.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        validate_jsonl(
            handle,
            lambda record: records.append(validate_bench_history(record)),
            prefix=f"{path}:",
        )
    return records


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def section_threshold(values: List[float]) -> float:
    """The noise-aware drop threshold for one section's history."""
    if not values:
        return MIN_THRESHOLD
    median = _median(values)
    if median <= 0:
        return MIN_THRESHOLD
    mad = _median([abs(value - median) for value in values])
    return min(max(MAD_FACTOR * mad / median, MIN_THRESHOLD), MAX_THRESHOLD)


def compare_to_history(
    record: dict,
    history: List[dict],
    quick: Optional[bool] = None,
) -> dict:
    """Diff one fresh record against the same-host history.

    Returns a JSON-ready verdict: per-section ``{measured, baseline,
    ratio, threshold, regressed}`` plus the overall ``regressed`` flag
    (any section below ``baseline * (1 - threshold)``).  Sections with
    no same-host history — a new section, a new machine — compare
    against nothing and never regress.  *quick* restricts the baseline
    to records with a matching quick flag (quick and full runs use
    different trace sizes, so their rates are not interchangeable);
    ``None`` uses the fresh record's own flag.
    """
    fingerprint = record["host"]["fingerprint"]
    if quick is None:
        quick = record.get("quick", False)
    prior = [
        r
        for r in history
        if r["host"]["fingerprint"] == fingerprint
        and r.get("quick", False) == quick
    ]
    sections: Dict[str, dict] = {}
    regressed = False
    for name, measured in record["sections"].items():
        values = [
            r["sections"][name] for r in prior if name in r.get("sections", {})
        ]
        if not values:
            sections[name] = {
                "measured": measured,
                "baseline": None,
                "ratio": None,
                "threshold": None,
                "regressed": False,
            }
            continue
        baseline = _median(values)
        threshold = section_threshold(values)
        ratio = measured / baseline if baseline > 0 else None
        section_regressed = (
            ratio is not None and ratio < 1.0 - threshold
        )
        if section_regressed:
            regressed = True
            logger.warning(
                "bench regression in %s: %.0f vs baseline %.0f "
                "(ratio %.4f < 1 - %.2f)",
                name, measured, baseline, ratio, threshold,
            )
        sections[name] = {
            "measured": measured,
            "baseline": round(baseline, 2),
            "ratio": round(ratio, 4) if ratio is not None else None,
            "threshold": round(threshold, 4),
            "regressed": section_regressed,
        }
    return {
        "host_fingerprint": fingerprint,
        "quick": quick,
        "baseline_records": len(prior),
        "sections": sections,
        "regressed": regressed,
    }


def format_comparison(comparison: dict) -> str:
    """Human-readable ``repro bench --compare`` verdict."""
    count = comparison["baseline_records"]
    lines = [
        f"bench history: {count} same-host baseline record"
        f"{'s' if count != 1 else ''} "
        f"(host {comparison['host_fingerprint']}, "
        f"{'quick' if comparison['quick'] else 'full'})"
    ]
    for name, entry in sorted(comparison["sections"].items()):
        if entry["baseline"] is None:
            lines.append(f"  {name}: {entry['measured']:,.0f} (no baseline yet)")
            continue
        verdict = "REGRESSED" if entry["regressed"] else "ok"
        lines.append(
            f"  {name}: {entry['measured']:,.0f} vs median "
            f"{entry['baseline']:,.0f} (ratio {entry['ratio']:.4f}, "
            f"threshold -{entry['threshold'] * 100:.0f}%) {verdict}"
        )
    lines.append(
        "verdict: REGRESSED" if comparison["regressed"] else "verdict: clean"
    )
    return "\n".join(lines)
