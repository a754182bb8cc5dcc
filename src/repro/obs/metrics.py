"""Cycle-ledger metrics: labeled registries, attribution, exporters.

The paper's evaluation is an attribution exercise — which references
cost bus cycles, which coherence actions removed them — but end-of-run
aggregates only say *how many* cycles were spent, not *on what*.  This
module closes that gap with three pieces:

* a lightweight labeled **metric registry** (:class:`Counter` and
  :class:`Gauge` under a :class:`MetricsRegistry`) rendered in the
  OpenMetrics text format — the endpoint surface a
  future ``repro serve`` exposes, usable today as a file artifact;
* the **cycle ledger** (:func:`cycle_ledger`): per-run attribution of
  every simulated PE cycle into hit service, bus issue, bus-arbitration
  wait, bus occupancy by pattern class, lock-directory spin and
  inter-cluster network stalls — asserted to sum *exactly* to
  ``sum(pe_cycles)`` (the timing model leaks no cycle);
* **Perfetto counter tracks** (:func:`counter_track_events`): the
  windowed time series as ``"C"``-phase trace events, so miss ratio and
  bus utilization plot as counters alongside the event slices in
  https://ui.perfetto.dev.

Ledger identity
---------------

Every ``pe_cycles`` advance in :class:`~repro.core.system.
PIMCacheSystem` lands in exactly one bucket:

* bus-free accesses (cache hits, DW's fetch-free allocation) advance a
  PE clock by one cycle — ``hit_service_cycles``;
* a bus transaction advances the requester by ``1`` (issue) ``+``
  arbitration wait (``bus_wait_cycles``) ``+`` the pattern occupancy
  (``pattern_cycles``); the issue cycles equal ``sum(pattern_counts)``;
* a busy-wait re-issue after an LH response burns one spin cycle —
  ``lock_spin_cycles``;
* a remote-homed access in a clustered machine additionally stalls for
  the network round trip — ``NetworkStats.stall_cycles``.

``memory_busy_cycles`` is deliberately **off-ledger**: the shared
memory modules are busy *in parallel with* (not in addition to) the PE
clocks, so the ledger reports it as a gauge beside the attribution, not
inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.states import BusPattern
from repro.core.stats import SystemStats

#: Schema tag of the ``repro metrics`` JSON record.
METRICS_SCHEMA = "repro.obs/metrics/v1"


# ----------------------------------------------------------------------
# Labeled metric registry
# ----------------------------------------------------------------------

def escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics text format.

    Backslash, double quote and line feed are the three characters the
    exposition format escapes; everything else passes through.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


_NAME_OK = set("abcdefghijklmnopqrstuvwxyz_0123456789:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _NAME_OK for c in name):
        raise ValueError(
            f"metric name {name!r} must be lowercase "
            "[a-z_:][a-z0-9_:]* (OpenMetrics)"
        )
    return name


class Metric:
    """One named metric family holding labeled sample series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._series: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def labels(self) -> List[Dict[str, str]]:
        return [dict(key) for key in self._series]

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        """``(suffix, label_key, value)`` rows for the text exposition."""
        return [("", key, value) for key, value in sorted(self._series.items())]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class Counter(Metric):
    """Monotonically increasing count (OpenMetrics ``counter``)."""

    kind = "counter"

    def inc(self, amount: Union[int, float] = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def samples(self):
        # Counter sample lines carry the mandatory ``_total`` suffix.
        return [
            ("_total", key, value)
            for key, value in sorted(self._series.items())
        ]


class Gauge(Metric):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def set(self, value: Union[int, float], **labels: str) -> None:
        self._series[_label_key(labels)] = value

    def inc(self, amount: Union[int, float] = 1, **labels: str) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount


class MetricsRegistry:
    """A named collection of metrics with one text exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered "
                    f"as a {existing.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))  # type: ignore[return-value]

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def render_openmetrics(self) -> str:
        """The OpenMetrics text exposition of every registered metric.

        Families are emitted in registration order, each with its
        ``# TYPE`` / ``# HELP`` header; the exposition ends with the
        mandatory ``# EOF`` terminator.
        """
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} "
                    + metric.help.replace("\\", "\\\\").replace("\n", "\\n")
                )
            for suffix, key, value in metric.samples():
                rendered = (
                    f"{value:g}" if isinstance(value, float) else str(value)
                )
                lines.append(
                    f"{metric.name}{suffix}{_render_labels(key)} {rendered}"
                )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def write_openmetrics(registry: MetricsRegistry,
                      path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(registry.render_openmetrics())
    return path


# ----------------------------------------------------------------------
# Cycle ledger
# ----------------------------------------------------------------------

class LedgerError(AssertionError):
    """The cycle attribution does not sum to ``pe_cycles``.

    Raised when a timing-model change advanced a PE clock without
    landing the cycles in a ledger bucket (or double-counted one) —
    the invariant the golden identity tests pin down.
    """


@dataclass
class CycleLedger:
    """Per-run attribution of every simulated PE cycle."""

    pe_cycles_total: int
    #: Attribution buckets, each an exact cycle count.  ``bus_busy_*``
    #: entries break the bus occupancy down by access-pattern class.
    entries: Dict[str, int]
    #: Module-side cycles that overlap (not add to) the PE clocks.
    off_ledger: Dict[str, int] = field(default_factory=dict)

    @property
    def attributed_total(self) -> int:
        return sum(self.entries.values())

    def verify(self) -> "CycleLedger":
        """Raise :class:`LedgerError` unless the attribution is exact."""
        attributed = self.attributed_total
        if attributed != self.pe_cycles_total:
            raise LedgerError(
                f"cycle ledger does not sum to pe_cycles: attributed "
                f"{attributed} != {self.pe_cycles_total} "
                f"(diff {self.pe_cycles_total - attributed}); entries: "
                + ", ".join(f"{k}={v}" for k, v in self.entries.items())
            )
        return self

    def fractions(self) -> Dict[str, float]:
        total = self.pe_cycles_total
        if not total:
            return {name: 0.0 for name in self.entries}
        return {name: value / total for name, value in self.entries.items()}

    def as_dict(self) -> dict:
        return {
            "pe_cycles_total": self.pe_cycles_total,
            "attributed_total": self.attributed_total,
            "entries": dict(self.entries),
            "fractions": {
                name: round(value, 6)
                for name, value in self.fractions().items()
            },
            "off_ledger": dict(self.off_ledger),
        }

    def to_registry(self, registry: Optional[MetricsRegistry] = None,
                    **labels: str) -> MetricsRegistry:
        """Export the ledger into a registry as labeled counters."""
        if registry is None:
            registry = MetricsRegistry()
        cycles = registry.counter(
            "repro_cycles",
            "simulated PE cycles attributed by the cycle ledger",
        )
        for name, value in self.entries.items():
            cycles.inc(value, bucket=name, **labels)
        gauge = registry.gauge(
            "repro_memory_busy_cycles",
            "shared-memory module busy cycles (overlap the PE clocks)",
        )
        gauge.set(self.off_ledger.get("memory_busy_cycles", 0), **labels)
        return registry


def cycle_ledger(
    stats: SystemStats,
    network=None,
    verify: bool = True,
) -> CycleLedger:
    """Attribute a run's ``pe_cycles`` into ledger buckets.

    *network* is a :class:`~repro.cluster.network.NetworkStats` (or any
    object with ``stall_cycles``) for clustered runs; flat runs pass
    ``None`` and get a zero ``network_stall`` entry.  With *verify*
    (the default) the attribution is asserted to sum exactly to
    ``sum(pe_cycles)``.
    """
    entries: Dict[str, int] = {
        "hit_service": stats.hit_service_cycles,
        "bus_issue": sum(stats.pattern_counts),
        "bus_wait": stats.bus_wait_cycles,
    }
    for pattern in BusPattern:
        cycles = stats.pattern_cycles[pattern]
        if cycles:
            entries[f"bus_busy_{pattern.name.lower()}"] = cycles
    entries["lock_spin"] = stats.lock_spin_cycles
    # Home-node directory indirection (hop cost per third-party
    # message); identically zero under the snooping bus.
    entries["directory_indirection"] = stats.directory_indirection_cycles
    entries["network_stall"] = (
        network.stall_cycles if network is not None else 0
    )
    ledger = CycleLedger(
        pe_cycles_total=sum(stats.pe_cycles),
        entries=entries,
        off_ledger={"memory_busy_cycles": stats.memory_busy_cycles},
    )
    return ledger.verify() if verify else ledger


def format_ledger(ledger: CycleLedger, title: str = "cycle ledger") -> str:
    """Human-readable attribution table."""
    lines = [f"{title} ({ledger.pe_cycles_total:,} PE cycles)"]
    width = max((len(name) for name in ledger.entries), default=10)
    fractions = ledger.fractions()
    for name, value in ledger.entries.items():
        lines.append(
            f"  {name:<{width}}  {value:>14,}  {100 * fractions[name]:6.2f}%"
        )
    lines.append(
        f"  {'total':<{width}}  {ledger.attributed_total:>14,}  100.00%"
        "  (== pe_cycles, identity verified)"
    )
    for name, value in ledger.off_ledger.items():
        lines.append(f"  off-ledger {name}: {value:,} cycles (overlapped)")
    return "\n".join(lines)


def metrics_record(
    ledger: CycleLedger,
    manifest: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The schema-validated ``repro metrics`` JSON record."""
    record = {
        "schema": METRICS_SCHEMA,
        "ledger": ledger.as_dict(),
        "manifest": manifest,
    }
    if extra:
        record["extra"] = dict(extra)
    return record


# ----------------------------------------------------------------------
# Perfetto counter tracks
# ----------------------------------------------------------------------

#: pid the counter tracks live under in the exported Chrome trace
#: (0 = bus, 1 = PEs, 2 = network — see repro.obs.export).
COUNTER_PID = 3

#: Window fields exported as counter tracks, with display names.
COUNTER_TRACKS = (
    ("miss_ratio", "miss ratio"),
    ("bus_utilization", "bus utilization"),
    ("memory_busy_cycles", "memory busy cycles"),
    ("lh_responses", "lock conflicts (LH)"),
)


def counter_track_events(windows) -> List[dict]:
    """Render windowed metrics as ``"C"``-phase counter events.

    Each :class:`~repro.obs.windows.Window` contributes one sample per
    track at the window's closing cycle (the cumulative slowest-PE
    clock), so Perfetto draws the time series against the same
    simulated-cycle axis as the event slices.
    """
    if not windows:
        return []
    events: List[dict] = [
        {"ph": "M", "pid": COUNTER_PID, "tid": 0, "name": "process_name",
         "args": {"name": "windowed metrics"}},
    ]
    cycle = 0
    for window in windows:
        cycle += window.cycles
        for attr, name in COUNTER_TRACKS:
            events.append({
                "name": name,
                "cat": "metrics",
                "ph": "C",
                "ts": cycle,
                "pid": COUNTER_PID,
                "args": {name: getattr(window, attr)},
            })
    return events
