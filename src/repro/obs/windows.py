"""Windowed time-series metrics over a replayed reference stream.

End-of-run aggregates (the paper's Tables 2-5) cannot show *when* bus
traffic spikes or lock busy-waiting clusters.  :func:`windowed_replay`
replays a trace while snapshotting the :class:`~repro.core.stats.
SystemStats` counters every *window* references; each delta becomes one
:class:`Window` record — a per-window miss ratio, bus utilization,
memory-module busy time, lock contention, and per-PE / per-area
breakdowns.

Bucketing: windows are contiguous runs of *window* references in trace
order; the final window holds the remainder when the trace length is
not a multiple (it is never empty — a trace ending exactly on a window
boundary produces no trailing empty record).  The sum of every additive
field over all windows equals the end-of-run aggregate.

Each window is one range of the trace replayed through
:func:`repro.core.replay.replay` into one persistent system: every
deferred counter fold settles per call, so the windowed run — and
therefore every window record — is counter-identical to one whole-trace
replay (the tests assert it).  ``replay`` itself picks the per-access
loop when a probe is attached or invariant checks are on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.core.config import SimulationConfig
from repro.core.replay import replay_ranges
from repro.core.stats import SystemStats
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer

#: Schema tag written into every window JSONL record.
WINDOW_SCHEMA = "repro.obs/window/v1"


@dataclass
class Window:
    """Counter deltas over one run of consecutive references."""

    index: int
    start: int  #: zero-based trace index of the window's first reference
    refs: int
    hits: int
    misses: int
    miss_ratio: float
    cycles: int  #: simulated elapsed cycles (slowest-PE clock advance)
    bus_cycles: int
    bus_utilization: float  #: bus_cycles / cycles (0 when no time passed)
    memory_busy_cycles: int
    lh_responses: int
    unlocks_with_waiter: int
    refs_by_area: List[int] = field(default_factory=list)
    misses_by_area: List[int] = field(default_factory=list)
    bus_cycles_by_area: List[int] = field(default_factory=list)
    pe_cycles: List[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        record = {"schema": WINDOW_SCHEMA}
        record.update(asdict(self))
        return record


class WindowedMetrics:
    """Snapshot-and-diff collector over a live :class:`SystemStats`."""

    def __init__(self, stats: SystemStats, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.windows: List[Window] = []
        self._stats = stats
        self._start = 0
        self._mark = self._capture()

    def _capture(self) -> tuple:
        stats = self._stats
        return (
            [sum(row) for row in stats.refs],
            [sum(row) for row in stats.hits],
            sum(stats.pattern_cycles),
            list(stats.bus_cycles_by_area),
            stats.memory_busy_cycles,
            stats.lh_responses,
            stats.unlocks_with_waiter,
            list(stats.pe_cycles),
        )

    def close_window(self) -> Optional[Window]:
        """Seal the counters accumulated since the last close into a
        :class:`Window`; a zero-reference delta is discarded (None)."""
        now = self._capture()
        (refs_a, hits_a, bus, bus_by_area, mem, lh, ul, pe_cycles) = self._mark
        (refs_b, hits_b, bus_n, bus_by_area_n, mem_n, lh_n, ul_n, pe_n) = now
        refs = sum(refs_b) - sum(refs_a)
        if refs == 0:
            self._mark = now
            return None
        hits = sum(hits_b) - sum(hits_a)
        elapsed = max(pe_n) - max(pe_cycles) if pe_n else 0
        bus_delta = bus_n - bus
        window = Window(
            index=len(self.windows),
            start=self._start,
            refs=refs,
            hits=hits,
            misses=refs - hits,
            miss_ratio=(refs - hits) / refs,
            cycles=elapsed,
            bus_cycles=bus_delta,
            bus_utilization=bus_delta / elapsed if elapsed > 0 else 0.0,
            memory_busy_cycles=mem_n - mem,
            lh_responses=lh_n - lh,
            unlocks_with_waiter=ul_n - ul,
            refs_by_area=[b - a for a, b in zip(refs_a, refs_b)],
            misses_by_area=[
                (rb - ra) - (hb - ha)
                for ra, rb, ha, hb in zip(refs_a, refs_b, hits_a, hits_b)
            ],
            bus_cycles_by_area=[b - a for a, b in zip(bus_by_area, bus_by_area_n)],
            pe_cycles=[b - a for a, b in zip(pe_cycles, pe_n)],
        )
        self.windows.append(window)
        self._start += refs
        self._mark = now
        return window


def windowed_replay(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    window: int = 4096,
    probe=None,
    check_invariants_every: Optional[int] = None,
) -> Tuple[SystemStats, List[Window]]:
    """Replay *buffer*, returning ``(stats, windows)``.

    Optionally attaches *probe* (a :class:`~repro.obs.probe.
    ProtocolProbe`) so one pass yields both the event stream and the
    time series, and runs :meth:`PIMCacheSystem.check_invariants` every
    *check_invariants_every* references (the ``REPRO_CHECK_INVARIANTS``
    debug mode).

    A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its trace index.
    """
    if config is None:
        config = SimulationConfig()
    system = PIMCacheSystem(config, n_pes if n_pes is not None else buffer.n_pes)
    if probe is not None:
        system.attach_probe(probe)
    metrics = WindowedMetrics(system.stats, window)
    total = len(buffer)
    with replay_ranges(
        buffer, system, check_invariants_every=check_invariants_every
    ) as session:
        for start in range(0, total, window):
            session.run(start, min(start + window, total))
            metrics.close_window()
    return system.stats, metrics.windows


def write_windows_jsonl(
    windows: List[Window], path: Union[str, Path]
) -> Path:
    """Write the time series as JSON lines (one window per line)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for window in windows:
            handle.write(json.dumps(window.to_dict()) + "\n")
    return path
