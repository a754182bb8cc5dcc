"""Sweep-fleet telemetry: worker heartbeats, progress, stall detection.

A parallel sweep fans points out to worker processes that are silent
until they return — a fleet you cannot watch.  This module gives each
worker a **heartbeat stream**: periodic progress records (current sweep
point, references done, replay rate, a windowed miss-ratio snapshot)
sent over the worker's own pipe to the parent, whose dispatch loop
folds each one into a collector as it arrives.

The pieces are deliberately layered for testability:

* :func:`heartbeat` / :data:`HEARTBEAT_SCHEMA` — the record format
  (plain dicts: picklable, JSON-friendly for manifests);
* :class:`StallDetector` — pure bookkeeping over injected timestamps
  (``observe``/``stalled``), so stall logic is tested without clocks,
  sleeps or processes;
* :class:`TelemetryCollector` — keeps the latest record per worker,
  logs a ``repro.obs.log`` warning when a worker goes quiet, and hands
  each record to a progress hook;
* :class:`SweepTelemetry` — the settings a sweep replays its points
  with (heartbeat interval, chunk size) and the collector they feed.

The worker-side emission loop and the parent's dispatch loop live in
:mod:`repro.analysis.parallel` (they need the replay machinery); this
module has no dependency on it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.obs.log import get_logger

logger = get_logger("obs.telemetry")

#: Schema tag carried by every heartbeat record.
HEARTBEAT_SCHEMA = "repro.obs/heartbeat/v1"

#: Default seconds between worker heartbeats.
DEFAULT_INTERVAL_SECONDS = 0.5

#: Default missed-heartbeat count before a worker is declared stalled.
DEFAULT_STALL_MISSES = 5

#: References per worker replay chunk (the heartbeat check cadence).
DEFAULT_CHUNK_REFS = 32_768


def heartbeat(
    worker: int,
    seq: int,
    point: int,
    points_done: int,
    refs_done: int,
    refs_total: int,
    refs_per_sec: float,
    miss_ratio: float,
    done: bool = False,
    timestamp: Optional[float] = None,
) -> dict:
    """Build one heartbeat record (see :data:`HEARTBEAT_SCHEMA`)."""
    return {
        "schema": HEARTBEAT_SCHEMA,
        "worker": worker,
        "seq": seq,
        "point": point,
        "points_done": points_done,
        "refs_done": refs_done,
        "refs_total": refs_total,
        "refs_per_sec": round(refs_per_sec, 1),
        "miss_ratio": round(miss_ratio, 4),
        "done": done,
        "timestamp": timestamp if timestamp is not None else time.time(),
    }


class StallDetector:
    """Declare a worker stalled after *misses* missed heartbeats.

    Pure bookkeeping: callers pass explicit ``now`` timestamps, so the
    tests drive it with synthetic clocks.  A worker is *stalled* when
    ``now - last_seen > interval * misses``; :meth:`stalled` reports
    each stall episode once (a later :meth:`observe` re-arms it, so a
    recovered-then-stuck worker warns again).
    """

    def __init__(
        self,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        misses: int = DEFAULT_STALL_MISSES,
    ):
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        if misses < 1:
            raise ValueError(f"misses must be >= 1, got {misses}")
        self.interval_seconds = interval_seconds
        self.misses = misses
        self._last_seen: Dict[int, float] = {}
        self._reported: Dict[int, bool] = {}
        self.stall_events = 0

    @property
    def timeout_seconds(self) -> float:
        return self.interval_seconds * self.misses

    def observe(self, worker: int, now: float) -> None:
        """Record a heartbeat from *worker* at time *now*."""
        self._last_seen[worker] = now
        self._reported[worker] = False

    def forget(self, worker: int) -> None:
        """Stop watching *worker* (it finished cleanly)."""
        self._last_seen.pop(worker, None)
        self._reported.pop(worker, None)

    def stalled(self, now: float) -> List[int]:
        """Workers newly past the stall deadline (each episode once)."""
        newly = []
        for worker, last in self._last_seen.items():
            if now - last > self.timeout_seconds and not self._reported[worker]:
                self._reported[worker] = True
                self.stall_events += 1
                newly.append(worker)
        return sorted(newly)


class TelemetryCollector:
    """Fold in heartbeats as the sweep's dispatch loop receives them.

    Keeps the latest record per worker, counts totals, warns through
    :mod:`repro.obs.log` when the :class:`StallDetector` trips, and
    invokes *on_heartbeat* (when given) with each record — the hook
    ``repro sweep --progress`` renders live lines from.
    """

    def __init__(
        self,
        detector: Optional[StallDetector] = None,
        on_heartbeat: Optional[Callable[[dict], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.detector = detector if detector is not None else StallDetector()
        self._on_heartbeat = on_heartbeat
        self._clock = clock
        self.latest: Dict[int, dict] = {}
        self.heartbeats = 0
        self.points_completed = 0

    def handle(self, record: dict) -> None:
        """Fold one heartbeat record in."""
        worker = record.get("worker", -1)
        self.heartbeats += 1
        self.latest[worker] = record
        if record.get("done"):
            # A ``done`` record closes one sweep point; the worker goes
            # idle (or picks up another point, whose first heartbeat
            # re-arms the detector), so stop watching it.
            self.points_completed += 1
            self.detector.forget(worker)
        else:
            self.detector.observe(worker, self._clock())
        if self._on_heartbeat is not None:
            self._on_heartbeat(record)

    def check_stalls(self) -> List[int]:
        """Run the stall detector once, warning on new episodes."""
        newly = self.detector.stalled(self._clock())
        for worker in newly:
            logger.warning(
                "sweep worker %d missed %d heartbeats (silent > %.1fs) — "
                "stalled or very slow sweep point",
                worker, self.detector.misses, self.detector.timeout_seconds,
            )
        return newly

    # -- summaries -----------------------------------------------------

    def progress(self) -> dict:
        """Aggregate fleet progress (refs done / total over live points)."""
        latest = self.latest
        refs_done = sum(r.get("refs_done", 0) for r in latest.values())
        refs_total = sum(r.get("refs_total", 0) for r in latest.values())
        rate = sum(
            r.get("refs_per_sec", 0.0)
            for r in latest.values()
            if not r.get("done")
        )
        return {
            "workers": len(latest),
            "refs_done": refs_done,
            "refs_total": refs_total,
            "refs_per_sec": round(rate, 1),
        }

    def summary(self) -> dict:
        """JSON-ready fleet summary for the run manifest."""
        return {
            "heartbeats": self.heartbeats,
            "workers": len(self.latest),
            "points_completed": self.points_completed,
            "stall_events": self.detector.stall_events,
            "interval_seconds": self.detector.interval_seconds,
            "stall_misses": self.detector.misses,
        }


def format_heartbeat(record: dict) -> str:
    """One progress line for ``repro sweep --progress``."""
    total = record.get("refs_total") or 0
    done = record.get("refs_done", 0)
    percent = 100.0 * done / total if total else 0.0
    state = "done" if record.get("done") else f"{percent:5.1f}%"
    return (
        f"worker {record.get('worker')}: point {record.get('point')} "
        f"[{state}] {done:,}/{total:,} refs, "
        f"{record.get('refs_per_sec', 0):,.0f} refs/sec, "
        f"miss {record.get('miss_ratio', 0.0):.4f}"
    )


class SweepTelemetry:
    """The parent side of sweep-fleet telemetry.

    Holds the heartbeat interval and chunk size a sweep replays its
    points with, and the :class:`TelemetryCollector` their heartbeats
    go to.  Pass it to :class:`~repro.analysis.parallel.SweepPool`::

        telemetry = SweepTelemetry(on_heartbeat=print)
        with SweepPool(trace, jobs=4, telemetry=telemetry) as pool:
            results = pool.map(grid)
        summary = telemetry.summary()
    """

    def __init__(
        self,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        stall_misses: int = DEFAULT_STALL_MISSES,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
        on_heartbeat: Optional[Callable[[dict], None]] = None,
    ):
        if chunk_refs < 1:
            raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
        self.interval_seconds = interval_seconds
        self.chunk_refs = chunk_refs
        self.collector = TelemetryCollector(
            detector=StallDetector(interval_seconds, stall_misses),
            on_heartbeat=on_heartbeat,
        )

    def summary(self) -> dict:
        return self.collector.summary()
