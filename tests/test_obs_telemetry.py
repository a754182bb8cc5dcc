"""Sweep-fleet telemetry: stall detection with injected clocks, the
collector, and heartbeat-streaming sweeps staying counter-identical."""

import logging
import queue

import pytest

from repro.analysis.parallel import SweepPool, run_sweep, run_sweep_report
from repro.cluster.replay import replay_clustered
from repro.core.config import CacheConfig, SimulationConfig
from repro.obs.telemetry import (
    HEARTBEAT_SCHEMA,
    StallDetector,
    SweepTelemetry,
    TelemetryCollector,
    format_heartbeat,
    heartbeat,
)
from repro.trace.synthetic import generate_random_trace


def sweep_grid(points: int = 3):
    return [
        SimulationConfig(cache=CacheConfig(n_sets=64 << i))
        for i in range(points)
    ]


# ----------------------------------------------------------------------
# StallDetector — pure, driven by synthetic timestamps
# ----------------------------------------------------------------------


def test_detector_quiet_worker_stalls_once():
    detector = StallDetector(interval_seconds=1.0, misses=3)
    detector.observe(7, now=0.0)
    assert detector.stalled(now=3.0) == []  # exactly at deadline: not yet
    assert detector.stalled(now=3.1) == [7]
    assert detector.stalled(now=10.0) == []  # same episode, reported once
    assert detector.stall_events == 1


def test_detector_recovery_rearms_the_report():
    detector = StallDetector(interval_seconds=1.0, misses=2)
    detector.observe(1, now=0.0)
    assert detector.stalled(now=5.0) == [1]
    detector.observe(1, now=6.0)  # heartbeat arrives: recovered
    assert detector.stalled(now=6.5) == []
    assert detector.stalled(now=9.0) == [1]  # stuck again: new episode
    assert detector.stall_events == 2


def test_detector_forget_stops_watching():
    detector = StallDetector(interval_seconds=1.0, misses=1)
    detector.observe(2, now=0.0)
    detector.forget(2)
    assert detector.stalled(now=100.0) == []


def test_detector_reports_multiple_workers_sorted():
    detector = StallDetector(interval_seconds=1.0, misses=1)
    detector.observe(9, now=0.0)
    detector.observe(3, now=0.0)
    assert detector.stalled(now=2.0) == [3, 9]


def test_detector_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StallDetector(interval_seconds=0)
    with pytest.raises(ValueError):
        StallDetector(misses=0)


# ----------------------------------------------------------------------
# TelemetryCollector
# ----------------------------------------------------------------------


def test_collector_tracks_latest_and_completions():
    source = queue.Queue()
    seen = []
    collector = TelemetryCollector(source, on_heartbeat=seen.append)
    collector.handle(heartbeat(1, 0, 0, 0, 100, 400, 50.0, 0.25))
    collector.handle(heartbeat(1, 1, 0, 0, 400, 400, 60.0, 0.25, done=True))
    collector.handle(heartbeat(2, 0, 1, 0, 10, 400, 5.0, 0.5))
    assert collector.heartbeats == 3
    assert collector.points_completed == 1
    assert collector.latest[1]["done"] is True
    assert len(seen) == 3
    progress = collector.progress()
    assert progress["workers"] == 2
    assert progress["refs_done"] == 410
    summary = collector.summary()
    assert summary["heartbeats"] == 3
    assert summary["points_completed"] == 1


def test_collector_drain_folds_queued_records():
    source = queue.Queue()
    collector = TelemetryCollector(source)
    source.put(heartbeat(1, 0, 0, 0, 5, 10, 1.0, 0.0))
    source.put(None)  # sentinel is skipped, not folded
    source.put(heartbeat(1, 1, 0, 0, 10, 10, 1.0, 0.0, done=True))
    collector.drain()
    assert collector.heartbeats == 2
    assert collector.points_completed == 1


def test_collector_warns_on_stall(caplog):
    clock = [0.0]
    source = queue.Queue()
    collector = TelemetryCollector(
        source,
        detector=StallDetector(interval_seconds=1.0, misses=2),
        clock=lambda: clock[0],
    )
    collector.handle(heartbeat(5, 0, 0, 0, 1, 10, 1.0, 0.0))
    clock[0] = 10.0
    repro_logger = logging.getLogger("repro")
    propagate = repro_logger.propagate
    repro_logger.propagate = True  # the CLI may have detached it
    try:
        with caplog.at_level(logging.WARNING, logger="repro.obs.telemetry"):
            newly = collector.check_stalls()
    finally:
        repro_logger.propagate = propagate
    assert newly == [5]
    assert any("worker 5" in message for message in caplog.messages)


def test_heartbeat_record_shape_and_formatting():
    record = heartbeat(3, 2, 1, 0, 2048, 4096, 12345.6, 0.125)
    assert record["schema"] == HEARTBEAT_SCHEMA
    line = format_heartbeat(record)
    assert "worker 3" in line and "point 1" in line and "50.0%" in line
    done = heartbeat(3, 3, 1, 1, 4096, 4096, 1.0, 0.125, done=True)
    assert "[done]" in format_heartbeat(done)


# ----------------------------------------------------------------------
# End-to-end sweeps with telemetry
# ----------------------------------------------------------------------


def test_serial_telemetry_sweep_identical_and_streams():
    trace = generate_random_trace(12_000, n_pes=4, seed=21)
    configs = sweep_grid()
    plain = [s.as_dict() for s in run_sweep(trace, configs, jobs=1)]
    records = []
    with SweepTelemetry(
        interval_seconds=0.001, chunk_refs=4096,
        on_heartbeat=records.append, use_processes=False,
    ) as telemetry:
        with SweepPool(trace, jobs=1, telemetry=telemetry) as pool:
            streamed = [s.as_dict() for s in pool.map(configs)]
        summary = telemetry.summary()
    assert streamed == plain
    assert summary["points_completed"] == len(configs)
    assert summary["heartbeats"] >= len(configs)  # at least one done each
    done = [r for r in records if r["done"]]
    assert len(done) == len(configs)
    assert {r["point"] for r in done} == {0, 1, 2}
    for record in records:
        assert record["schema"] == HEARTBEAT_SCHEMA
        assert 0 <= record["refs_done"] <= record["refs_total"] == len(trace)


def test_pooled_telemetry_sweep_identical_with_manifest_summary():
    trace = generate_random_trace(8_000, n_pes=4, seed=22)
    configs = sweep_grid(2)
    plain = [s.as_dict() for s in run_sweep(trace, configs, jobs=1)]
    with SweepTelemetry(interval_seconds=0.001, chunk_refs=2048) as telemetry:
        report = run_sweep_report(trace, configs, jobs=2, telemetry=telemetry)
    assert [p["stats"] for p in report["points"]] == plain
    summary = report["manifest"]["extra"]["telemetry"]
    assert summary["points_completed"] == len(configs)
    assert summary["heartbeats"] >= len(configs)


def test_clustered_sweep_replays_clustered_and_telemetry_refuses_it():
    trace = generate_random_trace(4_000, n_pes=4, seed=23)
    configs = [SimulationConfig().with_clusters(2)]
    want = replay_clustered(trace, configs[0]).stats.as_dict()
    assert run_sweep(trace, configs, jobs=1)[0].as_dict() == want
    assert run_sweep(trace, configs, jobs=2)[0].as_dict() == want
    with SweepTelemetry(
        interval_seconds=0.001, chunk_refs=1024, use_processes=False
    ) as telemetry:
        with SweepPool(trace, jobs=1, telemetry=telemetry) as pool:
            with pytest.raises(ValueError, match="2-cluster"):
                pool.map(configs)


def test_empty_trace_sweep_emits_done_heartbeat():
    trace = generate_random_trace(0, n_pes=2, seed=1)
    with SweepTelemetry(
        interval_seconds=0.001, chunk_refs=64, use_processes=False
    ) as telemetry:
        with SweepPool(trace, jobs=1, telemetry=telemetry) as pool:
            pool.map(sweep_grid(1))
        summary = telemetry.summary()
    assert summary["points_completed"] == 1


def test_telemetry_rejects_bad_chunk():
    with pytest.raises(ValueError):
        SweepTelemetry(chunk_refs=0)
