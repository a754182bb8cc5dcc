"""Cycle-ledger metrics: registry, OpenMetrics rendering, the
sum-to-pe_cycles identity, and the Perfetto counter tracks."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.parallel import run_clustered
from repro.core.config import CacheConfig, SimulationConfig
from repro.core.protocol import protocol_names
from repro.core.replay import replay
from repro.obs.metrics import (
    COUNTER_PID,
    CycleLedger,
    LedgerError,
    MetricsRegistry,
    counter_track_events,
    cycle_ledger,
    escape_label_value,
    format_ledger,
    metrics_record,
)
from repro.obs.schema import SchemaError, validate_metrics
from repro.obs.windows import windowed_replay
from repro.trace.buffer import TraceBuffer
from repro.trace.synthetic import (
    AuroraTraceConfig,
    generate_aurora_trace,
    generate_random_trace,
)
from tests.replay_loops import LOOPS, replay_through


def locky_trace(n_pes: int = 4) -> TraceBuffer:
    """A stream with real lock contention so lock_spin is non-zero."""
    return generate_aurora_trace(
        AuroraTraceConfig(n_pes=n_pes, steps_per_pe=150, seed=7)
    )


# ----------------------------------------------------------------------
# Registry / OpenMetrics
# ----------------------------------------------------------------------


def test_counter_accumulates_per_label_set():
    registry = MetricsRegistry()
    counter = registry.counter("repro_hits", "cache hits")
    counter.inc(3, area="heap")
    counter.inc(2, area="heap")
    counter.inc(5, area="goal")
    assert counter.value(area="heap") == 5
    assert counter.value(area="goal") == 5


def test_counter_rejects_negative_increment():
    counter = MetricsRegistry().counter("repro_hits", "h")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_registry_rejects_type_conflicts():
    registry = MetricsRegistry()
    registry.counter("repro_thing", "a thing")
    with pytest.raises(ValueError):
        registry.gauge("repro_thing", "now a gauge")


def test_registry_rejects_bad_metric_names():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("Repro-Hits", "bad name")


def test_openmetrics_rendering_ends_with_eof_and_total_suffix():
    registry = MetricsRegistry()
    registry.counter("repro_refs", "references").inc(7, kind="read")
    registry.gauge("repro_depth", "queue depth").set(3)
    text = registry.render_openmetrics()
    assert text.endswith("# EOF\n")
    assert 'repro_refs_total{kind="read"} 7' in text
    assert "# TYPE repro_refs counter" in text
    assert "repro_depth 3" in text


@pytest.mark.parametrize(
    "raw, escaped",
    [
        ('plain', 'plain'),
        ('a"b', 'a\\"b'),
        ("a\\b", "a\\\\b"),
        ("a\nb", "a\\nb"),
        ('\\"\n', '\\\\\\"\\n'),
    ],
)
def test_label_value_escaping(raw, escaped):
    assert escape_label_value(raw) == escaped


def test_escaped_labels_render_and_round_trip():
    registry = MetricsRegistry()
    registry.counter("repro_odd", "odd labels").inc(1, path='a"b\\c\nd')
    text = registry.render_openmetrics()
    assert 'path="a\\"b\\\\c\\nd"' in text


# ----------------------------------------------------------------------
# The cycle-ledger identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("protocol", sorted(protocol_names()))
@pytest.mark.parametrize("kernel", LOOPS)
def test_ledger_identity_every_protocol_and_kernel(protocol, kernel):
    trace = generate_random_trace(6000, n_pes=4, seed=13)
    stats = replay_through(kernel, trace, SimulationConfig(protocol=protocol))
    ledger = cycle_ledger(stats)
    assert ledger.attributed_total == ledger.pe_cycles_total
    assert sum(ledger.entries.values()) == ledger.pe_cycles_total


@pytest.mark.parametrize("kernel", LOOPS)
def test_ledger_identity_with_lock_contention(kernel):
    stats = replay_through(kernel, locky_trace(), SimulationConfig())
    ledger = cycle_ledger(stats)
    assert ledger.attributed_total == ledger.pe_cycles_total


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_pes=st.sampled_from([1, 2, 4, 8]),
    n_sets=st.sampled_from([16, 64, 256]),
)
def test_ledger_identity_random_traces(seed, n_pes, n_sets):
    trace = generate_random_trace(1500, n_pes=n_pes, seed=seed)
    config = SimulationConfig(cache=CacheConfig(n_sets=n_sets))
    ledger = cycle_ledger(replay(trace, config))
    assert ledger.attributed_total == ledger.pe_cycles_total


def test_ledger_identity_clustered_includes_network_stall():
    trace = generate_random_trace(6000, n_pes=8, seed=5)
    config = SimulationConfig().with_clusters(2)
    clustered = run_clustered(trace, config, jobs=1)
    ledger = cycle_ledger(clustered.stats, network=clustered.network)
    assert ledger.attributed_total == ledger.pe_cycles_total
    assert ledger.entries["network_stall"] == clustered.network.stall_cycles
    assert ledger.entries["network_stall"] > 0


def test_tampered_stats_raise_ledger_error():
    stats = replay(generate_random_trace(2000, n_pes=2, seed=1))
    stats.hit_service_cycles += 1
    with pytest.raises(LedgerError):
        cycle_ledger(stats)
    # verify=False defers the check; verify() then raises.
    stats_ok = replay(generate_random_trace(2000, n_pes=2, seed=1))
    stats_ok.bus_wait_cycles += 3
    ledger = cycle_ledger(stats_ok, verify=False)
    with pytest.raises(LedgerError):
        ledger.verify()


def test_ledger_fractions_sum_to_one():
    stats = replay(generate_random_trace(3000, n_pes=4, seed=2))
    fractions = cycle_ledger(stats).fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_format_ledger_mentions_identity():
    stats = replay(generate_random_trace(2000, n_pes=2, seed=3))
    text = format_ledger(cycle_ledger(stats))
    assert "identity verified" in text
    assert "hit_service" in text


def test_ledger_to_registry_exports_buckets_with_labels():
    stats = replay(generate_random_trace(2000, n_pes=2, seed=4))
    ledger = cycle_ledger(stats)
    registry = MetricsRegistry()
    ledger.to_registry(registry, protocol="pim")
    text = registry.render_openmetrics()
    assert 'bucket="hit_service"' in text
    assert 'protocol="pim"' in text
    assert text.endswith("# EOF\n")


def test_metrics_record_passes_schema_and_tampering_fails():
    stats = replay(generate_random_trace(2000, n_pes=2, seed=6))
    record = metrics_record(cycle_ledger(stats))
    validate_metrics(record)
    broken = json.loads(json.dumps(record))
    broken["ledger"]["entries"]["hit_service"] += 1
    with pytest.raises(SchemaError):
        validate_metrics(broken)


# ----------------------------------------------------------------------
# Counter tracks
# ----------------------------------------------------------------------


def test_counter_track_events_sample_each_window():
    trace = generate_random_trace(4000, n_pes=2, seed=8)
    _, windows = windowed_replay(trace, window=1000)
    events = counter_track_events(windows)
    samples = [e for e in events if e["ph"] == "C"]
    assert samples, "expected counter samples"
    assert all(e["pid"] == COUNTER_PID for e in samples)
    # One sample per window per track, stamped at increasing cycles.
    by_name = {}
    for sample in samples:
        by_name.setdefault(sample["name"], []).append(sample["ts"])
    for timestamps in by_name.values():
        assert len(timestamps) == len(windows)
        assert timestamps == sorted(timestamps)


def test_counter_track_events_empty_windows():
    assert counter_track_events([]) == []
