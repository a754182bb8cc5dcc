"""Probe/sink layer: event emission, attach/detach, sink behaviour."""

import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.replay import replay, replay_access_driven
from repro.core.system import PIMCacheSystem
from repro.obs.events import EVENT_KIND_NAMES, EventKind, ProtocolEvent
from repro.obs.probe import ProtocolProbe
from repro.obs.schema import SchemaError, validate_event, validate_jsonl
from repro.obs.sink import CollectorSink, JsonlSink, RingBufferSink
from repro.obs.windows import windowed_replay
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, FLAG_LOCK_CONTENDED, Area, Op


def observed_system(n_pes: int = 4):
    system = PIMCacheSystem(SimulationConfig(), n_pes)
    sink = CollectorSink()
    system.attach_probe(ProtocolProbe(sink))
    return system, sink


def events_of_kind(sink, kind):
    return [e for e in sink.events if e.kind == kind]


def test_miss_emits_transition_and_bus_events():
    system, sink = observed_system()
    system.access(0, Op.R, Area.HEAP, AREA_BASE[Area.HEAP])
    transitions = events_of_kind(sink, EventKind.TRANSITION)
    buses = events_of_kind(sink, EventKind.BUS)
    assert [t.detail for t in transitions] == ["INV->EC"]
    assert [b.detail for b in buses] == ["swap_in"]
    # The BUS event's value is the cycles held; its cycle stamp is when
    # the bus freed, so the slice [cycle - value, cycle] is the occupancy.
    assert buses[0].value > 0
    assert buses[0].cycle == system.bus_free_at


def test_hit_emits_nothing():
    system, sink = observed_system()
    address = AREA_BASE[Area.HEAP]
    system.access(0, Op.R, Area.HEAP, address)
    before = sink.emitted
    system.access(0, Op.R, Area.HEAP, address)
    assert sink.emitted == before


def test_dw_demotion_event():
    system, sink = observed_system()
    address = AREA_BASE[Area.HEAP]
    system.access(0, Op.R, Area.HEAP, address)  # EC copy: DW must demote
    system.access(0, Op.DW, Area.HEAP, address)
    demotions = events_of_kind(sink, EventKind.DEMOTION)
    assert [d.detail for d in demotions] == ["DW->W"]


def test_er_last_word_purge_event():
    system, sink = observed_system()
    base = AREA_BASE[Area.GOAL]
    block_words = system.config.cache.block_words
    for offset in range(block_words):
        system.access(0, Op.ER, Area.GOAL, base + offset)
    purges = events_of_kind(sink, EventKind.PURGE)
    assert len(purges) == 1
    assert purges[0].detail in ("clean", "dirty")


def test_lock_conflict_events():
    system, sink = observed_system()
    address = AREA_BASE[Area.HEAP]
    system.access(0, Op.LR, Area.HEAP, address)
    system.access(1, Op.LR, Area.HEAP, address)  # draws LH, busy-waits
    system.access(0, Op.U, Area.HEAP, address)  # finds waiter, UL
    locks = events_of_kind(sink, EventKind.LOCK)
    details = [e.detail for e in locks]
    assert "LH" in details
    assert "UL" in details
    lh = next(e for e in locks if e.detail == "LH")
    assert lh.pe == 1


def test_transition_events_on_invalidating_write():
    system, sink = observed_system()
    address = AREA_BASE[Area.HEAP]
    system.access(0, Op.R, Area.HEAP, address)
    system.access(1, Op.R, Area.HEAP, address)
    sink.events.clear()
    system.access(0, Op.W, Area.HEAP, address)  # S -> EM locally
    transitions = events_of_kind(sink, EventKind.TRANSITION)
    assert [t.detail for t in transitions] == ["S->EM"]


def test_detach_restores_uninstrumented_table():
    system, sink = observed_system()
    assert system._op_table is not system._base_op_table
    probe = system.detach_probe()
    assert probe is not None
    assert system._op_table is system._base_op_table
    assert system.probe is None
    before = sink.emitted
    system.access(0, Op.R, Area.HEAP, AREA_BASE[Area.HEAP])
    assert sink.emitted == before  # detached: no more events
    assert system.detach_probe() is None  # idempotent


def test_double_attach_rejected():
    system, _ = observed_system()
    with pytest.raises(RuntimeError, match="already attached"):
        system.attach_probe(ProtocolProbe(CollectorSink()))


def test_probe_cannot_serve_two_systems():
    probe = ProtocolProbe(CollectorSink())
    PIMCacheSystem(SimulationConfig(), 2).attach_probe(probe)
    with pytest.raises(RuntimeError, match="already attached"):
        PIMCacheSystem(SimulationConfig(), 2).attach_probe(probe)


def test_observed_replay_counters_match_fast_kernel(tiny_workloads):
    trace = tiny_workloads.trace("pascal", 2)
    plain = replay(trace, SimulationConfig(), n_pes=2)
    observed, _ = windowed_replay(
        trace, SimulationConfig(), n_pes=2, probe=ProtocolProbe(CollectorSink())
    )
    assert observed.as_dict() == plain.as_dict()


def test_event_ref_indices_track_trace_positions():
    buffer = TraceBuffer(n_pes=2)
    base = AREA_BASE[Area.HEAP]
    buffer.append(0, Op.R, Area.HEAP, base)           # ref 0: miss
    buffer.append(0, Op.R, Area.HEAP, base)           # ref 1: hit
    buffer.append(1, Op.R, Area.HEAP, base + 4096)    # ref 2: miss
    sink = CollectorSink()
    windowed_replay(buffer, n_pes=2, probe=ProtocolProbe(sink))
    assert {e.ref for e in sink.events} == {0, 2}


def test_ring_buffer_sheds_oldest():
    ring = RingBufferSink(capacity=4)
    for seq in range(10):
        ring.emit(ProtocolEvent(seq, seq, 0, EventKind.BUS, 0, 0, 0, 0, "x", 1))
    assert ring.emitted == 10
    assert ring.dropped == 6
    assert len(ring) == 4
    assert [e.seq for e in ring.events] == [6, 7, 8, 9]


def test_ring_buffer_rejects_silly_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_jsonl_sink_writes_schema_valid_records(tmp_path):
    path = tmp_path / "events.jsonl"
    system = PIMCacheSystem(SimulationConfig(), 2)
    with JsonlSink(path) as sink:
        system.attach_probe(ProtocolProbe(sink))
        system.access(0, Op.R, Area.HEAP, AREA_BASE[Area.HEAP])
        system.access(1, Op.W, Area.GOAL, AREA_BASE[Area.GOAL])
        system.detach_probe()
    lines = path.read_text().splitlines()
    assert lines
    count = validate_jsonl(lines, validate_event)
    assert count == len(lines) == sink.emitted


def test_event_to_dict_and_format():
    event = ProtocolEvent(
        0, 7, 42, EventKind.TRANSITION, 1, Op.R, Area.HEAP, 0x10000000,
        "INV->EC", 3,
    )
    record = event.to_dict()
    validate_event(record)
    assert record["kind"] == "transition"
    assert record["op"] == "R"
    assert record["area"] == "heap"
    text = event.format()
    assert "PE1" in text and "INV->EC" in text


def test_validate_event_rejects_unknown_kind():
    record = ProtocolEvent(
        0, 0, 0, EventKind.BUS, 0, Op.R, Area.HEAP, 0, "swap_in", 13
    ).to_dict()
    record["kind"] = "bogus"
    with pytest.raises(SchemaError, match="unknown kind"):
        validate_event(record)


def test_kind_names_cover_every_kind():
    assert len(EVENT_KIND_NAMES) == len(EventKind)


def test_contended_trace_replays_lock_events_through_probe():
    # Captured trace order serializes the conflict: the loser's LR is
    # recorded after the winner's unlock, both carrying the flag.
    buffer = TraceBuffer(n_pes=2)
    address = AREA_BASE[Area.HEAP]
    buffer.append(0, Op.LR, Area.HEAP, address)
    buffer.append(0, Op.U, Area.HEAP, address, FLAG_LOCK_CONTENDED)
    buffer.append(1, Op.LR, Area.HEAP, address, FLAG_LOCK_CONTENDED)
    sink = CollectorSink()
    stats, _ = windowed_replay(buffer, n_pes=2, probe=ProtocolProbe(sink))
    assert stats.lh_responses == 1
    details = [e.detail for e in events_of_kind(sink, EventKind.LOCK)]
    assert "LH" in details and "UL" in details


def test_profile_warns_when_the_ring_drops_events(caplog):
    import logging

    from repro.obs.profile import profile_trace
    from repro.trace.synthetic import generate_random_trace

    trace = generate_random_trace(2000, n_pes=2, seed=12)
    repro_logger = logging.getLogger("repro")
    propagate = repro_logger.propagate
    repro_logger.propagate = True  # the CLI may have detached it
    try:
        with caplog.at_level(logging.WARNING, logger="repro.obs.profile"):
            result = profile_trace(trace, event_capacity=16)
    finally:
        repro_logger.propagate = propagate
    assert result.events_dropped > 0
    warnings = [
        r for r in caplog.records if r.levelno == logging.WARNING
    ]
    assert any("dropped" in r.getMessage() for r in warnings)
    # The manifest still accounts for the loss exactly.
    extra = result.manifest["extra"]
    assert extra["events_dropped"] == result.events_dropped
    assert extra["events_emitted"] == result.events_emitted


def test_profile_quiet_when_nothing_dropped(caplog):
    import logging

    from repro.obs.profile import profile_trace
    from repro.trace.synthetic import generate_random_trace

    trace = generate_random_trace(300, n_pes=2, seed=12)
    repro_logger = logging.getLogger("repro")
    propagate = repro_logger.propagate
    repro_logger.propagate = True
    try:
        with caplog.at_level(logging.WARNING, logger="repro.obs.profile"):
            result = profile_trace(trace, event_capacity=65536)
    finally:
        repro_logger.propagate = propagate
    assert result.events_dropped == 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_replay_feeds_an_attached_probe_every_reference():
    """replay() runs a probed system through the per-access loop: the
    generated kernel would serve cache hits past the probed handlers."""
    from repro.trace.synthetic import generate_random_trace

    class CountingProbe(ProtocolProbe):
        seen = 0

        def before_access(self, *args):
            self.seen += 1
            super().before_access(*args)

    trace = generate_random_trace(3000, n_pes=4, seed=5)
    runs = []
    for loop in (replay, replay_access_driven):
        system = PIMCacheSystem(SimulationConfig(), 4)
        sink = CollectorSink()
        probe = CountingProbe(sink)
        system.attach_probe(probe)
        if loop is replay:
            replay(trace, system=system)
        else:
            replay_access_driven(trace, system)
        runs.append((probe.seen, sink.emitted, system.stats.as_dict()))
    assert runs[0][0] == len(trace)
    assert runs[0] == runs[1]
