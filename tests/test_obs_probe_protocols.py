"""Observability across the protocol registry: probe attach/detach on
every registered protocol, protocol-tagged events, and protocol
provenance in manifests and bench records."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.protocol import protocol_names
from repro.core.system import PIMCacheSystem
from repro.obs.events import ProtocolEvent
from repro.obs.manifest import build_manifest
from repro.obs.probe import ProtocolProbe
from repro.obs.schema import validate_event, validate_manifest
from repro.obs.sink import CollectorSink
from repro.obs.windows import windowed_replay
from repro.trace.synthetic import generate_random_trace


@pytest.mark.parametrize("protocol", protocol_names())
def test_probe_attach_detach_round_trip(protocol):
    """Attach -> replay -> detach on each protocol: events flow while
    attached, the restored table is object-identical to the
    uninstrumented one, and detaching stops the stream."""
    system = PIMCacheSystem(SimulationConfig(protocol=protocol), 4)
    base_table = system._op_table
    assert base_table is system._base_op_table
    sink = CollectorSink()
    probe = ProtocolProbe(sink)
    system.attach_probe(probe)
    assert system._op_table is not base_table
    buffer = generate_random_trace(800, n_pes=4, seed=7)
    for pe, op, area, addr, flags in zip(*buffer.columns()):
        system.access(pe, op, area, addr, 0, flags)
    assert sink.events, f"no events observed under {protocol!r}"
    assert system.detach_probe() is probe
    # The exact pre-attach table object is restored, not a rebuild.
    assert system._op_table is base_table
    emitted = sink.emitted
    for pe, op, area, addr, flags in zip(*buffer.columns()):
        system.access(pe, op, area, addr, 0, flags)
    assert sink.emitted == emitted


@pytest.mark.parametrize("protocol", protocol_names())
def test_events_carry_protocol_name(protocol):
    buffer = generate_random_trace(400, n_pes=2, seed=9)
    sink = CollectorSink()
    windowed_replay(
        buffer,
        SimulationConfig(protocol=protocol),
        n_pes=2,
        probe=ProtocolProbe(sink),
    )
    assert sink.events
    assert all(event.protocol == protocol for event in sink.events)
    record = sink.events[0].to_dict()
    validate_event(record)
    assert record["protocol"] == protocol


def test_hand_built_events_default_to_unattributed():
    from repro.obs.events import EventKind
    from repro.trace.events import Area, Op

    event = ProtocolEvent(
        0, 0, 0, EventKind.BUS, 0, Op.R, Area.HEAP, 0, "swap_in", 13
    )
    assert event.protocol == ""
    record = event.to_dict()
    assert "protocol" not in record
    validate_event(record)


@pytest.mark.parametrize("protocol", protocol_names())
def test_manifest_records_protocol(protocol):
    manifest = build_manifest(config=SimulationConfig(protocol=protocol))
    validate_manifest(manifest)
    assert manifest["protocol"] == protocol
    assert manifest["config"]["protocol"] == protocol


def test_manifest_without_config_has_null_protocol():
    manifest = build_manifest()
    validate_manifest(manifest)
    assert manifest["protocol"] is None


def test_bench_records_carry_protocol():
    from repro.analysis.bench import hot_trace, run_bench

    report = run_bench(quick=True, repeats=1)
    for entry in report["workloads"].values():
        assert entry["protocol"] == "pim"
    assert report["manifest"]["protocol"] == "pim"
    assert len(hot_trace(1000)) == 1000
    hot = report["workloads"]["hot"]
    assert hot["refs"] == 200_000 and hot["hit_ratio"] > 0.97
    assert hot["speedup"] is not None
