"""Streaming replay identity and memory-boundedness (repro.serve.stream).

The load-bearing claim: replaying a trace range-by-range through one
persistent system is *bit-identical* to replaying it whole in memory —
for every golden protocol/config pair, both replay loops (the generated
kernel and the per-access loop, see ``tests/replay_loops.py``), both
interconnect backends, and clustered (K=2) systems.  The goldens pin
the bus/K=1 axis directly; the other axes are checked against a freshly
computed in-memory reference (the goldens predate those backends).

The memory test pins the other half of the contract: peak allocation
during a streamed replay of a trace file is bounded by one chunk plus
simulator state, not by the trace.  An in-memory buffer streams as
ranges of itself, never as copies.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.config import CacheConfig, OptimizationConfig, SimulationConfig
from repro.core.replay import ReplayBlockedError, replay
from repro.core.system import PIMCacheSystem
from repro.serve.stream import replay_stream
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, Area, Op
from repro.trace.io import write_trace
from repro.trace.synthetic import (
    AuroraTraceConfig,
    generate_aurora_trace,
    generate_random_trace,
)
from tests.replay_loops import LOOPS, route_through

GOLDEN_PATH = Path(__file__).parent / "golden" / "protocol_stats.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

GOLDEN_PROTOCOLS = ("pim", "illinois", "write_through", "write_update")
CONFIG_NAMES = ("base", "no_opt", "small")

#: Chunk size chosen to split both golden traces into several chunks
#: with ragged tails (neither trace length is a multiple of it).
CHUNK_REFS = 4_099


def _config(protocol, name, interconnect="bus", clusters=1):
    if name == "base":
        config = SimulationConfig(protocol=protocol, interconnect=interconnect)
    elif name == "no_opt":
        config = SimulationConfig(
            protocol=protocol,
            opts=OptimizationConfig.none(),
            interconnect=interconnect,
        )
    else:
        config = SimulationConfig(
            protocol=protocol,
            cache=CacheConfig(n_sets=16, associativity=2),
            interconnect=interconnect,
        )
    if clusters > 1:
        config = config.with_clusters(clusters)
    return config


@pytest.fixture(scope="module")
def golden_traces():
    return {
        "random": generate_random_trace(24_000, n_pes=4, seed=123),
        "aurora": generate_aurora_trace(
            AuroraTraceConfig(n_pes=4, steps_per_pe=300, seed=11)
        ),
    }


@pytest.fixture(scope="module")
def trace_paths(golden_traces, tmp_path_factory):
    """The golden traces written as trace files."""
    root = tmp_path_factory.mktemp("traces")
    paths = {}
    for name, buffer in golden_traces.items():
        path = root / f"{name}.trace"
        write_trace(buffer, path)
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# The bus/K=1 axis: streamed replay must hit the committed goldens.


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("trace_name", ("random", "aurora"))
@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_streamed_replay_matches_goldens(
    trace_paths, monkeypatch, protocol, trace_name, config_name, kernel
):
    route_through(kernel, monkeypatch)
    stats = replay_stream(
        trace_paths[trace_name],
        config=_config(protocol, config_name),
        n_pes=4,
        chunk_refs=CHUNK_REFS,
    )
    assert stats.as_dict() == GOLDENS[f"{trace_name}/{protocol}/{config_name}"]


# ---------------------------------------------------------------------------
# The other axes (directory backend, K=2 clusters): streamed == whole.


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("clusters", (1, 2))
@pytest.mark.parametrize("interconnect", ("bus", "directory"))
@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_streamed_replay_matches_in_memory(
    golden_traces, trace_paths, monkeypatch, protocol, interconnect,
    clusters, kernel,
):
    route_through(kernel, monkeypatch)
    config = _config(protocol, "base", interconnect, clusters)
    streamed = replay_stream(
        trace_paths["random"], config=config, n_pes=4, chunk_refs=CHUNK_REFS
    )
    if clusters > 1:
        # The canonical in-memory clustered replay: split the whole
        # trace once, replay each shard whole into its cluster.  The
        # streamed run split every chunk instead — identical counters
        # prove splitting commutes with chunked composition.
        from repro.cluster.replay import split_trace
        from repro.cluster.system import ClusteredSystem

        reference_system = ClusteredSystem(config, 4)
        shards = split_trace(golden_traces["random"], 4, clusters)
        for sub, shard in zip(reference_system.systems, shards):
            replay(shard, system=sub)
        reference = reference_system.cluster_stats()
        assert streamed.as_dict() == reference.as_dict()
    else:
        reference = replay(golden_traces["random"], config, n_pes=4)
        assert streamed.as_dict() == reference.as_dict()


def test_replay_stream_accepts_every_source(golden_traces, trace_paths):
    # A trace file and an in-memory buffer both stream to the whole
    # replay, and so does a resume: [0, s) in memory, then [s, n)
    # streamed into the same system.
    buffer = golden_traces["aurora"]
    whole = replay(buffer, SimulationConfig(), n_pes=4).as_dict()
    for source in (trace_paths["aurora"], buffer):
        streamed = replay_stream(source, SimulationConfig(), chunk_refs=777)
        assert streamed.as_dict() == whole
        system = PIMCacheSystem(SimulationConfig(), 4)
        replay(buffer, system=system, stop=1_554)
        resumed = replay_stream(
            source, chunk_refs=777, system=system, start=1_554
        )
        assert resumed.as_dict() == whole


def _no_copies(*args):
    raise AssertionError("streaming copied a range of the buffer")


@pytest.mark.parametrize("clusters", (1, 2))
def test_in_memory_stream_replays_ranges_without_copies(
    golden_traces, monkeypatch, clusters
):
    buffer = golden_traces["random"]
    config = _config("pim", "base", clusters=clusters)
    whole = replay(buffer, config, n_pes=4).as_dict()
    monkeypatch.setattr(TraceBuffer, "slice", _no_copies)
    streamed = replay_stream(buffer, config, n_pes=4, chunk_refs=CHUNK_REFS)
    if clusters > 1:
        streamed = streamed.stats
    assert streamed.as_dict() == whole


def test_stream_reports_the_blocked_position(tmp_path, monkeypatch):
    # PE0 locks a word and PE1 reads its block at trace position 101,
    # inside the 15th 7-reference range: both sources report 101.
    buffer = TraceBuffer(n_pes=2)
    address = AREA_BASE[Area.HEAP]
    for i in range(100):
        buffer.append(i % 2, Op.R, Area.HEAP, address + 64 + 4 * i)
    buffer.append(0, Op.LR, Area.HEAP, address)
    buffer.append(1, Op.R, Area.HEAP, address)
    buffer.append(0, Op.R, Area.HEAP, address + 64)
    path = tmp_path / "blocked.trace"
    write_trace(buffer, path)
    monkeypatch.setattr(TraceBuffer, "slice", _no_copies)
    for source in (buffer, path):
        with pytest.raises(ReplayBlockedError) as info:
            replay_stream(source, SimulationConfig(), chunk_refs=7)
        assert (info.value.index, info.value.pe) == (101, 1)


def test_on_chunk_hook_sees_monotone_progress(golden_traces, trace_paths):
    seen = []
    replay_stream(
        trace_paths["aurora"],
        config=SimulationConfig(),
        n_pes=4,
        chunk_refs=CHUNK_REFS,
        on_chunk=lambda index, refs, system: seen.append((index, refs)),
    )
    assert [index for index, _ in seen] == list(range(len(seen)))
    refs = [done for _, done in seen]
    total = len(golden_traces["aurora"])
    assert refs == [*range(CHUNK_REFS, total, CHUNK_REFS), total]


def test_empty_stream_yields_untouched_system(tmp_path):
    path = tmp_path / "empty.trace"
    write_trace(TraceBuffer(n_pes=4), path)
    for source in (TraceBuffer(n_pes=4), path):
        stats = replay_stream(source, config=SimulationConfig(), n_pes=4)
        assert stats.total_refs == 0


# ---------------------------------------------------------------------------
# Constant-memory streaming.


def test_streamed_replay_memory_is_bounded_by_chunk_size(
    tmp_path, monkeypatch
):
    # A trace several megabytes on disk, streamed in ~48 KiB ranges:
    # peak traced allocation must stay far below the whole-trace
    # footprint (the in-memory buffer alone would be ~12 bytes/ref).
    path = tmp_path / "big.trace"
    big = TraceBuffer(n_pes=4)
    for seed in range(60):
        big.extend(generate_random_trace(4_000, n_pes=4, seed=seed))
    write_trace(big, path)
    total = len(big)
    del big
    assert total >= 240_000
    assert path.stat().st_size > 2_500_000

    def streamed_peak():
        gc.collect()
        tracemalloc.start()
        stats = replay_stream(
            path, config=SimulationConfig(), n_pes=4, chunk_refs=4_000
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert stats.total_refs == total
        return peak

    # Whole-trace replay would hold >= ~2.9 MB of columns.  The
    # per-access loop keeps no per-call tables, so its streamed peak is
    # the streaming layer's own (one chunk + live simulator state) and
    # must be well under that.
    route_through("interpreted", monkeypatch)
    peak = streamed_peak()
    assert peak < 1_200_000, f"streamed replay peaked at {peak:,} bytes"
    # The generated kernel adds per-chunk tables (packed keys, the flat
    # mirror), sized by the chunk, never by the trace.
    route_through("generated", monkeypatch)
    peak = streamed_peak()
    assert peak < 12 * total, f"streamed replay peaked at {peak:,} bytes"
