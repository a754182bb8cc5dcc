"""Streaming replay identity and memory-boundedness (repro.serve.stream).

The load-bearing claim: replaying a trace chunk-by-chunk through one
persistent system is *bit-identical* to replaying it whole in memory —
for every golden protocol/config pair, both replay loops (the generated
kernel and the per-access loop, see ``tests/replay_loops.py``), both
interconnect backends, and clustered (K=2) systems.  The goldens pin
the bus/K=1 axis directly; the other axes are checked against a freshly
computed in-memory reference (the goldens predate those backends).

The memory test pins the other half of the contract: peak allocation
during a streamed replay is bounded by one chunk plus simulator state,
not by the trace.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.config import CacheConfig, OptimizationConfig, SimulationConfig
from repro.core.replay import replay
from repro.serve.stream import chunk_stream, replay_stream
from repro.trace.io import write_trace_chunked
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
def chunked_paths(golden_traces, tmp_path_factory):
    """The golden traces re-serialized as chunked container files."""
    root = tmp_path_factory.mktemp("chunked")
    paths = {}
    for name, buffer in golden_traces.items():
        path = root / f"{name}.trace"
        write_trace_chunked(buffer, path, chunk_refs=CHUNK_REFS)
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# The bus/K=1 axis: streamed replay must hit the committed goldens.


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("trace_name", ("random", "aurora"))
@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_streamed_replay_matches_goldens(
    chunked_paths, monkeypatch, protocol, trace_name, config_name, kernel
):
    route_through(kernel, monkeypatch)
    stats = replay_stream(
        chunked_paths[trace_name],
        config=_config(protocol, config_name),
        n_pes=4,
    )
    assert stats.as_dict() == GOLDENS[f"{trace_name}/{protocol}/{config_name}"]


# ---------------------------------------------------------------------------
# The other axes (directory backend, K=2 clusters): streamed == whole.


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("clusters", (1, 2))
@pytest.mark.parametrize("interconnect", ("bus", "directory"))
@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_streamed_replay_matches_in_memory(
    golden_traces, chunked_paths, monkeypatch, protocol, interconnect,
    clusters, kernel,
):
    route_through(kernel, monkeypatch)
    config = _config(protocol, "base", interconnect, clusters)
    streamed = replay_stream(chunked_paths["random"], config=config, n_pes=4)
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


def test_chunk_stream_normalizes_every_source(golden_traces, chunked_paths):
    buffer = golden_traces["aurora"]
    rows = list(buffer)
    from_path = chunk_stream(chunked_paths["aurora"])
    from_buffer = chunk_stream(buffer, chunk_refs=777)
    from_iterable = chunk_stream(iter([buffer]))
    for chunks in (from_path, from_buffer, from_iterable):
        assert [row for chunk in chunks for row in chunk] == rows


def test_on_chunk_hook_sees_monotone_progress(chunked_paths):
    seen = []
    replay_stream(
        chunked_paths["aurora"],
        config=SimulationConfig(),
        n_pes=4,
        on_chunk=lambda index, refs, system: seen.append((index, refs)),
    )
    assert [index for index, _ in seen] == list(range(len(seen)))
    refs = [done for _, done in seen]
    assert refs == sorted(refs) and len(set(refs)) == len(refs)


def test_empty_stream_yields_untouched_system():
    stats = replay_stream(iter(()), config=SimulationConfig(), n_pes=4)
    assert stats.total_refs == 0


# ---------------------------------------------------------------------------
# Constant-memory streaming.


def test_streamed_replay_memory_is_bounded_by_chunk_size(
    tmp_path, monkeypatch
):
    # A trace several megabytes on disk, streamed in ~16 KiB chunks:
    # peak traced allocation must stay far below the whole-trace
    # footprint (the in-memory buffer alone would be ~12 bytes/ref).
    path = tmp_path / "big.trace"

    def chunks():
        for seed in range(60):
            yield generate_random_trace(4_000, n_pes=4, seed=seed)

    total = write_trace_chunked(chunks(), path)
    assert total >= 240_000
    assert path.stat().st_size > 2_500_000

    def streamed_peak():
        gc.collect()
        tracemalloc.start()
        stats = replay_stream(path, config=SimulationConfig(), n_pes=4)
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
