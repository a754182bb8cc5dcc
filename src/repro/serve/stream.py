"""Constant-memory streaming replay over chunked traces.

The identity this module rides on: ``replay()`` with a persistent
``system=`` argument is *sequentially composable* — replaying a trace
chunk-by-chunk into one system produces bit-identical counters to one
in-memory replay (the generated kernel seeds its LRU clock from the
caches and writes it back after every call, and settles every deferred
counter fold before returning).  For
clustered systems the ``split_trace`` determinism argument
(docs/CLUSTER.md) composes with chunking: splitting each chunk and
replaying every shard into its cluster's persistent system is the same
per-cluster subsequence an interleaved run would produce, so
cluster-parallel streaming merges deterministically too.

Peak memory is therefore bounded by one chunk (plus live simulator
state), never by the trace: a billion-reference trace replays through
the same few hundred kilobytes of buffer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.core.config import SimulationConfig
from repro.core.replay import ReplayBlockedError, replay
from repro.cluster.replay import new_system, system_result
from repro.trace.buffer import TraceBuffer
from repro.trace.io import (
    DEFAULT_CHUNK_REFS,
    is_chunked_trace,
    iter_trace_chunks,
    read_trace,
)

ChunkSource = Union[str, Path, TraceBuffer, Iterable[TraceBuffer]]


def chunk_stream(
    source: ChunkSource, chunk_refs: int = DEFAULT_CHUNK_REFS
) -> Iterator[TraceBuffer]:
    """Normalize *source* into an iterator of trace chunks.

    * A path to a chunked (``PIMTRACEC``) file streams its chunks as
      written — constant memory.
    * A path to a flat file is loaded once and sliced (the flat
      container is one record; convert with ``repro trace convert``
      for true streaming).
    * An in-memory :class:`TraceBuffer` is sliced into ``chunk_refs``
      views; any other iterable is passed through.
    """
    if isinstance(source, (str, Path)):
        if is_chunked_trace(source):
            return iter_trace_chunks(source)
        source = read_trace(source)
    if isinstance(source, TraceBuffer):
        buffer = source

        def slices() -> Iterator[TraceBuffer]:
            for start in range(0, len(buffer), chunk_refs):
                yield buffer.slice(start, min(start + chunk_refs, len(buffer)))

        return slices()
    return iter(source)


def replay_stream(
    source: ChunkSource,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    system=None,
    on_chunk: Optional[Callable[[int, int, object], None]] = None,
    mode: Optional[str] = None,
    batch_refs: Optional[int] = None,
    signature_bits: Optional[int] = None,
):
    """Replay *source* chunk-by-chunk through one persistent system.

    Returns the flat :class:`SystemStats` for single-bus configs or a
    :class:`ClusterStats` when ``config.cluster.n_clusters > 1`` —
    bit-identical to replaying the whole trace in memory.

    *system* lets a caller resume a restored checkpoint (it must match
    the config's shape); *on_chunk* is called after every chunk with
    ``(chunk_index, refs_done, system)`` — the hook the job service
    checkpoints and heartbeats from.  A blocked reference raises
    :class:`~repro.core.replay.ReplayBlockedError` with its index and
    PE in the whole stream, flat or clustered.

    ``mode="lazypim"`` streams speculatively: each chunk runs as a
    closed sequence of speculative batches (chunk boundaries force a
    batch commit), so every ``on_chunk`` — and therefore every job
    checkpoint — lands on fully-settled state, and a resume from a
    chunk-boundary checkpoint is bit-identical to the undisturbed
    streamed run.  Streamed speculative counters are a deterministic
    function of ``(trace, config, chunk_refs, batch_refs)``; they equal
    the monolithic :func:`~repro.core.speculative.replay_speculative`
    run exactly when ``chunk_refs`` is a multiple of *batch_refs* and
    the stream carries no lock/flagged references (each of which resets
    the batch phase).
    """
    chunks = chunk_stream(source, chunk_refs)
    if config is None:
        config = SimulationConfig()
    refs_done = 0
    index = 0
    for chunk in chunks:
        if system is None:
            system = new_system(config, n_pes or chunk.n_pes)
        try:
            replay(
                chunk,
                system=system,
                mode=mode,
                batch_refs=batch_refs,
                signature_bits=signature_bits,
            )
        except ReplayBlockedError as error:
            raise error.at(refs_done) from None
        refs_done += len(chunk)
        if on_chunk is not None:
            on_chunk(index, refs_done, system)
        index += 1
    if system is None:
        # Empty stream: an untouched system of the requested shape.
        system = new_system(config, n_pes or 1)
    return system_result(system)
