"""Constant-memory streaming replay over trace files.

The identity this module rides on: ``replay()`` with a persistent
``system=`` argument is *sequentially composable* — replaying a trace
range-by-range into one system produces bit-identical counters to one
in-memory replay (the generated kernel seeds its LRU clock from the
caches and writes it back after every call, and settles every deferred
counter fold before returning).  For
clustered systems the ``split_trace`` determinism argument
(docs/CLUSTER.md) composes with chunking: splitting each chunk and
replaying every shard into its cluster's persistent system is the same
per-cluster subsequence an interleaved run would produce, so
cluster-parallel streaming merges deterministically too.

A trace file is read one ``chunk_refs`` range at a time
(:func:`repro.trace.io.iter_trace_chunks`), so peak memory is bounded
by one chunk plus live simulator state, never by the trace: a
billion-reference trace replays through the same few hundred
kilobytes of buffer.  An in-memory buffer is replayed range by range
in place, with no copies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple, Union

from repro.core.config import SimulationConfig
from repro.core.replay import ReplayBlockedError, replay
from repro.cluster.replay import new_system, system_result
from repro.trace.buffer import TraceBuffer
from repro.trace.io import DEFAULT_CHUNK_REFS, iter_trace_chunks, trace_header


def _segments(
    source: Union[str, Path, TraceBuffer], chunk_refs: int, start: int
) -> Tuple[int, Iterator[Tuple[TraceBuffer, int, int, int]]]:
    """The source's PE count and its ``(buffer, base, lo, hi)``
    segments: replay ``[lo, hi)`` of *buffer*, whose reference 0 sits
    at trace position *base*."""
    if isinstance(source, TraceBuffer):
        total = len(source)
        return source.n_pes, (
            (source, 0, lo, min(lo + chunk_refs, total))
            for lo in range(start, total, chunk_refs)
        )

    def file_segments():
        base = start
        for chunk in iter_trace_chunks(source, chunk_refs, start):
            yield chunk, base, 0, len(chunk)
            base += len(chunk)

    return trace_header(source).n_pes, file_segments()


def replay_stream(
    source: Union[str, Path, TraceBuffer],
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    system=None,
    on_chunk: Optional[Callable[[int, int, object], None]] = None,
    mode: Optional[str] = None,
    batch_refs: Optional[int] = None,
    signature_bits: Optional[int] = None,
    start: int = 0,
):
    """Replay references ``[start, n)`` of *source* — a trace file or
    an in-memory :class:`TraceBuffer` — ``chunk_refs`` at a time
    through one persistent system.

    Returns the flat :class:`SystemStats` for single-bus configs or a
    :class:`ClusterStats` when ``config.cluster.n_clusters > 1`` —
    bit-identical to replaying the whole trace in memory.

    *system* lets a caller resume a restored checkpoint (it must match
    the config's shape) at trace position *start*; *on_chunk* is called
    after every chunk with ``(index, refs_done, system)`` — the
    chunk's index in this call and the trace position it ended at, the
    hook the job service checkpoints and heartbeats from.  A blocked
    reference raises :class:`~repro.core.replay.ReplayBlockedError`
    with its index and PE in the whole trace, flat or clustered.

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
    source_pes, segments = _segments(source, chunk_refs, start)
    if system is None:
        system = new_system(config or SimulationConfig(), n_pes or source_pes)
    for index, (buffer, base, lo, hi) in enumerate(segments):
        try:
            replay(
                buffer,
                system=system,
                mode=mode,
                batch_refs=batch_refs,
                signature_bits=signature_bits,
                start=lo,
                stop=hi,
            )
        except ReplayBlockedError as error:
            raise error.at(base) from None
        if on_chunk is not None:
            on_chunk(index, base + hi, system)
    return system_result(system)
