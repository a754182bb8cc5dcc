"""Speculative batch coherence — the LazyPIM execution mode.

The paper kills unnecessary coherence traffic *pessimistically*: software
tells the cache, per access, which fetches and invalidations are useless
(DW/ER/RP/RI).  LazyPIM (PAPERS.md) attacks the same traffic
*optimistically*: accesses inside a batch execute without any per-access
coherence transactions while compressed read/write signatures accumulate;
at the batch boundary the signatures are compared, a conflict-free batch
settles its deferred coherence in one bulk round, and a conflicting
batch rolls back and re-executes under the ordinary per-access protocol.

The adaptation to this simulator keeps the controller exact and defers
only the *pricing*:

* **Attempt.**  During a speculative batch the system's ``_bus`` binding
  (the single point every backend charge flows through — see
  :mod:`repro.core.interconnect`) is swapped for a recorder that logs
  each would-be transaction and charges nothing.  Handlers still run in
  full, so cache states, lock directories and data values evolve exactly
  as they would pessimistically — speculation changes *when coherence is
  paid for*, never what the protocol does.  Bus-free work (hit service,
  lock spins, shared-memory busy time) is charged live as always.
* **Signatures.**  Per-PE read and write sets are compressed into
  ``signature_bits``-wide masks, one bit per block hashed by its low
  ``log2(signature_bits)`` bits.  Signatures are a pure function of the
  reference stream, so the batch's conflict verdict is computed from the
  trace columns before the attempt runs (the hardware would accumulate
  the same masks access by access).  Truncating a wider mask yields the
  narrower one, so any two blocks that collide at width ``2w`` also
  collide at width ``w`` — the false-positive rate is monotone
  non-increasing in the width, a property the test-suite checks.
* **Commit.**  A conflict-free batch replays its deferred transactions
  through the real ``interconnect.transact`` in recorded order — the
  bulk settlement round, priced through the existing seam so the
  cycle-ledger identity of :mod:`repro.obs.metrics` holds by
  construction.  Per-block invalidation rounds are coalesced: the
  batch's write signature is broadcast once at commit and every cache
  derives all of its invalidations from it, so the first deferred
  block-invalidation is charged (it *is* the signature broadcast) and
  the rest are counted in ``batch_elided_invalidations`` instead of
  charged.  Data-moving patterns (swap-ins, cache-to-cache transfers,
  write-throughs) and the lock protocol's block-less broadcast rounds
  are never elided — speculation amortizes coherence *control*, not
  data movement or lock liveness.
* **Rollback.**  Signatures are a pure function of the trace, so a
  conflicting batch is known to conflict before it runs.  LazyPIM's
  hardware learns of the conflict only at commit, executes the doomed
  attempt and rolls it back; here the attempt could not change the
  final state (the rollback would erase it), so it is skipped.  A
  conflicting batch counts one ``batch_rollbacks`` and executes
  pessimistically — the modeled rollback penalty is that per-access
  re-execution.  The attempt's wasted local work is not charged.  The
  differential oracle (:mod:`repro.verify.oracle`) replays the
  speculative path against flat memory, so rollbacks stay invisible in
  final state.

Batch boundaries: every ``batch_refs`` references, with lock-directory
operations (``LR``/``UW``/``U``, and any flagged contended reference)
forcing an early commit — they execute non-speculatively between
batches, because lock hand-offs are ordering-sensitive by design (an LH
response or UL broadcast cannot be deferred).  A ``batch_refs`` of 1
degenerates to the pessimistic protocol (a one-reference batch settles
before any concurrent conflict can arise), which
:func:`replay_speculative` short-circuits outright so the mode is
counter-identical to the ordinary path — the golden-identity gate.

On a home-node directory backend the deferred transactions carry no
request resolution (the entry table would be resolving against states
the batch has already moved past); residency notes stay live during the
attempt, every block a batch touches is recorded, and the settlement
resynchronizes those entries from cache residency — the directory's own
completion rule — so ``DirectoryInterconnect.check()`` holds at every
batch boundary.

Clustered replay composes per cluster: each cluster's shard runs its own
independent batch engine (speculation is a per-bus mechanism), so the
``split_trace`` determinism argument of :mod:`repro.cluster.replay`
carries over unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.replay import (
    invariant_check_interval,
    replay,
    replay_access_driven,
    replay_ranges,
)
from repro.core.states import BusPattern
from repro.core.stats import SystemStats
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import LOCK_OPS, Op

__all__ = [
    "DEFAULT_BATCH_REFS",
    "DEFAULT_SIGNATURE_BITS",
    "MODES",
    "batch_signatures",
    "check_batch_knobs",
    "plan_batches",
    "replay_speculative",
    "signatures_conflict",
]

#: Execution modes accepted by the replay entry points and the CLI.
MODES = ("pessimistic", "lazypim")

#: Default batch length, in references across all PEs.
DEFAULT_BATCH_REFS = 256

#: Default signature width in bits (must be a power of two).
DEFAULT_SIGNATURE_BITS = 256


def check_batch_knobs(
    batch_refs: Optional[int], signature_bits: Optional[int]
) -> None:
    """Raise ``ValueError`` unless *batch_refs* is at least 1 and
    *signature_bits* is a power of two of at least 2 (``None`` stands
    for the default and passes)."""
    if batch_refs is not None and batch_refs < 1:
        raise ValueError(f"batch_refs must be >= 1, got {batch_refs}")
    if signature_bits is not None and (
        signature_bits < 2 or signature_bits & (signature_bits - 1)
    ):
        raise ValueError(
            f"signature_bits must be a power of two >= 2, "
            f"got {signature_bits}"
        )


_INVALIDATION = int(BusPattern.INVALIDATION)
_BARRIER_OPS = frozenset(int(op) for op in LOCK_OPS)
_W, _DW = int(Op.W), int(Op.DW)

#: Op code (read as uint8) -> batch barrier / signature writer.
_IS_BARRIER = np.zeros(256, bool)
_IS_BARRIER[sorted(_BARRIER_OPS)] = True
_IS_WRITE = np.zeros(256, bool)
_IS_WRITE[[_W, _DW]] = True


def plan_batches(
    buffer: TraceBuffer,
    batch_refs: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> List[Tuple[int, int, bool]]:
    """Segment ``[start, stop)`` into ``(lo, hi, speculative)`` spans.

    Speculative spans are maximal barrier-free runs chopped at
    ``batch_refs``; every lock operation (and every flagged contended
    reference) becomes its own non-speculative singleton span.  The
    segmentation of a suffix depends only on the suffix itself, so
    replaying ``[start, b)`` and then ``[b, stop)``, with ``b`` one of
    the spans' boundaries, runs the same batches as ``[start, stop)``.
    """
    _, op_col, _, _, flags_col = buffer.columns()
    if stop is None:
        stop = len(buffer)
    segments: List[Tuple[int, int, bool]] = []
    lo = start
    for i in range(start, stop):
        if op_col[i] in _BARRIER_OPS or flags_col[i]:
            for s in range(lo, i, batch_refs):
                segments.append((s, min(s + batch_refs, i), True))
            segments.append((i, i + 1, False))
            lo = i + 1
    for s in range(lo, stop, batch_refs):
        segments.append((s, min(s + batch_refs, stop), True))
    return segments


def batch_signatures(
    buffer: TraceBuffer,
    start: int,
    stop: int,
    n_pes: int,
    block_shift: int,
    signature_bits: int,
) -> Tuple[List[int], List[int]]:
    """Per-PE compressed read/write signatures of ``[start, stop)``.

    One bit per referenced block, hashed by the block number's low
    ``log2(signature_bits)`` bits — the truncation structure that makes
    the false-positive rate monotone in the width.
    """
    mask = signature_bits - 1
    read_sigs = [0] * n_pes
    write_sigs = [0] * n_pes
    pe_col, op_col, _, addr_col, _ = buffer.columns()
    for i in range(start, stop):
        bit = 1 << ((addr_col[i] >> block_shift) & mask)
        op = op_col[i]
        if op == _W or op == _DW:
            write_sigs[pe_col[i]] |= bit
        else:
            read_sigs[pe_col[i]] |= bit
    return read_sigs, write_sigs


def signatures_conflict(
    read_sigs: List[int], write_sigs: List[int]
) -> bool:
    """True when any PE's write signature intersects another PE's
    read-or-write signature — the LazyPIM commit test."""
    for j, wj in enumerate(write_sigs):
        if not wj:
            continue
        for i in range(len(write_sigs)):
            if i != j and wj & (read_sigs[i] | write_sigs[i]):
                return True
    return False


def _plan(
    buffer: TraceBuffer,
    batch_refs: int,
    signature_bits: int,
    block_shift: int,
    start: int,
    stop: int,
) -> Tuple[List[Tuple[int, int, bool]], int]:
    """The speculative driver's spans of ``[start, stop)``, planned in
    one numpy pass.

    Returns ``(spans, rollbacks)``.  ``spans`` lists ``(lo, hi,
    commit)``: every conflict-free batch of :func:`plan_batches` is a
    commit span, and every maximal stretch of the rest — lock and
    flagged singletons, conflicting batches — is one pessimistic span.
    ``rollbacks`` counts the conflicting batches.  A batch conflicts iff
    some signature bit has a writer and at least two distinct accessing
    PEs, which is ``signatures_conflict(*batch_signatures(...))``.
    """
    n = stop - start
    if n <= 0:
        return [], 0
    pe_col, op_col, _, addr_col, flags_col = buffer.columns()
    op = np.frombuffer(op_col, np.uint8)[start:stop]
    flags = np.frombuffer(flags_col, np.int8)[start:stop]
    barrier = _IS_BARRIER[op] | (flags != 0)
    # Batches: every barrier is a singleton, and every barrier-free run,
    # which starts one past the barrier before it, is chopped at
    # batch_refs from its start.  A batch is named by its first index.
    pos = np.arange(n)
    run_start = np.maximum.accumulate(np.where(barrier, pos + 1, 0))
    head = np.where(barrier, pos, pos - (pos - run_start) % batch_refs)
    first = np.empty(n, bool)
    first[0] = True
    np.not_equal(head[1:], head[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    # Verdicts: group the speculative references by (batch, signature
    # bit); a group with a writer and two PEs conflicts its batch.
    spec = ~barrier
    bit = np.frombuffer(addr_col, np.int64)[start:stop][spec] >> block_shift
    if signature_bits <= 1 << 63:
        # (Any wider mask keeps every 64-bit block number distinct.)
        bit &= signature_bits - 1
    width = signature_bits
    if len(heads) * width >= 1 << 62:
        # (batch, bit) keys would overflow: number the used bits densely.
        used, bit = np.unique(bit, return_inverse=True)
        width = len(used)
    key = (np.cumsum(first) - 1)[spec] * width + bit
    order = np.argsort(key)
    key = key[order]
    pe = np.frombuffer(pe_col, np.int8)[start:stop][spec][order]
    write = _IS_WRITE[op[spec][order]]
    group = np.flatnonzero(np.diff(key, prepend=-1))
    shared = (
        np.minimum.reduceat(pe, group) != np.maximum.reduceat(pe, group)
    ) & np.logical_or.reduceat(write, group)
    conflict = np.zeros(len(heads), bool)
    conflict[key[group[shared]] // width] = True
    commit = ~(barrier[heads] | conflict)
    # A span opens at every commit and at the first batch after one.
    opens = commit.copy()
    opens[0] = True
    opens[1:] |= commit[:-1]
    los = heads[opens] + start
    his = np.append(los[1:], stop)
    spans = list(zip(los.tolist(), his.tolist(), commit[opens].tolist()))
    return spans, int(np.count_nonzero(conflict))


class _DeferredBus:
    """Transaction recorder installed as ``system._bus`` during an
    attempt: logs ``(pe, pattern, area, block)`` and charges nothing."""

    __slots__ = ("log", "touched")

    def __init__(self):
        self.log: List[Tuple[int, int, int, int]] = []
        self.touched: set = set()

    def __call__(self, pe, pattern, area, block=-1, req=0, remotes=()):
        self.log.append((pe, pattern, area, block))
        if block >= 0:
            self.touched.add(block)
        return 0


class _DeferredNotes:
    """Residency-note proxy installed as ``system._dir`` during an
    attempt on a directory backend.

    The notes still reach the backend — an entry table frozen for a
    whole batch could lose a ``note_drop``/``note_exclusive`` it needs
    — but every touched block is recorded so the settlement can
    resynchronize its entry from residency (stale masks are possible
    mid-batch because the deferred transactions resolve nothing).
    """

    __slots__ = ("_backend", "_touched")

    def __init__(self, backend, touched):
        self._backend = backend
        self._touched = touched

    def note_drop(self, block: int, pe: int) -> None:
        self._touched.add(block)
        self._backend.note_drop(block, pe)

    def note_exclusive(self, pe: int, block: int) -> None:
        self._touched.add(block)
        self._backend.note_exclusive(pe, block)

    def note_flush(self) -> None:
        self._backend.note_flush()


def _attempt(system, advance, start, stop) -> _DeferredBus:
    """Execute a conflict-free batch through *advance* with coherence
    deferred; returns the recorder holding its transactions and touched
    blocks."""
    recorder = _DeferredBus()
    saved_bus = system._bus
    saved_dir = system._dir
    system._bus = recorder
    if saved_dir is not None:
        system._dir = _DeferredNotes(saved_dir, recorder.touched)
    try:
        advance(start, stop)
    finally:
        system._bus = saved_bus
        system._dir = saved_dir
    return recorder


def _settle(system, recorder: _DeferredBus) -> None:
    """Replay the deferred transactions as the bulk settlement round."""
    stats = system.stats
    transact = system.interconnect.transact
    settled_broadcast = False
    settles = 0
    elided = 0
    for pe, pattern, area, block in recorder.log:
        if pattern == _INVALIDATION and block >= 0:
            # Per-block invalidations coalesce into the batch's one
            # signature broadcast: the first is charged (it *is* the
            # broadcast), the rest ride it.  Block-less invalidation
            # rounds (lock-spin episode charges) are the lock
            # protocol's liveness mechanism and never coalesce.
            if settled_broadcast:
                elided += 1
                continue
            settled_broadcast = True
        transact(pe, pattern, area)
        settles += 1
    stats.signature_settles += settles
    stats.batch_elided_invalidations += elided
    if system._dir is not None:
        _resync(system._dir, recorder.touched)


def _resync(backend, touched) -> None:
    """Resynchronize the directory entries of every touched block from
    cache residency (the backend's own completion rule)."""
    from repro.core.protocol.directory import DirectoryEntry

    entries = backend.entries
    for block in touched:
        state, owner, sharers = backend._residency(block)
        if sharers:
            entry = entries.get(block)
            if entry is None:
                entries[block] = DirectoryEntry(state, owner, sharers)
            else:
                entry.state = state
                entry.owner = owner
                entry.sharers = sharers
                entry.transient = None
        else:
            entries.pop(block, None)


def replay_speculative(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    check_invariants_every: Optional[int] = None,
    system: Optional[PIMCacheSystem] = None,
    batch_refs: int = DEFAULT_BATCH_REFS,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    values: Optional[Callable[[int], int]] = None,
    on_result: Optional[Callable] = None,
    force_speculation: bool = False,
    start: int = 0,
    stop: Optional[int] = None,
) -> SystemStats:
    """Replay references ``[start, stop)`` of *buffer* under
    speculative batch coherence.

    Mirrors :func:`repro.core.replay.replay` (same config/system
    seams, position range and invariant toggle) plus the oracle hooks
    of :func:`~repro.core.replay.replay_access_driven` and the two
    batch knobs.  The range runs as the batches of
    :func:`plan_batches`, so replaying ``[0, b)`` and then ``[b, n)``
    into one system, with ``b`` a batch boundary of ``[0, n)``, equals
    replaying ``[0, n)``.  Each clean batch, and each maximal stretch
    of pessimistic work (see :func:`_plan`), is one advance of one
    kernel session, whose deferred counters fold once, at the end.
    ``batch_refs == 1`` short-circuits to the
    pessimistic path outright — a one-reference batch settles before
    any concurrent conflict can arise, so the degenerate mode *is* the
    per-access protocol and stays bit-identical to it, speculative
    counters at zero.  ``force_speculation=True`` (tests only) runs the
    full defer/settle machinery anyway, which the property suite uses
    to pin deferral + immediate settlement counter-identical to live
    charging.
    """
    check_batch_knobs(batch_refs, signature_bits)
    if system is None:
        if config is None:
            config = SimulationConfig()
        pes = n_pes if n_pes is not None else buffer.n_pes
        system = PIMCacheSystem(config, pes)
    if check_invariants_every is None:
        check_invariants_every = invariant_check_interval()
    if stop is None:
        stop = len(buffer)
    if batch_refs == 1 and not force_speculation:
        if values is not None or on_result is not None:
            return replay_access_driven(
                buffer, system, values=values, on_result=on_result,
                check_invariants_every=check_invariants_every,
                start=start, stop=stop,
            )
        return replay(
            buffer, system=system,
            check_invariants_every=check_invariants_every or 0,
            start=start, stop=stop,
        )
    if not hasattr(system, "_bus"):
        raise TypeError(
            "speculative replay needs a single-bus system (flat, or a "
            "per-cluster shard system); drive a clustered run through "
            "replay_clustered(mode='lazypim') instead"
        )
    stats = system.stats
    every = check_invariants_every
    spans, rollbacks = _plan(
        buffer, batch_refs, signature_bits, system._block_shift, start, stop
    )
    # One kernel session (or per-access loop) for every span.  Its own
    # invariant checks stay off: the directory's entry table is
    # resynchronized at settlement, so checks run between spans.
    with replay_ranges(
        buffer, system, start, stop, check_invariants_every=0,
        values=values, on_result=on_result,
    ) as session:
        session.plan_credits([hi for _, hi, commit in spans if commit])
        for lo, hi, commit in spans:
            if commit:
                recorder = _attempt(system, session.advance, lo, hi)
                # The settlement prices from the PE clocks: bring them
                # up to the batch end first.
                session.credit()
                _settle(system, recorder)
                stats.batch_commits += 1
            else:
                if every:
                    # A merged stretch keeps the invariant period.
                    for cut in range(lo - lo % every + every, hi, every):
                        session.advance(lo, cut)
                        system.check_invariants()
                        lo = cut
                session.advance(lo, hi)
            if every and hi // every > lo // every:
                system.check_invariants()
        session.fold()
    stats.batch_rollbacks += rollbacks
    if every and stop > start:
        system.check_invariants()
    return stats
