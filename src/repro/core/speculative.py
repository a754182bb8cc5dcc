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

from repro.core.config import SimulationConfig
from repro.core.replay import (
    ReplayBlockedError,
    invariant_check_interval,
    replay,
    replay_access_driven,
)
from repro.core.states import BusPattern
from repro.core.stats import SystemStats
from repro.core.system import BLOCKED, PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import LOCK_OPS, Op

__all__ = [
    "DEFAULT_BATCH_REFS",
    "DEFAULT_SIGNATURE_BITS",
    "MODES",
    "SpeculativeDriver",
    "batch_signatures",
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

_INVALIDATION = int(BusPattern.INVALIDATION)
_BARRIER_OPS = frozenset(int(op) for op in LOCK_OPS)
_W, _DW = int(Op.W), int(Op.DW)


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
    chunked (streaming) execution reproduces the monolithic boundaries.
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


class SpeculativeDriver:
    """The batch/commit/rollback state machine over one live system.

    Feed it references (:meth:`feed` accepts any chunking, including one
    call with the whole trace) and :meth:`flush` the tail at the end.
    Complete batches execute as they become available; an incomplete
    barrier-free tail (always shorter than ``batch_refs``) is buffered
    until more references arrive — the seam :mod:`repro.serve.stream`
    uses to checkpoint only at batch-commit points.
    """

    def __init__(
        self,
        system,
        batch_refs: int = DEFAULT_BATCH_REFS,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        values: Optional[Callable[[int], int]] = None,
        on_result: Optional[Callable] = None,
        check_every: Optional[int] = None,
    ):
        if batch_refs < 1:
            raise ValueError(f"batch_refs must be >= 1, got {batch_refs}")
        if signature_bits < 2 or signature_bits & (signature_bits - 1):
            raise ValueError(
                f"signature_bits must be a power of two >= 2, "
                f"got {signature_bits}"
            )
        if not hasattr(system, "_bus"):
            raise TypeError(
                "speculative replay needs a single-bus system (flat, or a "
                "per-cluster shard system); drive a clustered run through "
                "replay_clustered(mode='lazypim') instead"
            )
        self.system = system
        self.batch_refs = batch_refs
        self.signature_bits = signature_bits
        self.values = values
        self.on_result = on_result
        self._check_every = check_every or 0
        self._checked = 0
        self._pending = TraceBuffer(system.n_pes)
        #: Global index of the first pending (not yet executed) reference.
        self._base = 0
        #: References executed (committed or pessimistically replayed).
        self.refs_done = 0
        self._log: List[Tuple[int, int, int, int]] = []
        self._touched: set = set()

    # -- feeding ---------------------------------------------------------

    def feed(self, buffer: TraceBuffer) -> None:
        """Append references and execute every complete batch."""
        if len(buffer):
            self._pending.extend(buffer)
        self._drain(final=False)

    def flush(self) -> SystemStats:
        """Execute the buffered tail as the final (short) batch."""
        self._drain(final=True)
        if self._check_every and self.refs_done:
            self.system.check_invariants()
        return self.system.stats

    def _drain(self, final: bool) -> None:
        pending = self._pending
        n = len(pending)
        _, op_col, _, _, flags_col = pending.columns()
        batch = self.batch_refs
        lo = 0
        for i in range(n):
            if op_col[i] in _BARRIER_OPS or flags_col[i]:
                for s in range(lo, i, batch):
                    self._run_segment(s, min(s + batch, i), True)
                self._run_segment(i, i + 1, False)
                lo = i + 1
        # [lo, n) is a barrier-free tail: full batches run now, the
        # remainder waits for more references (or the final flush).
        s = lo
        while n - s >= batch:
            self._run_segment(s, s + batch, True)
            s += batch
        if final and s < n:
            self._run_segment(s, n, True)
            s = n
        if s:
            self._pending = pending.slice(s, n)
            self._base += s

    # -- one segment -----------------------------------------------------

    def _run_segment(self, start: int, stop: int, speculative: bool) -> None:
        system = self.system
        segment = self._pending.slice(start, stop)
        base = self._base + start
        if not speculative:
            self._drive(segment, base)
        else:
            read_sigs, write_sigs = batch_signatures(
                segment, 0, len(segment), system.n_pes,
                system._block_shift, self.signature_bits,
            )
            if signatures_conflict(read_sigs, write_sigs):
                system.stats.batch_rollbacks += 1
                self._drive(segment, base)
            else:
                self._attempt(segment, base)
                self._settle()
                system.stats.batch_commits += 1
        self.refs_done += stop - start
        if self._check_every:
            due = self.refs_done // self._check_every
            if due > self._checked:
                self._checked = due
                system.check_invariants()

    def _attempt(self, segment: TraceBuffer, base: int) -> None:
        system = self.system
        recorder = _DeferredBus()
        saved_bus = system._bus
        saved_dir = system._dir
        system._bus = recorder
        if saved_dir is not None:
            system._dir = _DeferredNotes(saved_dir, recorder.touched)
        try:
            self._drive(segment, base)
        finally:
            system._bus = saved_bus
            system._dir = saved_dir
        self._log = recorder.log
        self._touched = recorder.touched

    def _drive(self, segment: TraceBuffer, base: int) -> None:
        """Execute a segment through the replay loop.

        With oracle hooks installed the per-access loop runs (global
        indices reconstructed from *base*).  Invariant checking stays
        off inside the segment: the directory's entry table is
        resynchronized at settlement, not before.
        """
        values = self.values
        on_result = self.on_result
        if len(segment) == 1 and values is None and on_result is None:
            # Pessimistic lock singletons (and one-reference batches)
            # skip the kernel machinery: one dispatch, full bookkeeping.
            pe, op, area, addr, flags = segment[0]
            result = self.system.access(pe, op, area, addr, 0, flags)
            if result[0] == BLOCKED:
                raise ReplayBlockedError(base, pe, op, area, addr)
            return
        try:
            if values is None and on_result is None:
                replay(segment, system=self.system, check_invariants_every=0)
                return
            vfn = None
            if values is not None:
                vfn = lambda i, _b=base: values(_b + i)  # noqa: E731
            rfn = None
            if on_result is not None:
                rfn = (
                    lambda i, pe, op, area, addr, result, _b=base:
                    on_result(_b + i, pe, op, area, addr, result)
                )
            replay_access_driven(
                segment, self.system, values=vfn, on_result=rfn
            )
        except ReplayBlockedError as error:
            raise error.at(base) from None

    # -- commit ----------------------------------------------------------

    def _settle(self) -> None:
        """Replay the deferred transactions as the bulk settlement round."""
        system = self.system
        stats = system.stats
        transact = system.interconnect.transact
        settled_broadcast = False
        settles = 0
        elided = 0
        for pe, pattern, area, block in self._log:
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
        self._log = []
        if system._dir is not None:
            self._resync(system._dir)
        self._touched = set()

    def _resync(self, backend) -> None:
        """Resynchronize the directory entries of every touched block
        from cache residency (the backend's own completion rule)."""
        from repro.core.protocol.directory import DirectoryEntry

        entries = backend.entries
        for block in self._touched:
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
) -> SystemStats:
    """Replay *buffer* under speculative batch coherence.

    Mirrors :func:`repro.core.replay.replay` (same config/system
    seams, same invariant toggle) plus the oracle hooks of
    :func:`~repro.core.replay.replay_access_driven` and the two batch
    knobs.  ``batch_refs <= 1`` short-circuits to the pessimistic path
    outright — a one-reference batch settles before any concurrent
    conflict can arise, so the degenerate mode *is* the per-access
    protocol and stays bit-identical to it, speculative counters at
    zero.  ``force_speculation=True`` (tests only) runs the full
    defer/settle machinery anyway, which the property suite uses to pin
    deferral + immediate settlement counter-identical to live charging.
    """
    if system is None:
        if config is None:
            config = SimulationConfig()
        pes = n_pes if n_pes is not None else buffer.n_pes
        system = PIMCacheSystem(config, pes)
    if check_invariants_every is None:
        check_invariants_every = invariant_check_interval()
    if batch_refs <= 1 and not force_speculation:
        if values is not None or on_result is not None:
            return replay_access_driven(
                buffer, system, values=values, on_result=on_result,
                check_invariants_every=check_invariants_every,
            )
        return replay(
            buffer, system=system,
            check_invariants_every=check_invariants_every or 0,
        )
    driver = SpeculativeDriver(
        system,
        batch_refs=batch_refs,
        signature_bits=signature_bits,
        values=values,
        on_result=on_result,
        check_every=check_invariants_every,
    )
    driver.feed(buffer)
    return driver.flush()
