"""The multi-PE PIM cache system: protocol engine, bus, and lock handling.

:class:`PIMCacheSystem` owns one cache and one lock directory per PE, the
shared memory image, and the common bus.  Its single entry point,
:meth:`PIMCacheSystem.access`, applies one memory operation and returns
the cycles consumed — or :data:`BLOCKED` when the reference hit a lock
held by another PE and the issuing PE must busy-wait (retry later).

Protocol summary (Section 3, DESIGN.md has the full rationale):

* plain read miss → ``F``; served cache-to-cache when possible, with *no*
  copyback of dirty data (the supplier keeps ownership in ``SM``) under
  the PIM protocol, or with an Illinois-style copyback when the active
  :class:`~repro.core.protocol.ProtocolSpec` says so.  All protocol
  variant points — the store table, the supplier table, and the
  FI-copyback policy — are compiled from the registered spec in
  ``__init__``; the handlers below are the protocol-agnostic controller.
* write hit in S/SM → ``I`` broadcast (the cache cannot know whether
  sharers actually exist — that is exactly what EM/EC save); write miss
  → ``FI``.
* ``DW`` on a block-boundary miss allocates without any bus transaction
  at all (or a 5-cycle swap-out-only when the victim is dirty).  The "no
  remote copy" precondition is a software contract; the simulator
  *verifies* it against its presence map and demotes violating DWs to
  plain writes rather than corrupting coherence.
* ``ER``/``RP`` invalidate the supplier on miss service and purge the
  local copy once consumed; purged dirty blocks are dropped — their data
  is dead by the write-once/read-once contract.
* ``RI`` fetches with ``FI`` so the rewrite that follows needs no ``I``.
* ``LR`` hitting an exclusive block locks in zero bus cycles; otherwise
  it rides ``FI``/``I`` with an ``LK`` broadcast.  A bus request touching
  a remotely locked word draws ``LH``, flips the holder's entry to
  ``LWAIT``, and busy-waits for ``UL``; ``U``/``UW`` broadcast ``UL``
  only from ``LWAIT``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cache import Cache, CacheLine
from repro.core.config import SimulationConfig
from repro.core.interconnect import (
    REQ_GETM,
    REQ_GETM_NA,
    REQ_GETS,
    REQ_GETS_NA,
    REQ_UPGR,
    REQ_WT,
    build_interconnect,
)
from repro.core.lock_directory import LockDirectory
from repro.core.protocol import RemoteAction, get_protocol
from repro.core.states import (
    DIRTY_STATES,
    BusCommand,
    BusPattern,
    CacheState,
    LockState,
)
from repro.core.stats import SystemStats
from repro.trace.events import FLAG_LOCK_CONTENDED, Area, Op

#: Sentinel returned by :meth:`PIMCacheSystem.access` when the reference
#: is inhibited by a remote lock and the PE must busy-wait and retry.
BLOCKED = -1

#: Result tuple: (cycles or BLOCKED, annotation flags, read value or None).
AccessResult = Tuple[int, int, Optional[int]]

_EXCLUSIVE = (CacheState.EM, CacheState.EC)

N_OPS = len(Op)
N_AREAS = len(Area)

#: Shared hit result for the no-data-tracking fast path (avoids one tuple
#: allocation per cache hit on the replay hot loop).
_HIT = (1, 0, None)

# Pre-resolved enum members for the miss paths: attribute access on an
# Enum class costs ~130ns per lookup, which adds up at one command and
# one or two pattern lookups per miss.
_F, _FI, _I = BusCommand.F, BusCommand.FI, BusCommand.I
_INVALIDATION = BusPattern.INVALIDATION
_C2C = BusPattern.C2C
_C2C_WITH_SWAP_OUT = BusPattern.C2C_WITH_SWAP_OUT
_SWAP_IN = BusPattern.SWAP_IN
_SWAP_IN_WITH_SWAP_OUT = BusPattern.SWAP_IN_WITH_SWAP_OUT
_EM, _EC, _SM, _S = CacheState.EM, CacheState.EC, CacheState.SM, CacheState.S

#: Shared empty remote-holder list: callers only iterate or truth-test
#: the result, so misses on unshared blocks avoid a list allocation.
_NO_REMOTES: "list[int]" = []


class PIMCacheSystem:
    """Snooping five-state cache system for ``n_pes`` processing elements."""

    __slots__ = (
        "config",
        "n_pes",
        "track_data",
        "caches",
        "_resident",
        "_pe_bits",
        "lock_directories",
        "stats",
        "memory",
        "_holders",
        "_locked_words",
        "_waiting",
        "_block_words",
        "_block_mask",
        "_block_shift",
        "protocol_spec",
        "_supplier_rules",
        "_fi_copyback",
        "_store_silent_next",
        "_store_through",
        "_store_next",
        "_through_promote",
        "_store_remote_update",
        "_store_miss_allocate",
        "_store_miss_state",
        "_all_through",
        "_mem_cycles",
        "_pattern_cost",
        "_op_table",
        "_hits",
        "_pe_cycles",
        "interconnect",
        "_bus",
        "_dir",
        "_probe",
        "_base_op_table",
    )

    def __init__(self, config: SimulationConfig, n_pes: int):
        if n_pes < 1:
            raise ValueError(f"n_pes must be >= 1, got {n_pes}")
        self.config = config
        self.n_pes = n_pes
        self.track_data = config.track_data
        #: The one residency index, ``block << _pe_bits | pe -> line``,
        #: shared by every cache below and probed directly by the
        #: handlers and the generated replay kernel.
        self._pe_bits = (n_pes - 1).bit_length()
        self._resident: Dict[int, CacheLine] = {}
        self.caches = [
            Cache(config.cache, pe, config.track_data, self._resident,
                  self._pe_bits)
            for pe in range(n_pes)
        ]
        self.lock_directories = [
            LockDirectory(pe, config.lock_entries) for pe in range(n_pes)
        ]
        self.stats = SystemStats(n_pes)
        # Aliases of the two per-reference stat arrays, saving one
        # attribute hop on every cache hit (the stats object itself is
        # never replaced, so the aliases cannot go stale).
        self._hits = self.stats.hits
        self._pe_cycles = self.stats.pe_cycles
        #: Shared memory image (word address -> value); populated lazily.
        self.memory: Dict[int, int] = {}
        # --- simulator accelerators (not architectural state) ---
        #: block number -> set of PEs with a valid copy.
        self._holders: Dict[int, set] = {}
        #: block number -> list of (owner PE, locked word address).
        self._locked_words: Dict[int, List[Tuple[int, int]]] = {}
        #: PE -> block it is currently busy-waiting on (for LH dedup).
        self._waiting: Dict[int, int] = {}
        self._block_words = config.cache.block_words
        self._block_mask = self._block_words - 1
        self._block_shift = self._block_words.bit_length() - 1
        #: The declarative protocol spec this controller was compiled
        #: from.  The tables below are flat per-state tuples (indexed by
        #: ``CacheState``) so the hot handlers pay one subscript, never a
        #: registry or spec lookup.
        spec = get_protocol(config.protocol)
        self.protocol_spec = spec
        #: (next supplier state, copyback?) when servicing a remote F.
        self._supplier_rules = spec.supplier_rules()
        #: Dirty data consumed by FI / an RP transfer copies back to memory.
        self._fi_copyback = spec.fetch_inval_copyback
        #: Next state of a silent (zero-bus) store hit, or None where the
        #: store needs the bus.
        self._store_silent_next = spec.silent_store_next()
        store = [spec.store[s] for s in CacheState]
        #: Per-state: this store writes one word through to shared memory.
        self._store_through = tuple(r.through for r in store)
        #: Per-state next state of a bus-visible store hit.
        self._store_next = tuple(
            r.next_state if r.next_state is not None else s
            for s, r in zip(CacheState, store)
        )
        #: Promotion applied by a through-store once remotes are dead.
        self._through_promote = tuple(r.next_state for r in store)
        self._store_remote_update = (
            store[0].remote is RemoteAction.UPDATE
        )
        self._store_miss_allocate = store[0].allocate
        self._store_miss_state = self._store_next[0]
        #: Every store goes through (pure write-through family): _write
        #: short-circuits to _through_store without probing the cache.
        self._all_through = spec.all_through
        self._mem_cycles = config.bus.memory_access_cycles
        self._pattern_cost = [
            config.bus.pattern_cycles(p, self._block_words) for p in BusPattern
        ]
        #: Pluggable interconnect backend (snooping bus or home-node
        #: directory).  ``_bus`` aliases its transact method so the hot
        #: handlers pay one call, no attribute hop; ``_dir`` is the
        #: backend when it tracks residency (directory) else None, so
        #: the bus path never pays the note_* hooks.
        self.interconnect = build_interconnect(config.interconnect, self)
        self._bus = self.interconnect.transact
        self._dir = (
            self.interconnect if self.interconnect.tracks_residency else None
        )
        # Handler dispatch, indexed ``_op_table[op][area]``.  Demotion of
        # optimized commands the controller does not honour is folded into
        # the table (the plain R/W handler is installed directly), so the
        # hot path never consults ``opts.honours``.  All handlers share the
        # signature ``(pe, sop, area, address, block, value, flags)``.
        honours = config.opts.honours
        # Bind each handler exactly once: every ``self._read`` access
        # creates a *new* bound-method object, and the generated replay
        # kernel classifies handlers by identity (``h is read_h``), so
        # all table cells for one handler must share one object.
        read, write = self._read, self._write
        direct_write, exclusive_read = self._direct_write, self._exclusive_read
        read_purge, read_invalidate = self._read_purge, self._read_invalidate
        per_op = {
            Op.R: lambda area: read,
            Op.W: lambda area: write,
            Op.LR: lambda area: self._lock_read,
            Op.UW: lambda area: self._unlock_write,
            Op.U: lambda area: self._unlock_plain,
            Op.DW: lambda area: (direct_write if honours(Op.DW, area) else write),
            Op.ER: lambda area: (
                exclusive_read if honours(Op.ER, area) else read
            ),
            Op.RP: lambda area: (read_purge if honours(Op.RP, area) else read),
            Op.RI: lambda area: (
                read_invalidate if honours(Op.RI, area) else read
            ),
        }
        self._op_table = [
            [per_op[op](area) for area in Area] for op in Op
        ]
        # Observability: the unwrapped table is kept so a probe can be
        # attached (handlers wrapped) and detached (table restored) at
        # will.  With no probe attached the dispatch path is unchanged —
        # the hook layer costs nothing until someone asks to observe.
        self._base_op_table = self._op_table
        self._probe = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def access(
        self, pe: int, op: int, area: int, address: int, value: int = 0, flags: int = 0
    ) -> AccessResult:
        """Apply one memory operation.

        ``flags`` carries the trace's annotations (a contended LR / an
        unlock that had a waiter); pass 0 to detect contention from the
        lock directory alone.  Returns ``(cycles, out_flags,
        read_value)``; ``cycles`` is :data:`BLOCKED` when the PE must
        busy-wait and retry the same reference.
        """
        if not 0 <= op < N_OPS:
            raise ValueError(f"unknown memory operation {op!r}")
        result = self._op_table[op][area](
            pe, op, area, address, address >> self._block_shift, value, flags
        )
        if result[0] != BLOCKED:
            self.stats.refs[area][op] += 1
            if self._waiting:
                self._waiting.pop(pe, None)
        return result

    def is_waiting(self, pe: int) -> bool:
        """Whether *pe* is currently busy-waiting on a lock."""
        return pe in self._waiting

    @property
    def probe(self):
        """The attached observability probe, or None."""
        return self._probe

    def attach_probe(self, probe) -> None:
        """Route every dispatched access through *probe*.

        Each distinct dispatch-table handler is wrapped once with the
        probe's ``before_access``/``after_access`` callbacks (see
        :class:`repro.obs.probe.ProtocolProbe` for the contract); the
        handlers themselves are untouched, so detaching restores the
        exact uninstrumented table and a system that never attaches a
        probe pays nothing.  The generated replay kernel
        (:mod:`repro.core.protocol.codegen`) inlines cache hits past the
        dispatch table, so :func:`repro.core.replay.replay` drives a
        probed system through the per-access loop instead, and the
        probe sees every reference.
        """
        if self._probe is not None:
            raise RuntimeError("a probe is already attached; detach it first")
        probe.attach(self)
        self._probe = probe
        before, after = probe.before_access, probe.after_access
        wrappers: Dict[object, object] = {}

        def wrap(handler):
            wrapped = wrappers.get(handler)
            if wrapped is None:
                def wrapped(
                    pe, sop, area, address, block, value=0, flags=0,
                    _handler=handler,
                ):
                    before(pe, sop, area, address, block)
                    result = _handler(pe, sop, area, address, block, value, flags)
                    after(pe, sop, area, address, block, result)
                    return result

                wrappers[handler] = wrapped
            return wrapped

        self._op_table = [[wrap(h) for h in row] for row in self._base_op_table]

    def detach_probe(self):
        """Remove the probe and restore the uninstrumented dispatch
        table; returns the probe (None if none was attached)."""
        probe = self._probe
        if probe is None:
            return None
        self._op_table = self._base_op_table
        self._probe = None
        probe.detach(self)
        return probe

    def line_state(self, pe: int, address: int) -> CacheState:
        """Protocol state of the block holding *address* in PE's cache."""
        line = self.caches[pe].peek(address >> self._block_shift)
        return line.state if line is not None else CacheState.INV

    def flush_all(self, silent: bool = False) -> int:
        """Invalidate every cache, writing dirty blocks back to memory.

        Used around stop-and-copy garbage collection, which the paper
        excludes from measurement; no bus cycles are charged.  With
        ``silent=True`` the write-backs are skipped entirely (the heap
        has been relocated, so the dirty data is dead) and nothing is
        charged to the memory modules either.  Returns the number of
        dirty blocks written back.
        """
        written = 0
        for cache in self.caches:
            if not silent:
                for block, line in cache.lines():
                    if line.state in DIRTY_STATES:
                        written += 1
                        self._writeback(block, line)
            cache.flush()
        self._holders.clear()
        if self._dir is not None:
            self._dir.note_flush()
        # Locks are architecturally separate from the cache directory, but
        # a flush happens around stop-and-copy GC: the heap has been
        # relocated, so any held lock addresses to the old image are dead.
        # Dropping them here prevents phantom LH-inhibiting entries (and
        # stranded busy-waiters) from outliving the flush.
        self._locked_words.clear()
        self._waiting.clear()
        for directory in self.lock_directories:
            directory.entries.clear()
        return written

    def check_invariants(self) -> None:
        """Raise AssertionError if any coherence invariant is violated.

        Invariants: the residency index holds exactly the caches' lines;
        an EM/EC copy is the only copy; at most one dirty (EM/SM) copy
        per block; the presence map matches the caches; and
        with data tracking, all valid copies agree, and agree with memory
        when no dirty copy exists.
        """
        by_block: Dict[int, List[Tuple[int, CacheState, object]]] = {}
        resident = self._resident
        for pe, cache in enumerate(self.caches):
            for block, line in cache.lines():
                assert resident.get(block << self._pe_bits | pe) is line, (
                    f"block {block:#x}: PE{pe}'s line is not under its "
                    "residency key"
                )
                by_block.setdefault(block, []).append((pe, line.state, line.data))
        assert len(resident) == sum(map(len, by_block.values())), (
            f"residency index holds {len(resident)} lines, the caches "
            f"{sum(map(len, by_block.values()))}"
        )
        for block, copies in by_block.items():
            holders = self._holders.get(block, set())
            pes = {pe for pe, _, _ in copies}
            assert pes == holders, (
                f"block {block:#x}: presence map {holders} != caches {pes}"
            )
            exclusive = [pe for pe, state, _ in copies if state in _EXCLUSIVE]
            if exclusive:
                assert len(copies) == 1, (
                    f"block {block:#x}: exclusive copy in PE{exclusive[0]} "
                    f"coexists with {len(copies) - 1} other copies"
                )
            dirty = [pe for pe, state, _ in copies if state in DIRTY_STATES]
            assert len(dirty) <= 1, (
                f"block {block:#x}: multiple dirty copies in PEs {dirty}"
            )
            if self.track_data:
                first = copies[0][2]
                for pe, _, data in copies[1:]:
                    assert data == first, (
                        f"block {block:#x}: PE{pe} data {data} != {first}"
                    )
                if not dirty:
                    base = block << self._block_shift
                    mem = [self.memory.get(base + i, 0) for i in range(self._block_words)]
                    assert first == mem, (
                        f"block {block:#x}: clean copies {first} != memory {mem}"
                    )
        for block, holders in self._holders.items():
            assert holders, f"block {block:#x}: empty holder set left behind"
            assert block in by_block, (
                f"block {block:#x}: presence map lists {holders}, caches have none"
            )
        # The locked-word map (the bus's LH snoop accelerator) must agree
        # with the per-PE lock directories in both directions.
        for block, entries in self._locked_words.items():
            assert entries, f"block {block:#x}: empty locked-word list left behind"
            for owner, address in entries:
                assert address >> self._block_shift == block, (
                    f"locked word {address:#x} filed under block {block:#x}"
                )
                assert self.lock_directories[owner].holds(address), (
                    f"word {address:#x}: locked-word map says PE{owner} holds "
                    "it, but its lock directory has no entry"
                )
        for pe, directory in enumerate(self.lock_directories):
            for address in directory.entries:
                entries = self._locked_words.get(address >> self._block_shift, [])
                assert (pe, address) in entries, (
                    f"word {address:#x}: PE{pe}'s lock directory holds it, "
                    "but the locked-word map has no matching entry"
                )
        # Backend-specific invariants (the home-node directory checks its
        # entries against actual cache residency; the bus has none).
        self.interconnect.check()

    # ------------------------------------------------------------------
    # Interconnect and bookkeeping helpers
    # ------------------------------------------------------------------

    # ``self._bus`` (bound in __init__ to ``self.interconnect.transact``)
    # charges one bus access pattern and advances the PE/interconnect
    # clocks; the backends live in :mod:`repro.core.interconnect`.

    @property
    def bus_free_at(self) -> int:
        """Cycle at which the shared interconnect next frees up
        (read-only view of the active backend's timeline)."""
        return self.interconnect.free_at

    def _no_bus(self, pe: int) -> int:
        """Advance the PE clock for a bus-free access (cache hit)."""
        self._pe_cycles[pe] += 1
        self.stats.hit_service_cycles += 1
        return 1

    def _copyback_dirty_remotes(self, block: int, remotes: List[int]) -> None:
        """Flush any dirty copy in *remotes* before an invalidation that
        transfers no ownership (a through-store's I broadcast): the dying
        copy's copy-back duty is discharged, not dropped.  Reachable only
        when an optimized command (DW's fetch-free allocation) dirtied a
        block under a through-store protocol — pure through protocols
        never dirty a copy on their own."""
        for other in remotes:
            line = self.caches[other].peek(block)
            if line.state in DIRTY_STATES:
                self.stats.swap_outs += 1
                self._writeback(block, line)

    def _writeback(self, block: int, line) -> None:
        if self.track_data and line.data is not None:
            base = block << self._block_shift
            for offset, word in enumerate(line.data):
                self.memory[base + offset] = word
        self.stats.memory_busy_cycles += self._mem_cycles

    def _memory_read(self, block: int) -> Optional[List[int]]:
        self.stats.swap_ins += 1
        self.stats.memory_busy_cycles += self._mem_cycles
        if not self.track_data:
            return None
        base = block << self._block_shift
        return [self.memory.get(base + i, 0) for i in range(self._block_words)]

    def _drop_holder(self, block: int, pe: int) -> None:
        holders = self._holders.get(block)
        if holders is not None:
            holders.discard(pe)
            if not holders:
                del self._holders[block]
        if self._dir is not None:
            self._dir.note_drop(block, pe)

    def _fill(self, pe: int, block: int, state: CacheState, area: int, data) -> bool:
        """Insert a block, evicting as needed.  Returns True if the victim
        was dirty (a swap-out rides on this bus transaction)."""
        victim = self.caches[pe].insert(block, state, area, data)
        holders = self._holders.get(block)
        if holders is None:
            self._holders[block] = {pe}
        else:
            holders.add(pe)
        if victim is None:
            return False
        victim_block, victim_line = victim
        self._drop_holder(victim_block, pe)
        if victim_line.state in DIRTY_STATES:
            self.stats.swap_outs += 1
            self._writeback(victim_block, victim_line)
            return True
        return False

    def _remote_holders(self, pe: int, block: int) -> "list[int]":
        holders = self._holders.get(block)
        if not holders:
            return _NO_REMOTES
        return [other for other in holders if other != pe]

    def _pick_supplier(self, block: int, remotes: List[int]):
        """Choose the supplying cache for a cache-to-cache transfer,
        preferring the owner (a dirty copy) when one exists."""
        resident = self._resident
        key = block << self._pe_bits
        first_line = None
        for other in remotes:
            # Inlined Cache.peek: one call per remote adds up when every
            # miss is served cache-to-cache.
            line = resident[key | other]
            if line.state in DIRTY_STATES:
                return other, line
            if first_line is None:
                first_line = line
        return remotes[0], first_line

    def _invalidate_remotes(
        self, pe: int, block: int, remotes: Optional[List[int]] = None
    ) -> None:
        """Remove every remote copy of *block*; callers that already
        computed the remote-holder list pass it to avoid a recompute."""
        if remotes is None:
            remotes = self._remote_holders(pe, block)
        if not remotes:
            return
        caches = self.caches
        for other in remotes:
            caches[other].remove(block)
        holders = self._holders.get(block)
        if holders is not None:
            holders.difference_update(remotes)
            if not holders:
                del self._holders[block]

    def _check_locks(self, pe: int, area: int, block: int) -> bool:
        """True when a bus request by *pe* to *block* is inhibited by a
        remote lock (LH response).  Flips the holders' entries to LWAIT
        and charges the aborted bus command once per waiting episode."""
        locked = self._locked_words.get(block)
        if not locked:
            return False
        inhibited = False
        for owner, address in locked:
            if owner != pe:
                inhibited = True
                self.lock_directories[owner].mark_waiting(address)
        if not inhibited:
            return False
        if self._waiting.get(pe) != block:
            self._waiting[pe] = block
            self.stats.lh_responses += 1
            # The aborted request occupied the bus for its address cycle
            # and the LH response; busy-wait itself uses no bus cycles.
            self._bus(pe, _INVALIDATION, area)
        else:
            self.stats.pe_cycles[pe] += 1  # one spin cycle
            self.stats.lock_spin_cycles += 1
        return True

    # ------------------------------------------------------------------
    # Operation handlers.  ``sop`` is the operation as issued by software
    # (before any demotion) so the statistics reflect Table 3's view.
    # All handlers share the dispatch-table signature
    # ``(pe, sop, area, address, block, value, flags)``; the hit paths of
    # ``_read`` and ``_write`` are hand-hoisted (locals instead of
    # repeated attribute chains, ``_no_bus`` inlined) because they carry
    # the bulk of every trace replay.
    # ------------------------------------------------------------------

    def _read(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        # Inlined Cache.lookup (dict probe + LRU touch): this is the
        # single hottest line of a trace replay.
        line = self._resident.get(block << self._pe_bits | pe)
        if line is not None:
            cache = self.caches[pe]
            cache._tick += 1
            line.lru = cache._tick
            self._hits[area][sop] += 1
            self._pe_cycles[pe] += 1
            self.stats.hit_service_cycles += 1
            if self.track_data:
                return (1, 0, line.data[address & self._block_mask])
            return _HIT
        if self._locked_words and self._check_locks(pe, area, block):
            return (BLOCKED, 0, None)
        stats = self.stats
        stats.command_counts[_F] += 1
        remotes = self._remote_holders(pe, block)
        if remotes:
            supplier_pe, supplier = self._pick_supplier(block, remotes)
            data = list(supplier.data) if self.track_data else None
            # The spec's supplier table: what the supplying copy drops to
            # and whether dirty data copies back to memory on the way
            # (the Illinois behaviour; the PIM SM state skips it).
            next_state, copyback = self._supplier_rules[supplier.state]
            if copyback:
                stats.swap_outs += 1
                self._writeback(block, supplier)
            supplier.state = next_state
            stats.c2c_transfers += 1
            victim_dirty = self._fill(pe, block, CacheState.S, area, data)
            pattern = (
                _C2C_WITH_SWAP_OUT if victim_dirty else _C2C
            )
        else:
            data = self._memory_read(block)
            victim_dirty = self._fill(pe, block, CacheState.EC, area, data)
            pattern = (
                _SWAP_IN_WITH_SWAP_OUT
                if victim_dirty
                else _SWAP_IN
            )
        cycles = self._bus(pe, pattern, area, block, REQ_GETS, remotes)
        value = None
        if self.track_data:
            line = self.caches[pe].peek(block)
            value = line.data[address & self._block_mask]
        return (cycles, 0, value)

    def _write(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        if self._all_through:
            # Pure write-through family: no store ever hits silently, so
            # skip the local probe and go straight to the through path.
            return self._through_store(pe, sop, area, address, block, value)
        # Inlined Cache.lookup, as in _read.
        line = self._resident.get(block << self._pe_bits | pe)
        if line is not None:
            cache = self.caches[pe]
            cache._tick += 1
            line.lru = cache._tick
            state = line.state
            next_state = self._store_silent_next[state]
            if next_state is not None:
                # Silent store hit (EM/EC under the copy-back protocols):
                # zero bus cycles, local state per the spec's store table.
                line.state = next_state
                self._hits[area][sop] += 1
                self._pe_cycles[pe] += 1
                self.stats.hit_service_cycles += 1
                if self.track_data:
                    line.data[address & self._block_mask] = value
                return _HIT
            stats = self.stats
            # The block is *perhaps* shared — a bus transaction is
            # mandatory even if no copy actually exists elsewhere.
            if self._locked_words and self._check_locks(pe, area, block):
                return (BLOCKED, 0, None)
            if self._store_through[state]:
                # Through-store hit (write-once in S/SM): one word to
                # shared memory, remotes handled, copy promoted in place.
                stats.hits[area][sop] += 1
                if self.track_data:
                    line.data[address & self._block_mask] = value
                remotes = self._remote_holders(pe, block)
                if self._store_remote_update:
                    if self.track_data:
                        offset = address & self._block_mask
                        for other in remotes:
                            self.caches[other].peek(block).data[offset] = value
                else:
                    self._copyback_dirty_remotes(block, remotes)
                    self._invalidate_remotes(pe, block, remotes)
                if self.track_data:
                    self.memory[address] = value
                promoted = self._through_promote[state]
                if promoted is not None:
                    line.state = promoted
                stats.memory_busy_cycles += self._mem_cycles
                cycles = self._bus(
                    pe, BusPattern.WRITE_THROUGH, area, block, REQ_WT, remotes
                )
                return (cycles, 0, None)
            # Invalidation hit (S/SM under PIM/Illinois): I broadcast.
            stats.hits[area][sop] += 1
            remotes = self._remote_holders(pe, block)
            self._invalidate_remotes(pe, block, remotes)
            line.state = self._store_next[state]
            if self.track_data:
                line.data[address & self._block_mask] = value
            stats.command_counts[_I] += 1
            cycles = self._bus(pe, _INVALIDATION, area, block, REQ_UPGR, remotes)
            return (cycles, 0, None)
        if not self._store_miss_allocate:
            # Miss without write-allocate (write-once): the word goes
            # through; _through_store performs its own lock check.
            return self._through_store(pe, sop, area, address, block, value)
        # Write miss: fetch-on-write via FI.
        if self._locked_words and self._check_locks(pe, area, block):
            return (BLOCKED, 0, None)
        cycles = self._fetch_exclusive(pe, area, block, self._store_miss_state)
        if self.track_data:
            self.caches[pe].peek(block).data[address & self._block_mask] = value
        return (cycles, 0, None)

    def _through_store(
        self, pe: int, sop: int, area: int, address: int, block: int, value: int
    ) -> AccessResult:
        """Write one word through to shared memory over the bus, with no
        write-allocate.  Under an *invalidate* remote action remote
        copies are killed and the sole survivor is promoted per the
        spec's store table; under the *update* action (``write_update``)
        remotes are patched in place (a broadcast write), so blocks are
        never dirtied and sharers persist."""
        if self._locked_words and self._check_locks(pe, area, block):
            return (BLOCKED, 0, None)
        line = self.caches[pe].lookup(block)
        if line is not None:
            self.stats.hits[area][sop] += 1
            if self.track_data:
                line.data[address & self._block_mask] = value
        remotes = self._remote_holders(pe, block)
        if self._store_remote_update:
            for other in remotes:
                if self.track_data:
                    remote = self.caches[other].peek(block)
                    remote.data[address & self._block_mask] = value
        else:
            self._copyback_dirty_remotes(block, remotes)
            self._invalidate_remotes(pe, block, remotes)
            if line is not None:
                # Now the sole copy: apply the spec's promotion (under
                # the built-in through policies S->EC and SM->EM — the
                # write went through, so a clean block stays clean, and
                # a dirty block keeps its copy-back duty for its *other*
                # words).
                promoted = self._through_promote[line.state]
                if promoted is not None:
                    line.state = promoted
        if self.track_data:
            self.memory[address] = value
        self.stats.memory_busy_cycles += self._mem_cycles
        cycles = self._bus(
            pe, BusPattern.WRITE_THROUGH, area, block, REQ_WT, remotes
        )
        return (cycles, 0, None)

    def _fetch_exclusive(
        self, pe: int, area: int, block: int, final_state: Optional[CacheState]
    ) -> int:
        """Issue FI: fetch *block* and invalidate every other copy.

        ``final_state`` of None means "EM if the data was dirty somewhere,
        else EC" (used by LR / RI, whose write may be silent later).
        Returns the bus cycles charged.
        """
        self.stats.command_counts[_FI] += 1
        remotes = self._remote_holders(pe, block)
        if remotes:
            supplier_pe, supplier = self._pick_supplier(block, remotes)
            data = list(supplier.data) if self.track_data else None
            dirty = supplier.state in DIRTY_STATES
            if dirty and self._fi_copyback:
                self.stats.swap_outs += 1
                self._writeback(block, supplier)
                dirty = False
            self._invalidate_remotes(pe, block, remotes)
            self.stats.c2c_transfers += 1
            if final_state is None:
                final_state = CacheState.EM if dirty else CacheState.EC
            elif final_state == CacheState.EC and dirty:
                final_state = CacheState.EM
            victim_dirty = self._fill(pe, block, final_state, area, data)
            pattern = (
                _C2C_WITH_SWAP_OUT if victim_dirty else _C2C
            )
        else:
            data = self._memory_read(block)
            if final_state is None:
                final_state = CacheState.EC
            victim_dirty = self._fill(pe, block, final_state, area, data)
            pattern = (
                _SWAP_IN_WITH_SWAP_OUT
                if victim_dirty
                else _SWAP_IN
            )
        return self._bus(pe, pattern, area, block, REQ_GETM, remotes)

    def _direct_write(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        # Inlined Cache.peek (no LRU touch, matching the original).
        line = self._resident.get(block << self._pe_bits | pe)
        if line is not None:
            # Already resident — an ordinary write hit, demoted to W
            # whether or not the address is a block boundary.  The
            # dominant DW outcome is re-writing a block this PE already
            # owns, so the EM/EC write hit is finished inline rather
            # than paying a second probe inside ``_write``; the
            # shared/write-through cases still take the full path.
            self.stats.dw_demotions += 1
            state = line.state
            next_state = self._store_silent_next[state]
            if next_state is not None:
                cache = self.caches[pe]
                cache._tick += 1
                line.lru = cache._tick
                line.state = next_state
                self._hits[area][sop] += 1
                self._pe_cycles[pe] += 1
                self.stats.hit_service_cycles += 1
                if self.track_data:
                    line.data[address & self._block_mask] = value
                return _HIT
            return self._write(pe, sop, area, address, block, value)
        if (address & self._block_mask) or self._holders.get(block):
            # Demote: either not a block boundary (the controller
            # replaces DW with W) or a remote copy exists, violating the
            # software contract ("no remote copy") — demote rather than
            # break coherence.
            self.stats.dw_demotions += 1
            return self._write(pe, sop, area, address, block, value)
        # Allocate without fetching: zero bus cycles unless a dirty
        # victim must be swapped out (the 5-cycle swap-out-only pattern).
        # The words not yet written are architecturally undefined (the
        # software contract says they will be written before being read);
        # the model gives them the shared-memory contents so that even a
        # contract-violating read stays deterministic.
        self.stats.dw_allocations += 1
        data = None
        if self.track_data:
            base = block << self._block_shift
            data = [self.memory.get(base + i, 0) for i in range(self._block_words)]
        victim_dirty = self._fill(pe, block, CacheState.EM, area, data)
        if self._dir is not None:
            # The only bus-free fill: the home node must still learn of
            # the new exclusive-dirty owner.
            self._dir.note_exclusive(pe, block)
        if self.track_data:
            self.caches[pe].peek(block).data[address & self._block_mask] = value
        if victim_dirty:
            cycles = self._bus(pe, BusPattern.SWAP_OUT_ONLY, area)
            return (cycles, 0, None)
        self.stats.pe_cycles[pe] += 1
        self.stats.hit_service_cycles += 1
        return _HIT

    def _purge(self, pe: int, area: int, block: int, line) -> None:
        """Forcibly drop a local block; a dirty purge is a swap-out avoided."""
        self.caches[pe].remove(block)
        self._drop_holder(block, pe)
        if line.state in DIRTY_STATES:
            self.stats.purges_dirty += 1
        else:
            self.stats.purges_clean += 1

    def _exclusive_read(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        last_word = (address & self._block_mask) == self._block_mask
        # Inlined Cache.lookup, as in _read.
        line = self._resident.get(block << self._pe_bits | pe)
        if line is not None:
            cache = self.caches[pe]
            cache._tick += 1
            line.lru = cache._tick
            # Case (ii): hit on the last word — read, then purge (RP).
            self.stats.hits[area][sop] += 1
            value = line.data[address & self._block_mask] if self.track_data else None
            if last_word:
                self._purge(pe, area, block, line)
            self.stats.pe_cycles[pe] += 1
            self.stats.hit_service_cycles += 1
            return (1, 0, value)
        remotes = self._remote_holders(pe, block)
        if remotes and not last_word:
            # Case (i): read invalidate — cache-to-cache transfer after
            # which the supplier's copy is invalidated.
            if self._locked_words and self._check_locks(pe, area, block):
                return (BLOCKED, 0, None)
            self.stats.supplier_invalidations += 1
            cycles = self._fetch_exclusive(pe, area, block, None)
            value = None
            if self.track_data:
                value = self.caches[pe].peek(block).data[address & self._block_mask]
            return (cycles, 0, value)
        # Case (iii): the controller replaces ER with plain R.
        self.stats.er_demotions += 1
        return self._read(pe, sop, area, address, block)

    def _read_purge(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        line = self.caches[pe].lookup(block)
        if line is not None:
            # Case (i): read, then forcibly purge.
            self.stats.hits[area][sop] += 1
            value = line.data[address & self._block_mask] if self.track_data else None
            self._purge(pe, area, block, line)
            self._no_bus(pe)
            return (1, 0, value)
        if self._locked_words and self._check_locks(pe, area, block):
            return (BLOCKED, 0, None)
        remotes = self._remote_holders(pe, block)
        if remotes:
            # Case (ii): supplier invalidated after the transfer; the
            # fetched block is consumed without being allocated.
            self.stats.command_counts[_FI] += 1
            supplier_pe, supplier = self._pick_supplier(block, remotes)
            data = list(supplier.data) if self.track_data else None
            if supplier.state in DIRTY_STATES:
                if self._fi_copyback:
                    self.stats.swap_outs += 1
                    self._writeback(block, supplier)
                self.stats.purges_dirty += 1
            else:
                self.stats.purges_clean += 1
            self._invalidate_remotes(pe, block, remotes)
            self.stats.supplier_invalidations += 1
            self.stats.c2c_transfers += 1
            cycles = self._bus(pe, _C2C, area, block, REQ_GETM_NA, remotes)
            value = data[address & self._block_mask] if self.track_data else None
            return (cycles, 0, value)
        # Miss with no remote copy: read through shared memory, nothing
        # to purge or allocate.
        self.stats.command_counts[_F] += 1
        data = self._memory_read(block)
        cycles = self._bus(pe, _SWAP_IN, area, block, REQ_GETS_NA)
        value = data[address & self._block_mask] if self.track_data else None
        return (cycles, 0, value)

    def _read_invalidate(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        line = self.caches[pe].lookup(block)
        if line is not None:
            # RI targets data just written by another PE; on a hit it
            # behaves as a plain read.
            self.stats.hits[area][sop] += 1
            self._no_bus(pe)
            value = line.data[address & self._block_mask] if self.track_data else None
            return (1, 0, value)
        if self._locked_words and self._check_locks(pe, area, block):
            return (BLOCKED, 0, None)
        self.stats.ri_exclusive_fetches += 1
        cycles = self._fetch_exclusive(pe, area, block, None)
        value = None
        if self.track_data:
            value = self.caches[pe].peek(block).data[address & self._block_mask]
        return (cycles, 0, value)

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------

    def _register_lock(self, pe: int, address: int, block: int) -> None:
        directory = self.lock_directories[pe]
        overflows_before = directory.overflows
        directory.lock(address)
        self._locked_words.setdefault(block, []).append((pe, address))
        stats = self.stats
        if directory.max_occupancy > stats.lock_dir_max_occupancy:
            stats.lock_dir_max_occupancy = directory.max_occupancy
        stats.lock_dir_overflows += directory.overflows - overflows_before

    def _release_lock(self, pe: int, address: int, block: int) -> None:
        locked = self._locked_words.get(block)
        if locked is not None:
            try:
                locked.remove((pe, address))
            except ValueError:
                pass
            if not locked:
                del self._locked_words[block]

    def _lock_read(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        if self._locked_words and self._check_locks(pe, area, block):
            return (BLOCKED, 0, None)
        out_flags = 0
        if flags & FLAG_LOCK_CONTENDED:
            # Trace replay: re-enact the LH + busy-wait recorded at
            # generation time (replay order serializes the conflict away).
            self.stats.lh_responses += 1
            self._bus(pe, _INVALIDATION, area)
            out_flags = FLAG_LOCK_CONTENDED
        line = self.caches[pe].lookup(block)
        value = None
        if line is not None:
            self.stats.hits[area][sop] += 1
            if self.track_data:
                value = line.data[address & self._block_mask]
            if line.state in _EXCLUSIVE:
                # The whole point of the hardware lock: zero bus cycles.
                self._register_lock(pe, address, block)
                self.stats.lr_no_bus += 1
                self._no_bus(pe)
                return (1, out_flags, value)
            # Shared hit: I + LK to gain exclusivity before locking.
            # A remote SM owner dies in the broadcast without supplying
            # data, so its copy-back duty must transfer to this copy
            # (the copies agree word-for-word): end dirty, not EC.
            remotes = self._remote_holders(pe, block)
            remote_dirty = any(
                self.caches[other].peek(block).state in DIRTY_STATES
                for other in remotes
            )
            self._invalidate_remotes(pe, block, remotes)
            line.state = (
                CacheState.EM
                if remote_dirty or line.state == CacheState.SM
                else CacheState.EC
            )
            self._register_lock(pe, address, block)
            self.stats.lr_bus += 1
            self.stats.command_counts[_I] += 1
            self.stats.command_counts[BusCommand.LK] += 1
            cycles = self._bus(pe, _INVALIDATION, area, block, REQ_UPGR, remotes)
            return (cycles, out_flags, value)
        # Miss: FI + LK.
        self.stats.lr_bus += 1
        self.stats.command_counts[BusCommand.LK] += 1
        cycles = self._fetch_exclusive(pe, area, block, None)
        self._register_lock(pe, address, block)
        if self.track_data:
            value = self.caches[pe].peek(block).data[address & self._block_mask]
        return (cycles, out_flags, value)

    def _unlock_write(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        return self._unlock(pe, sop, area, address, block, True, value, flags)

    def _unlock_plain(
        self, pe: int, sop: int, area: int, address: int, block: int,
        value: int = 0, flags: int = 0,
    ) -> AccessResult:
        return self._unlock(pe, sop, area, address, block, False, value, flags)

    def _unlock(
        self,
        pe: int,
        sop: int,
        area: int,
        address: int,
        block: int,
        write: bool,
        value: int,
        flags: int,
    ) -> AccessResult:
        directory = self.lock_directories[pe]
        prior = directory.state(address)
        if prior == LockState.EMP:
            self.stats.spurious_unlocks += 1
            if write:
                return self._write(pe, sop, area, address, block, value)
            self._no_bus(pe)
            return (1, 0, None)
        total = 0
        if write:
            # The LR acquired the block exclusively, so this is normally a
            # silent write hit; a miss (local eviction since LR) refetches.
            # Perform the write while still holding the lock, so a rare
            # conflict with another lock in the same block can be retried
            # without having dropped our own entry.
            result = self._write(pe, sop, area, address, block, value)
            if result[0] == BLOCKED:
                return result
            total = result[0]
        else:
            self.stats.hits[area][sop] += 1
            total = self._no_bus(pe)
        directory.unlock(address)
        self._release_lock(pe, address, block)
        had_waiter = prior == LockState.LWAIT or bool(flags & FLAG_LOCK_CONTENDED)
        out_flags = 0
        if had_waiter:
            self.stats.unlocks_with_waiter += 1
            self.stats.command_counts[BusCommand.UL] += 1
            total += self._bus(pe, _INVALIDATION, area)
            out_flags = FLAG_LOCK_CONTENDED
            # Busy-waiting PEs will retry; clear their episode markers so
            # the retry performs a fresh (now unobstructed) lock check.
            for waiter, waited_block in list(self._waiting.items()):
                if waited_block == block:
                    del self._waiting[waiter]
        else:
            self.stats.unlocks_no_waiter += 1
        return (total, out_flags, None)

    def __repr__(self) -> str:
        return (
            f"PIMCacheSystem(n_pes={self.n_pes}, "
            f"protocol={self.config.protocol!r}, "
            f"cache={self.config.cache.capacity_words} words, "
            f"refs={self.stats.total_refs})"
        )
