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
  ``__init__``.
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

No operation handler is written here.  Every one — ``R``, ``W`` (its
write-allocate ``FI``, ``S``/``SM`` upgrade and write-through stores),
``DW``, ``ER``/``RP``/``RI``, ``LR``, ``UW``/``U``, and the ``_fill``
they share — is emitted per spec by :mod:`repro.core.protocol.codegen`
from the same templates as the replay kernel's miss path, and bound in
``__init__``; ``tests/test_handler_declarations.py`` keeps hand-written
copies out of this module.  What stays here is the system's state, the
LH check (``_check_locks``), ``flush_all``, the invariants and the
probe layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cache import Cache, CacheLine
from repro.core.config import SimulationConfig
from repro.core.interconnect import build_interconnect
from repro.core.lock_directory import LockDirectory
from repro.core.protocol import codegen, get_protocol
from repro.core.states import DIRTY_STATES, BusPattern, CacheState
from repro.core.stats import SystemStats
from repro.trace.events import Area, Op

#: Sentinel returned by :meth:`PIMCacheSystem.access` when the reference
#: is inhibited by a remote lock and the PE must busy-wait and retry.
BLOCKED = -1

#: Result tuple: (cycles or BLOCKED, annotation flags, read value or None).
AccessResult = Tuple[int, int, Optional[int]]

_EXCLUSIVE = (CacheState.EM, CacheState.EC)

N_OPS = len(Op)
N_AREAS = len(Area)

# A module alias of the enum member the LH check reads: looking a
# member up on its Enum class costs more than an empty call, reading a
# global costs next to nothing.  tests/test_hot_path_enums.py keeps
# member lookups out of the per-reference methods.
_INVALIDATION = BusPattern.INVALIDATION


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
        # The generated handlers (repro.core.protocol.codegen).
        "_read",
        "_write",
        "_direct_write",
        "_exclusive_read",
        "_read_purge",
        "_read_invalidate",
        "_lock_read",
        "_unlock_write",
        "_unlock_plain",
        "_fill",
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
            Cache(config.cache, pe, self._resident, self._pe_bits)
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
        #: The declarative protocol spec this controller's handlers are
        #: compiled from (its store, supplier and FI-copyback tables).
        self.protocol_spec = get_protocol(config.protocol)
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
        for name, handler in codegen.bind_handlers(self).items():
            setattr(self, name, handler)
        # Handler dispatch, indexed ``_op_table[op][area]``.  Demotion of
        # optimized commands the controller does not honour is folded into
        # the table (the plain R/W handler is installed directly), so the
        # hot path never consults ``opts.honours``.  All handlers share the
        # signature ``(pe, sop, area, address, block, value, flags)``.
        # All table cells for one handler are one object: the generated
        # replay kernel classifies cells by handler identity.
        handlers = {
            Op.R: self._read,
            Op.W: self._write,
            Op.LR: self._lock_read,
            Op.UW: self._unlock_write,
            Op.U: self._unlock_plain,
            Op.DW: self._direct_write,
            Op.ER: self._exclusive_read,
            Op.RP: self._read_purge,
            Op.RI: self._read_invalidate,
        }
        demoted = {
            Op.DW: self._write, Op.ER: self._read, Op.RP: self._read,
            Op.RI: self._read,
        }
        honours = config.opts.honours
        self._op_table = [
            [
                handlers[op]
                if op not in demoted or honours(op, area) else demoted[op]
                for area in Area
            ]
            for op in Op
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
        (:mod:`repro.core.protocol.codegen`) inlines cache hits and the
        common misses past the dispatch table, so
        :func:`repro.core.replay.replay` drives a probed system through
        the per-access loop instead, and the probe sees every reference.
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

    def _writeback(self, block: int, line) -> None:
        if self.track_data and line.data is not None:
            base = block << self._block_shift
            for offset, word in enumerate(line.data):
                self.memory[base + offset] = word
        self.stats.memory_busy_cycles += self._mem_cycles

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

    def __repr__(self) -> str:
        return (
            f"PIMCacheSystem(n_pes={self.n_pes}, "
            f"protocol={self.config.protocol!r}, "
            f"cache={self.config.cache.capacity_words} words, "
            f"refs={self.stats.total_refs})"
        )
