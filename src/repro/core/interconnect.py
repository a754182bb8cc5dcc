"""Pluggable interconnects: the snooping bus and a home-node directory.

:class:`~repro.core.system.PIMCacheSystem` delegates every bus-visible
transaction to an :class:`Interconnect` backend through one call,
``transact(pe, pattern, area, block, req, remotes)``.  The first three
arguments are exactly the old ``_bus`` signature (pattern cost, bus
serialization, per-area accounting); the last three describe what the
transaction *means* so a backend that tracks global state per block —
the directory — can resolve it with point-to-point messages instead of
a broadcast.

* :class:`SnoopingBus` is the paper's single broadcast bus, extracted
  verbatim: every transaction serializes on one timeline, costs its
  pattern cycles, and ignores the request semantics (the broadcast
  itself is the resolution).  Bit-identical to the pre-refactor
  controller, which the golden suite pins down.

* :class:`DirectoryInterconnect` resolves each request against a
  home-node :class:`~repro.core.protocol.directory.DirectoryEntry`
  (owner + sharer bitmask) using the table
  :func:`~repro.core.protocol.directory.build_directory_spec` derives
  from the active cache protocol.  Each third-party message the table
  demands — a forward to the owner, a copyback, one invalidation per
  surviving sharer — adds ``hop_cycles`` of *indirection* on top of the
  base pattern cost (charged to the requesting PE and to the shared
  timeline, and attributed to the ``directory_indirection`` ledger
  bucket).  With no sharing the table never issues a third-party
  message, so a single-sharer workload costs exactly what the bus
  charges — the equivalence property ``tests/test_interconnect_property``
  holds every protocol to.

Backends are registered by name (``register_interconnect``) and
selected by ``SimulationConfig.interconnect``; an unknown name raises a
``KeyError`` listing the registered names, mirroring the protocol
registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.protocol.directory import (
    DIR_REQUEST_NAMES,
    DirAction,
    DirState,
    DirectoryEntry,
    DirectorySpec,
    build_directory_spec,
)
from repro.core.states import CacheState

__all__ = [
    "DirectoryInterconnect",
    "DirectoryProtocolError",
    "Interconnect",
    "REQ_CTRL",
    "REQ_GETM",
    "REQ_GETM_NA",
    "REQ_GETS",
    "REQ_GETS_NA",
    "REQ_UPGR",
    "REQ_WT",
    "SnoopingBus",
    "build_interconnect",
    "get_interconnect_factory",
    "interconnect_names",
    "is_interconnect_registered",
    "register_interconnect",
]

#: Request kinds as plain ints (``DirRequest`` values) so the hot
#: handlers pass pre-resolved constants, never enum attribute lookups.
REQ_CTRL = 0
REQ_GETS = 1
REQ_GETS_NA = 2
REQ_GETM = 3
REQ_GETM_NA = 4
REQ_UPGR = 5
REQ_WT = 6

#: Shared empty remote list (the transact default): backends only
#: iterate or measure it.
_NO_REMOTES: Tuple[int, ...] = ()

# Module aliases of every enum member read per transaction (an Enum
# class attribute lookup costs more than an empty call).
_EM, _SM, _EC = CacheState.EM, CacheState.SM, CacheState.EC
_DIR_I, _DIR_S, _DIR_E = DirState.I, DirState.S, DirState.E
_DIR_M, _DIR_O = DirState.M, DirState.O
_FWD_OWNER, _FWD_SHARER = DirAction.FWD_OWNER, DirAction.FWD_SHARER
_OWNER_COPYBACK = DirAction.OWNER_COPYBACK
_INVAL_SHARERS = DirAction.INVAL_SHARERS
_UPDATE_SHARERS = DirAction.UPDATE_SHARERS


class DirectoryProtocolError(AssertionError):
    """The directory table has no row for a request the controller
    issued — a derivation bug the model checker surfaces as a violation."""


class Interconnect:
    """Base interface; backends override :meth:`transact`.

    ``tracks_residency`` marks backends that maintain per-block global
    state and need the residency notes (``note_drop`` and friends); the
    system only wires the note hooks up when it is True, so the bus
    backend pays nothing for them.
    """

    name = "abstract"
    tracks_residency = False

    __slots__ = ("system", "free_at", "_pattern_cost", "_stats", "_pe_cycles")

    def __init__(self, system):
        self.system = system
        #: Shared serialization timeline: the cycle at which the
        #: interconnect next frees up.
        self.free_at = 0
        self._pattern_cost = system._pattern_cost
        self._stats = system.stats
        self._pe_cycles = system._pe_cycles

    def transact(
        self, pe: int, pattern: int, area: int,
        block: int = -1, req: int = REQ_CTRL, remotes=_NO_REMOTES,
    ) -> int:
        raise NotImplementedError

    def check(self) -> None:
        """Assert backend-internal invariants (``check_invariants`` hook)."""

    # Residency notes: no-ops on backends that don't track it.

    def note_drop(self, block: int, pe: int) -> None:
        pass

    def note_exclusive(self, pe: int, block: int) -> None:
        pass

    def note_flush(self) -> None:
        pass


class SnoopingBus(Interconnect):
    """The paper's single broadcast bus (the extracted ``_bus``).

    One global timeline; every transaction costs its pattern cycles and
    the request semantics are ignored — the broadcast resolves
    coherence by construction.
    """

    name = "bus"
    tracks_residency = False

    __slots__ = ()

    def transact(
        self, pe: int, pattern: int, area: int,
        block: int = -1, req: int = REQ_CTRL, remotes=_NO_REMOTES,
    ) -> int:
        """Charge one bus access pattern and advance the PE/bus clocks."""
        cycles = self._pattern_cost[pattern]
        stats = self._stats
        stats.pattern_counts[pattern] += 1
        stats.pattern_cycles[pattern] += cycles
        stats.bus_cycles_by_area[area] += cycles
        pe_cycles = self._pe_cycles
        start = pe_cycles[pe] + 1
        if start < self.free_at:
            stats.bus_wait_cycles += self.free_at - start
            start = self.free_at
        end = start + cycles
        self.free_at = end
        pe_cycles[pe] = end
        return cycles


class DirectoryInterconnect(Interconnect):
    """Home-node directory: sharer bitmasks, owner tracking, transients.

    The point-to-point network still serializes requests on one
    home-node timeline (the paper's memory modules are the natural home
    nodes), but each request that must touch third parties — forward to
    the owner, copy dirty data back, invalidate surviving sharers —
    pays ``hop_cycles`` of indirection per message.  ``hop_cycles``
    reuses ``config.cluster.hop_cycles`` so flat and clustered runs
    price a network hop identically.

    While a transaction is in flight the entry sits in the named
    transient state of its table row and the sharer mask shrinks one
    invalidation at a time; an ``observer`` callback (installed by the
    model checker) sees every micro-step as
    ``observer(step, pe, block, entry, rule)`` with ``step`` in
    ``{"issue", "forward", "copyback", "inval", "update", "complete"}``.
    """

    name = "directory"
    tracks_residency = True

    __slots__ = ("spec", "entries", "hop_cycles", "observer", "_rules")

    def __init__(self, system):
        super().__init__(system)
        self.spec: DirectorySpec = build_directory_spec(system.protocol_spec)
        self._rules = dict(self.spec.rows)
        #: block -> DirectoryEntry, created lazily, dropped when the
        #: last copy dies (an absent entry *is* the I state).
        self.entries: Dict[int, DirectoryEntry] = {}
        self.hop_cycles = system.config.cluster.hop_cycles
        self.observer: Optional[Callable] = None

    # -- the transaction path ------------------------------------------

    def transact(
        self, pe: int, pattern: int, area: int,
        block: int = -1, req: int = REQ_CTRL, remotes=_NO_REMOTES,
    ) -> int:
        stats = self._stats
        cycles = self._pattern_cost[pattern]
        stats.pattern_counts[pattern] += 1
        stats.pattern_cycles[pattern] += cycles
        stats.bus_cycles_by_area[area] += cycles
        stats.directory_transactions += 1
        extra = self._resolve_request(pe, block, req, remotes) if req else 0
        pe_cycles = self._pe_cycles
        start = pe_cycles[pe] + 1
        if start < self.free_at:
            stats.bus_wait_cycles += self.free_at - start
            start = self.free_at
        end = start + cycles + extra
        self.free_at = end
        pe_cycles[pe] = end
        return cycles + extra

    def _resolve_request(self, pe: int, block: int, req: int, remotes) -> int:
        """Walk one table row's actions; returns the indirection cycles."""
        entries = self.entries
        entry = entries.get(block)
        if entry is None:
            entry = DirectoryEntry()
            entries[block] = entry
        rule = self._rules.get((entry.state, req))
        if rule is None:
            raise DirectoryProtocolError(
                f"{self.spec.name}: no directory row for "
                f"({entry.state.name}, {DIR_REQUEST_NAMES[req]}) "
                f"issued by PE{pe} on block {block:#x}"
            )
        entry.transient = rule.transient
        observer = self.observer
        if observer is not None:
            observer("issue", pe, block, entry, rule)
        owner = entry.owner
        forwards = 0
        invals = 0
        supplier_forwarded = False
        for action in rule.actions:
            if action is _FWD_OWNER:
                if owner >= 0 and owner != pe:
                    forwards += 1
                    supplier_forwarded = True
                    if observer is not None:
                        observer("forward", pe, block, entry, rule)
            elif action is _FWD_SHARER:
                forwards += 1
                supplier_forwarded = True
                if observer is not None:
                    observer("forward", pe, block, entry, rule)
            elif action is _OWNER_COPYBACK:
                if owner >= 0 and owner != pe:
                    forwards += 1
                    # The recall also tells the owner its fate, so no
                    # separate invalidation message goes to it.
                    supplier_forwarded = True
                    if observer is not None:
                        observer("copyback", pe, block, entry, rule)
            elif action is _INVAL_SHARERS:
                # One message per surviving remote sharer; the supplier
                # (when one was forwarded to) learns its fate from the
                # forward itself.
                count = len(remotes) - 1 if supplier_forwarded else len(remotes)
                sent = 0
                for target in remotes:
                    if sent >= count:
                        break
                    entry.sharers &= ~(1 << target)
                    sent += 1
                    if observer is not None:
                        observer("inval", pe, block, entry, rule)
                invals += sent
            elif action is _UPDATE_SHARERS:
                invals += len(remotes)
                if observer is not None:
                    for _ in remotes:
                        observer("update", pe, block, entry, rule)
        # Completion: the entry resynchronizes to actual residency (the
        # one source of truth the simulator keeps — the caches), and the
        # transient clears.
        state, new_owner, sharers = self._residency(block)
        entry.state = state
        entry.owner = new_owner
        entry.sharers = sharers
        entry.transient = None
        if observer is not None:
            observer("complete", pe, block, entry, rule)
        if not sharers:
            del entries[block]
        stats = self._stats
        stats.directory_forwards += forwards
        stats.directory_invalidations += invals
        extra = self.hop_cycles * (forwards + invals)
        stats.directory_indirection_cycles += extra
        return extra

    def _residency(self, block: int):
        """(state, owner, sharer mask) recomputed from the caches."""
        system = self.system
        holders = system._holders.get(block)
        if not holders:
            return _DIR_I, -1, 0
        caches = system.caches
        mask = 0
        owner = -1
        state = _DIR_S
        for holder in holders:
            mask |= 1 << holder
            line_state = caches[holder].peek(block).state
            if line_state is _EM:
                state, owner = _DIR_M, holder
            elif line_state is _SM:
                state, owner = _DIR_O, holder
            elif line_state is _EC:
                state, owner = _DIR_E, holder
        return state, owner, mask

    # -- residency notes (bus-free copy movement) ----------------------

    def note_drop(self, block: int, pe: int) -> None:
        """A copy died outside a transaction on this block (eviction,
        purge, consumed ER/RP) — shrink the entry in place."""
        entry = self.entries.get(block)
        if entry is None:
            return
        entry.sharers &= ~(1 << pe)
        if not entry.sharers:
            del self.entries[block]
            return
        if entry.owner == pe:
            # The owner died without a transaction (a purged dirty copy
            # is dead data by the read-once contract): survivors are
            # plain sharers.
            entry.owner = -1
            entry.state = _DIR_S

    def note_exclusive(self, pe: int, block: int) -> None:
        """A DW allocated the block dirty with zero bus traffic."""
        self.entries[block] = DirectoryEntry(_DIR_M, owner=pe, sharers=1 << pe)

    def note_flush(self) -> None:
        self.entries.clear()

    # -- invariants -----------------------------------------------------

    def check(self) -> None:
        """Directory-vs-caches agreement, called by ``check_invariants``.

        Every held block has an entry whose sharer mask matches the
        presence map exactly; stable states agree with the resolved
        residency — except that an E entry may cover a silently
        dirtied (EM) copy, the one transition a home node cannot see.
        """
        system = self.system
        entries = self.entries
        for block in system._holders:
            assert block in entries, (
                f"directory: held block {block:#x} has no entry"
            )
        for block, entry in entries.items():
            assert entry.transient is None, (
                f"directory: block {block:#x} left in transient "
                f"{entry.transient!r} between transactions"
            )
            state, owner, sharers = self._residency(block)
            assert sharers, (
                f"directory: entry for block {block:#x} outlived its copies"
            )
            assert entry.sharers == sharers, (
                f"directory: block {block:#x} sharer mask "
                f"{entry.sharers:#b} != residency {sharers:#b}"
            )
            if entry.state is DirState.E and state is DirState.M:
                # Silent E->M upgrade: invisible to the home node by
                # design; owners must still agree.
                assert entry.owner == owner, (
                    f"directory: block {block:#x} silently dirtied but "
                    f"owner {entry.owner} != residency owner {owner}"
                )
                continue
            assert entry.state is state, (
                f"directory: block {block:#x} entry {entry.state.name} != "
                f"residency {state.name}"
            )
            assert entry.owner == owner, (
                f"directory: block {block:#x} entry owner {entry.owner} "
                f"!= residency owner {owner}"
            )


# ---------------------------------------------------------------------------
# Registry (mirrors repro.core.protocol.registry).

_REGISTRY: Dict[str, Callable] = {}


def register_interconnect(
    name: str, factory: Callable, replace: bool = False
) -> None:
    """Register an interconnect *factory* (``factory(system)``)."""
    if not replace and name in _REGISTRY:
        raise ValueError(f"interconnect {name!r} is already registered")
    _REGISTRY[name] = factory


def get_interconnect_factory(name: str) -> Callable:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown interconnect {name!r}; registered: {known}"
        ) from None


def interconnect_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def is_interconnect_registered(name: str) -> bool:
    return name in _REGISTRY


def build_interconnect(name: str, system) -> Interconnect:
    return get_interconnect_factory(name)(system)


register_interconnect(SnoopingBus.name, SnoopingBus)
register_interconnect(DirectoryInterconnect.name, DirectoryInterconnect)
