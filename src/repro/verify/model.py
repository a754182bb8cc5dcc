"""Exhaustive model checking of a :class:`ProtocolSpec`'s state space.

LOCKE and BedRock pair table-driven protocol specifications with
exhaustive enumeration of the protocol's reachable states; this module
does the same for the specs in :mod:`repro.core.protocol`, using the
*real* controller — :class:`~repro.core.system.PIMCacheSystem` compiled
from the spec under test — as the transition function, so the checker
validates the spec *and* the controller that interprets it.

The configuration is deliberately tiny (2–3 PEs, one block of two words
by default): coherence bugs are local to one block's copies, so a small
universe reaches the interesting states while keeping the closure
enumerable.  From the empty initial state the checker applies every
``(pe, op, word)`` access in breadth-first order, canonicalizes the
resulting system state, and asserts four invariant families on every
state reached:

* **single-writer / multiple-reader** — an EM/EC copy is the only copy;
  at most one dirty (EM/SM) copy per block (plus presence-map
  consistency, which the accelerator structures must keep).
* **data-value** — a read returns the last value written to that word,
  and every valid copy of a *live* word holds it.
* **no dirty copy lost** — the last-written value of a live word
  survives in shared memory or under a dirty copy's copy-back duty.
  Words whose block is consumed by an honoured ``ER``/``RP`` purge are
  architecturally *dead* (the write-once/read-once software contract)
  and move to an "undefined" set: their value checks are vacuous until
  the next write revives them.  A value that disappears on any *other*
  transition — e.g. a supplier row dropping a dirty state without
  copyback — is a violation.
* **lock-directory consistency** — every directory entry is LCK/LWAIT,
  a word is locked by at most one PE, and the bus's locked-word snoop
  map agrees with the per-PE directories in both directions.

With ``interconnect="directory"`` the home-node directory joins the
checked state: its entries (stable state, owner, sharer mask, transient)
are part of every snapshot and canonical key, a
:class:`_TransientWatcher` observer validates every *in-flight*
micro-step of each transaction (the transient is held for the whole
flight, the sharer mask only shrinks, and the completion matches the
table row's predicted next state and owner), and the backend's
entry-vs-residency agreement check runs as its own invariant family
(``directory-agreement`` / ``directory-transient`` /
``directory-table`` violations).

Data values are canonicalized to per-word *freshness* bits (equal to
the last write or not); the handlers never branch on data, so freshness
is a sound abstraction and keeps the state space finite.  Violations
come back as a :class:`Counterexample` holding the breadth-first —
hence minimal-length — access sequence from reset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.config import CacheConfig, OptimizationConfig, SimulationConfig
from repro.core.interconnect import DirectoryProtocolError
from repro.core.protocol import ProtocolSpec, temporarily_register
from repro.core.states import (
    DIRTY_STATES,
    EXCLUSIVE_STATES,
    CacheState,
    LockState,
)
from repro.core.system import BLOCKED, PIMCacheSystem
from repro.trace.events import AREA_BASE, AREA_NAMES, OP_NAMES, Area, Op

from repro.verify.reference import READ_VALUE_OPS, WRITE_OPS

__all__ = [
    "CheckResult",
    "Counterexample",
    "ModelCheckOptions",
    "Violation",
    "broken_demo_spec",
    "check_protocol",
]

#: Default access alphabet: the plain ops, the optimized commands the
#: goal area honours, and the lock triple.  ``RI`` is demoted to R in
#: the goal area, so it adds no transitions there and is left out.
DEFAULT_OPS: Tuple[Op, ...] = (
    Op.R, Op.W, Op.DW, Op.ER, Op.RP, Op.LR, Op.UW, Op.U,
)


@dataclass(frozen=True)
class ModelCheckOptions:
    """Bounds and universe of one model-checking run."""

    n_pes: int = 2
    n_blocks: int = 1
    block_words: int = 2
    #: Storage area of the word universe.  GOAL honours DW/ER/RP, so the
    #: optimized commands run un-demoted there.
    area: Area = Area.GOAL
    ops: Tuple[Op, ...] = DEFAULT_OPS
    #: Abort (reporting ``complete=False``) past this many states.
    max_states: int = 200_000
    #: Interconnect backend the checked system runs on ("bus" or
    #: "directory"); the directory adds its entries and in-flight
    #: transients to the checked state.
    interconnect: str = "bus"

    def words(self) -> Tuple[int, ...]:
        base = AREA_BASE[self.area]
        return tuple(
            base + i for i in range(self.n_blocks * self.block_words)
        )


@dataclass(frozen=True)
class Violation:
    """One broken invariant, in words."""

    invariant: str  #: single-writer | data-value | dirty-loss | presence | lock-directory
    detail: str


@dataclass(frozen=True)
class Counterexample:
    """A minimal-length access sequence from reset to a violation."""

    steps: Tuple[Tuple[int, int, int], ...]  #: (pe, op, address)
    area: int
    violation: Violation
    state: Tuple[str, ...]  #: rendered post-violation system state

    def step_lines(self) -> List[str]:
        area = AREA_NAMES[self.area]
        return [
            f"{i}. PE{pe} {OP_NAMES[op]:<2} {area}[{addr:#x}]"
            for i, (pe, op, addr) in enumerate(self.steps, start=1)
        ]

    def render(self) -> str:
        lines = [f"counterexample ({self.violation.invariant}):"]
        lines += [f"  {line}" for line in self.step_lines()]
        lines.append(f"  violated: {self.violation.detail}")
        lines.append("  state after the final step:")
        lines += [f"    {line}" for line in self.state]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "invariant": self.violation.invariant,
            "detail": self.violation.detail,
            "steps": self.step_lines(),
            "state": list(self.state),
        }


@dataclass
class CheckResult:
    """Outcome of model-checking one protocol spec."""

    protocol: str
    clean: bool
    states: int
    transitions: int
    complete: bool
    options: ModelCheckOptions = field(default_factory=ModelCheckOptions)
    counterexample: Optional[Counterexample] = None

    def render(self) -> str:
        opts = self.options
        bounds = (
            f"{opts.n_pes} PEs, {opts.n_blocks} block(s) x "
            f"{opts.block_words} words, {len(opts.ops)} ops"
            + (
                f", {opts.interconnect} interconnect"
                if opts.interconnect != "bus"
                else ""
            )
        )
        if self.clean:
            suffix = "" if self.complete else (
                f"  [truncated at {opts.max_states} states]"
            )
            return (
                f"{self.protocol}: clean — {self.states} states, "
                f"{self.transitions} transitions ({bounds}){suffix}"
            )
        return (
            f"{self.protocol}: VIOLATION after {self.states} states "
            f"({bounds})\n{self.counterexample.render()}"
        )

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "clean": self.clean,
            "states": self.states,
            "transitions": self.transitions,
            "complete": self.complete,
            "n_pes": self.options.n_pes,
            "n_blocks": self.options.n_blocks,
            "block_words": self.options.block_words,
            "interconnect": self.options.interconnect,
            "ops": [OP_NAMES[op] for op in self.options.ops],
            "counterexample": (
                self.counterexample.as_dict() if self.counterexample else None
            ),
        }


# ---------------------------------------------------------------------------
# System state snapshot / restore / canonicalization.
#
# The checker expands each frontier state by restoring the concrete
# system to the state's snapshot, applying one access, and reading the
# result.  Only architectural + accelerator state is captured; clocks
# and statistics are timing/reporting, not protocol state, and are left
# to drift (the purge detector below diffs counters within one step).

_Snapshot = Tuple


def _directory_state(system: PIMCacheSystem) -> Tuple:
    """Hashable image of the home-node directory (empty for the bus)."""
    interconnect = system.interconnect
    if not interconnect.tracks_residency:
        return ()
    return tuple(sorted(
        (block, int(entry.state), entry.owner, entry.sharers,
         entry.transient)
        for block, entry in interconnect.entries.items()
    ))


def _snapshot(system: PIMCacheSystem) -> _Snapshot:
    caches = []
    for cache in system.caches:
        lines = sorted(
            (line.lru, block, int(line.state), line.area, tuple(line.data))
            for block, line in cache.lines()
        )
        # LRU rank order is preserved positionally; absolute ticks are not
        # architectural.
        caches.append(tuple((b, s, a, d) for _, b, s, a, d in lines))
    return (
        tuple(caches),
        tuple(sorted(system.memory.items())),
        tuple(
            sorted(
                (block, tuple(sorted(entries)))
                for block, entries in system._locked_words.items()
            )
        ),
        tuple(
            tuple(sorted(
                (addr, int(state)) for addr, state in directory.entries.items()
            ))
            for directory in system.lock_directories
        ),
        tuple(sorted(system._waiting.items())),
        _directory_state(system),
    )


def _restore(system: PIMCacheSystem, snap: _Snapshot) -> None:
    caches, memory, locked, directories, waiting, dir_entries = snap
    system._holders.clear()
    for pe, (cache, lines) in enumerate(zip(system.caches, caches)):
        cache.flush()
        for block, state, area, data in lines:
            cache.insert(block, CacheState(state), area, list(data))
            system._holders.setdefault(block, set()).add(pe)
    system.memory = dict(memory)
    system._locked_words = {
        block: [tuple(entry) for entry in entries] for block, entries in locked
    }
    for directory, entries in zip(system.lock_directories, directories):
        directory.entries = {
            addr: LockState(state) for addr, state in entries
        }
    system._waiting = dict(waiting)
    interconnect = system.interconnect
    if interconnect.tracks_residency:
        from repro.core.protocol.directory import DirectoryEntry, DirState

        interconnect.entries = {
            block: DirectoryEntry(DirState(state), owner, sharers, transient)
            for block, state, owner, sharers, transient in dir_entries
        }


def _canonical(
    system: PIMCacheSystem,
    words: Sequence[int],
    last: Dict[int, int],
    undefined: FrozenSet[int],
    block_shift: int,
    block_mask: int,
):
    """Hashable key of the current system state under the freshness
    abstraction (data words collapse to fresh/stale bits)."""
    def fresh(addr: int, value: int) -> int:
        return 1 if value == last.get(addr, 0) else 0

    caches = []
    for cache in system.caches:
        lines = sorted(
            (line.lru, block, int(line.state), line.data)
            for block, line in cache.lines()
        )
        caches.append(tuple(
            (
                block,
                state,
                tuple(
                    fresh((block << block_shift) + offset, word)
                    for offset, word in enumerate(data)
                ),
            )
            for _, block, state, data in lines
        ))
    memory = system.memory
    return (
        tuple(caches),
        tuple(fresh(addr, memory.get(addr, 0)) for addr in words),
        tuple(
            sorted(
                (block, tuple(sorted(entries)))
                for block, entries in system._locked_words.items()
            )
        ),
        tuple(
            tuple(sorted(
                (addr, int(state)) for addr, state in directory.entries.items()
            ))
            for directory in system.lock_directories
        ),
        tuple(sorted(system._waiting.items())),
        tuple(sorted(undefined)),
        _directory_state(system),
    )


def _render_state(
    system: PIMCacheSystem,
    words: Sequence[int],
    last: Dict[int, int],
    undefined: FrozenSet[int],
) -> Tuple[str, ...]:
    lines: List[str] = []
    for pe, cache in enumerate(system.caches):
        entries = [
            f"block {block:#x} {line.state.name} data={list(line.data)}"
            for block, line in sorted(cache.lines())
        ]
        lines.append(f"PE{pe} cache: " + ("; ".join(entries) or "empty"))
    lines.append(
        "memory: "
        + ", ".join(f"{a:#x}={system.memory.get(a, 0)}" for a in words)
    )
    lines.append(
        "last writes: "
        + (", ".join(f"{a:#x}={v}" for a, v in sorted(last.items())) or "none")
    )
    if undefined:
        lines.append(
            "dead (purged) words: "
            + ", ".join(f"{a:#x}" for a in sorted(undefined))
        )
    for pe, directory in enumerate(system.lock_directories):
        if directory.entries:
            held = ", ".join(
                f"{a:#x}:{s.name}" for a, s in sorted(directory.entries.items())
            )
            lines.append(f"PE{pe} locks: {held}")
    if system._waiting:
        lines.append(
            "busy-waiting: "
            + ", ".join(
                f"PE{pe} on block {b:#x}"
                for pe, b in sorted(system._waiting.items())
            )
        )
    dir_entries = _directory_state(system)
    if dir_entries:
        from repro.core.protocol.directory import DirState

        lines.append(
            "home directory: "
            + "; ".join(
                f"block {block:#x} {DirState(state).name} "
                f"owner={owner} sharers={sharers:#b}"
                + (f" transient={transient}" if transient else "")
                for block, state, owner, sharers, transient in dir_entries
            )
        )
    return tuple(lines)


# ---------------------------------------------------------------------------
# Invariant battery.


def _check_state(
    system: PIMCacheSystem,
    words: Sequence[int],
    last: Dict[int, int],
    undefined: set,
    accessed_block: int,
    purged_dirty: bool,
) -> Optional[Violation]:
    """Check every invariant on the current state.

    *undefined* is updated in place: a live word whose value legally
    died this step (an honoured purge of a dirty copy of the accessed
    block) becomes undefined instead of violating.
    """
    shift = system._block_shift
    mask = system._block_mask
    by_block: Dict[int, List[Tuple[int, object]]] = {}
    for pe, cache in enumerate(system.caches):
        for block, line in cache.lines():
            by_block.setdefault(block, []).append((pe, line))

    # -- structure: presence map and SWMR ------------------------------
    for block, copies in by_block.items():
        holders = system._holders.get(block, set())
        pes = {pe for pe, _ in copies}
        if pes != holders:
            return Violation(
                "presence",
                f"block {block:#x}: presence map {sorted(holders)} != "
                f"caches {sorted(pes)}",
            )
        exclusive = [pe for pe, line in copies if line.state in EXCLUSIVE_STATES]
        if exclusive and len(copies) > 1:
            return Violation(
                "single-writer",
                f"block {block:#x}: exclusive copy in PE{exclusive[0]} "
                f"coexists with {len(copies) - 1} other cop"
                f"{'y' if len(copies) == 2 else 'ies'}",
            )
        dirty = [pe for pe, line in copies if line.state in DIRTY_STATES]
        if len(dirty) > 1:
            return Violation(
                "single-writer",
                f"block {block:#x}: multiple dirty copies in PEs {dirty}",
            )
    for block, holders in system._holders.items():
        if not holders:
            return Violation(
                "presence", f"block {block:#x}: empty holder set left behind"
            )
        if block not in by_block:
            return Violation(
                "presence",
                f"block {block:#x}: presence map lists {sorted(holders)}, "
                "caches hold none",
            )

    # -- lock directories ----------------------------------------------
    owners: Dict[int, List[int]] = {}
    for pe, directory in enumerate(system.lock_directories):
        for addr, state in directory.entries.items():
            if state not in (LockState.LCK, LockState.LWAIT):
                return Violation(
                    "lock-directory",
                    f"PE{pe} directory entry {addr:#x} in state {state!r}",
                )
            owners.setdefault(addr, []).append(pe)
            entries = system._locked_words.get(addr >> shift, [])
            if (pe, addr) not in entries:
                return Violation(
                    "lock-directory",
                    f"word {addr:#x}: PE{pe}'s directory holds it but the "
                    "locked-word map has no matching entry",
                )
    for addr, holders_ in owners.items():
        if len(holders_) > 1:
            return Violation(
                "lock-directory",
                f"word {addr:#x} locked by multiple PEs {holders_}",
            )
    for block, entries in system._locked_words.items():
        if not entries:
            return Violation(
                "lock-directory",
                f"block {block:#x}: empty locked-word list left behind",
            )
        if len(entries) != len(set(entries)):
            return Violation(
                "lock-directory",
                f"block {block:#x}: duplicate locked-word entries {entries}",
            )
        for owner, addr in entries:
            if addr >> shift != block:
                return Violation(
                    "lock-directory",
                    f"locked word {addr:#x} filed under block {block:#x}",
                )
            if not system.lock_directories[owner].holds(addr):
                return Violation(
                    "lock-directory",
                    f"word {addr:#x}: locked-word map says PE{owner} holds "
                    "it but its directory has no entry",
                )

    # -- data value and durability --------------------------------------
    memory = system.memory
    for addr in words:
        if addr in undefined:
            continue
        block = addr >> shift
        offset = addr & mask
        expected = last.get(addr, 0)
        copies = by_block.get(block, ())
        stale = [
            (pe, line.data[offset])
            for pe, line in copies
            if line.data[offset] != expected
        ]
        dirty_exists = any(line.state in DIRTY_STATES for _, line in copies)
        memory_ok = memory.get(addr, 0) == expected
        if not stale and (memory_ok or dirty_exists):
            continue
        if purged_dirty and block == accessed_block:
            # The honoured ER/RP consumed the dirty copy: the word's data
            # is dead by the read-once contract, not lost by the protocol.
            undefined.add(addr)
            continue
        if stale:
            pe, value = stale[0]
            return Violation(
                "data-value",
                f"word {addr:#x}: PE{pe}'s copy holds {value}, last write "
                f"was {expected}",
            )
        return Violation(
            "dirty-loss",
            f"word {addr:#x}: shared memory holds {memory.get(addr, 0)}, not "
            f"the last written value {expected}, and no cache copy carries "
            "copy-back duty for it — a dirty copy was dropped without "
            "copyback",
        )
    return None


# ---------------------------------------------------------------------------
# In-flight transient validation (directory interconnect only).


class _TransientWatcher:
    """Observer on a :class:`DirectoryInterconnect`: validates every
    in-flight micro-step of each transaction against its table row.

    Checked per transaction: the entry holds the row's transient name
    for the whole flight, the sharer mask only shrinks while in flight,
    and the completion state/owner match the row's prediction
    (a concrete :class:`DirState`, ``"excl"`` for E-or-M owned by the
    requester, or ``"resid"``/zero-sharers for whatever residency
    resolves to).  Violations are recorded, not raised, so the BFS loop
    can surface them with the minimal counterexample path.
    """

    def __init__(self, interconnect):
        self._interconnect = interconnect
        self.violations: List[str] = []
        self._issued: Optional[tuple] = None

    def take(self) -> Optional[str]:
        if not self.violations:
            return None
        detail = self.violations[0]
        self.violations.clear()
        self._issued = None
        return detail

    def _effective_rule(self, block: int, entry, rule):
        """The row whose predictions the completion must satisfy.

        An entry in E may cover a silently dirtied (EM) line — the one
        transition invisible to the home node; the controller then acts
        per the owned-dirty row, so the M row's predictions apply.  The
        transact fires *after* the handler moved the copies, so the
        tell is any dirty state on the owner's line (the supplier rule
        may already have demoted EM to SM).
        """
        from repro.core.protocol.directory import DirState

        if entry.state is not DirState.E or entry.owner < 0:
            return rule
        interconnect = self._interconnect
        line = interconnect.system.caches[entry.owner].peek(block)
        if line is None or line.state not in DIRTY_STATES:
            return rule
        for (state, req), row in interconnect._rules.items():
            if row is rule and state is DirState.E:
                substitute = interconnect._rules.get((DirState.M, req))
                if substitute is not None:
                    return substitute
        return rule

    def __call__(self, step, pe, block, entry, rule) -> None:
        from repro.core.protocol.directory import (
            NEXT_EXCLUSIVE,
            NEXT_RESIDENT,
            DirState,
        )

        if step == "issue":
            if entry.transient != rule.transient:
                self.violations.append(
                    f"block {block:#x}: entry transient {entry.transient!r} "
                    f"!= row transient {rule.transient!r} at issue"
                )
            self._issued = (
                pe, block, self._effective_rule(block, entry, rule),
                entry.sharers, entry.owner,
            )
            return
        issued = self._issued
        if issued is None or issued[1] != block or issued[0] != pe:
            self.violations.append(
                f"block {block:#x}: {step} micro-step outside the "
                "transaction it belongs to"
            )
            return
        _, _, eff_rule, sharers0, owner0 = issued
        if step != "complete":
            # forward / copyback / inval / update: still in flight.
            if entry.transient != rule.transient:
                self.violations.append(
                    f"block {block:#x}: transient dropped to "
                    f"{entry.transient!r} mid-flight ({step})"
                )
            if entry.sharers & ~sharers0:
                self.violations.append(
                    f"block {block:#x}: sharer mask grew mid-flight "
                    f"({entry.sharers:#b} from {sharers0:#b})"
                )
            return
        self._issued = None
        if entry.transient is not None:
            self.violations.append(
                f"block {block:#x}: transient {entry.transient!r} "
                "survived completion"
            )
        if not entry.sharers:
            # The block died (a consumed GETS_NA/GETM_NA): the entry is
            # about to be deleted, which *is* the I state.
            if eff_rule.next_state not in (DirState.I, NEXT_RESIDENT):
                self.violations.append(
                    f"block {block:#x}: all copies died but the row "
                    f"predicted {eff_rule.next_state!r}"
                )
            return
        predicted = eff_rule.next_state
        if predicted == NEXT_RESIDENT:
            pass
        elif predicted == NEXT_EXCLUSIVE:
            if entry.state not in (DirState.E, DirState.M) or entry.owner != pe:
                self.violations.append(
                    f"block {block:#x}: row predicted exclusive-to-"
                    f"requester, completion is {entry.state.name} "
                    f"owner={entry.owner} (requester PE{pe})"
                )
        elif entry.state is not predicted:
            self.violations.append(
                f"block {block:#x}: row predicted {predicted.name}, "
                f"completion is {entry.state.name}"
            )
        owner_rule = eff_rule.owner
        if owner_rule == "req":
            if entry.owner != pe and predicted != NEXT_RESIDENT:
                self.violations.append(
                    f"block {block:#x}: row assigns ownership to the "
                    f"requester PE{pe}, completion owner={entry.owner}"
                )
        elif owner_rule == "none":
            if entry.owner != -1:
                self.violations.append(
                    f"block {block:#x}: row predicts no owner, "
                    f"completion owner={entry.owner}"
                )
        elif owner_rule == "keep":
            if entry.owner != owner0:
                self.violations.append(
                    f"block {block:#x}: row keeps owner {owner0}, "
                    f"completion owner={entry.owner}"
                )
        # "resid": whatever residency resolved to is the prediction.


# ---------------------------------------------------------------------------
# The breadth-first closure.


def broken_demo_spec(name: str = "pim_broken_demo") -> ProtocolSpec:
    """A deliberately broken pim variant for demos and negative tests.

    Its supplier rule for EM drops the dirty state to S *without*
    copyback — the bug class :class:`ProtocolSpec`'s eager validation
    rejects, injected here by mutating the (plain-dict) supplier table
    after construction, exactly as a buggy hand-edit would.  The model
    checker finds the dirty-loss in two steps: a write, then a remote
    read supplied by the dirty copy.
    """
    import dataclasses

    from repro.core.protocol import get_protocol
    from repro.core.protocol.spec import SupplierRule

    base = get_protocol("pim")
    spec = dataclasses.replace(base, name=name, supplier=dict(base.supplier))
    spec.supplier[CacheState.EM] = SupplierRule(CacheState.S, copyback=False)
    return spec


def check_protocol(
    protocol: Union[str, ProtocolSpec],
    options: Optional[ModelCheckOptions] = None,
) -> CheckResult:
    """Model-check one protocol spec (registered name or spec object).

    Explores the reachable state space breadth-first from the empty
    (all-invalid, all-unlocked) state under every ``(pe, op, word)``
    access of the options' universe, checking the invariant battery on
    each newly reached state.  Returns a :class:`CheckResult`; on a
    violation its counterexample replays the shortest access sequence
    from reset (BFS order makes it minimal in steps).
    """
    opts = options or ModelCheckOptions()
    if isinstance(protocol, ProtocolSpec):
        with temporarily_register(protocol):
            return _check_registered(protocol.name, opts)
    return _check_registered(protocol, opts)


def _check_registered(name: str, opts: ModelCheckOptions) -> CheckResult:
    config = SimulationConfig(
        cache=CacheConfig(
            block_words=opts.block_words,
            n_sets=1,
            associativity=max(1, opts.n_blocks),
        ),
        opts=OptimizationConfig.all(),
        protocol=name,
        track_data=True,
        interconnect=opts.interconnect,
    )
    system = PIMCacheSystem(config, opts.n_pes)
    watcher = None
    if system.interconnect.tracks_residency:
        watcher = _TransientWatcher(system.interconnect)
        system.interconnect.observer = watcher
    words = opts.words()
    area = int(opts.area)
    shift = system._block_shift
    mask = system._block_mask
    steps = [
        (pe, int(op), addr)
        for pe in range(opts.n_pes)
        for op in opts.ops
        for addr in words
    ]
    lock_directories = system.lock_directories
    stats = system.stats
    lr = int(Op.LR)

    root_snap = _snapshot(system)
    root_key = _canonical(system, words, {}, frozenset(), shift, mask)
    # Frontier entries: (snapshot, last-writes, undefined words, next
    # write value, path).  The write counter is monotone along a path so
    # every store writes a fresh value; it is *not* part of the
    # canonical key (freshness bits abstract the values away).
    queue = deque([(root_snap, {}, frozenset(), 0, ())])
    seen = {root_key}
    transitions = 0
    complete = True

    while queue:
        snap, last, undefined, counter, path = queue.popleft()
        for pe, op, addr in steps:
            _restore(system, snap)
            if op == lr and lock_directories[pe].holds(addr):
                # Software never re-locks a lock it already holds; the
                # controller would file a duplicate directory entry.
                continue
            transitions += 1
            value = 0
            next_counter = counter
            if op in WRITE_OPS:
                next_counter += 1
                value = next_counter
            purges_before = stats.purges_dirty
            violation = None
            try:
                cycles, _, read_value = system.access(
                    pe, op, area, addr, value, 0
                )
            except DirectoryProtocolError as exc:
                # The directory table has no row for a request the
                # controller issued — a derivation hole, minimal path
                # attached.
                violation = Violation("directory-table", str(exc))
                cycles, read_value = 0, None
            blocked = cycles == BLOCKED
            new_last = last
            new_undefined = set(undefined)
            if watcher is not None and violation is None:
                detail = watcher.take()
                if detail is not None:
                    violation = Violation("directory-transient", detail)
            if violation is None and not blocked:
                if op in READ_VALUE_OPS and addr not in undefined:
                    expected = last.get(addr, 0)
                    if read_value != expected:
                        violation = Violation(
                            "data-value",
                            f"PE{pe} {OP_NAMES[op]} of {addr:#x} returned "
                            f"{read_value}, last write was {expected}",
                        )
                if op in WRITE_OPS:
                    new_last = dict(last)
                    new_last[addr] = value
                    new_undefined.discard(addr)
            if violation is None:
                violation = _check_state(
                    system,
                    words,
                    new_last,
                    new_undefined,
                    accessed_block=addr >> shift,
                    purged_dirty=stats.purges_dirty > purges_before,
                )
            if violation is None:
                try:
                    system.interconnect.check()
                except AssertionError as exc:
                    violation = Violation("directory-agreement", str(exc))
            if violation is not None:
                steps_taken = path + ((pe, op, addr),)
                return CheckResult(
                    protocol=name,
                    clean=False,
                    states=len(seen),
                    transitions=transitions,
                    complete=False,
                    options=opts,
                    counterexample=Counterexample(
                        steps=steps_taken,
                        area=area,
                        violation=violation,
                        state=_render_state(
                            system, words, new_last, frozenset(new_undefined)
                        ),
                    ),
                )
            frozen_undefined = frozenset(new_undefined)
            key = _canonical(
                system, words, new_last, frozen_undefined, shift, mask
            )
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > opts.max_states:
                complete = False
                queue.clear()
                break
            queue.append((
                _snapshot(system),
                new_last,
                frozen_undefined,
                next_counter,
                path + ((pe, op, addr),),
            ))

    return CheckResult(
        protocol=name,
        clean=True,
        states=len(seen),
        transitions=transitions,
        complete=complete,
        options=opts,
    )
