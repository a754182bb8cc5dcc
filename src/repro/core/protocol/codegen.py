"""Compile a :class:`ProtocolSpec` into a replay kernel and its handlers.

This is the production replay loop (:func:`repro.core.replay.replay`
and every segment driver run it).  A per-reference loop over the
system's dispatch table would pay three costs on *every* reference: a
double subscript, a chain of handler-identity tests to recognize the
inlinable hit shapes, and a silent-store table lookup on write hits.
All three are decidable *before* the loop — the first two from the
dispatch table (fixed for the whole replay), the third from the
protocol spec (fixed at registration).  This module therefore emits,
per registered spec, a straight-line Python replay loop with those
decisions already taken:

* every ``(op, area)`` dispatch cell is classified **once** by handler
  identity into a *kind* (plain-read, silent-store, direct-write,
  exclusive-read, read-purge, lock-read, unlock-write, unlock, or
  slow);
* the replayed range is preprocessed (numpy) into two columns: each
  reference's *residency key* — ``block << pe_bits | pe``, the key of
  the system's one residency index (:mod:`repro.core.cache`), or ``-1``
  where the reference must miss — and a ``bytes`` column of its kind.
  The probe runs inside a ``zip(kinds, map(index.get, keys))`` iterator
  at C speed, against the very dict the caches and handlers maintain,
  leaving the loop body only a small-int compare on the kind and the
  LRU stamp per hit;
* the spec's silent-store table is compiled into an ``is``-test chain on
  the line's state (hottest state first) instead of a tuple subscript;
* read-purge hits, and exclusive-read hits on a block's last word, are
  bus-free (read, purge, one cycle); they are classified
  ``KIND_PURGE`` and handled inline instead of paying a handler
  dispatch;
* consecutive read-family references by the same PE to the same block
  are *conflict-free runs*: no other PE intervenes and a read miss
  always allocates, so only the head of the run can change any state
  and the rest are collapsed to no-ops during preprocessing
  (``KIND_DUP``), their hits, cycles and net LRU stamp all folded in
  bulk;
* hit counters are not touched in the loop at all: per-cell and per-PE
  hit totals are counted from the trace columns of the replayed range
  (``np.bincount``), with the (rare) fast-kind references that *fell
  back* to the slow path subtracted out, so a run of conflict-free hits
  is counted in bulk after the fact.

**The miss path.**  The slow path runs the miss shapes that dominate a
full-trace replay inline too, with no handler call:

* a read miss → ``F``, served cache-to-cache following the spec's
  supplier rows (owner first; the rows compiled into ``is`` tests) or
  from memory, with LRU victim choice, swap-out and holder bookkeeping;
* a ``DW`` on a block-boundary miss with no remote copy: allocated with
  no bus transaction, or a ``SWAP_OUT_ONLY`` for a dirty victim;
* an ``LR`` hitting an ``EM``/``EC`` line: locked in zero bus cycles;
* a ``UW`` (silent store hit) or ``U`` whose lock has no waiter.

Their counters go into locals of the session's loop, settled by
:meth:`~KernelSession.fold` as the hit counters are.  A bus transaction
is inlined too while ``system._bus`` is the plain
:meth:`SnoopingBus.transact <repro.core.interconnect.SnoopingBus.transact>`;
any other binding — the directory backend, the speculative recorder —
is called.  Everything else dispatches through the table: the other
misses, a reference to a block with a locked word, a contended lock
flag, and every cell whose handler is wrapped (a
:class:`~repro.cluster.system.ClusterCacheSystem`'s network charge).

**One template, two emissions.**  Each miss shape is written once, as
a template (``_FILL``, ``_READ_MISS``, ``_DW_ALLOC``, ...).  The kernel
emission inlines it into the loop; the handler emission wraps it in the
dispatch-table handler :class:`~repro.core.system.PIMCacheSystem`
installs (``_read``, ``_direct_write``, ``_lock_read``,
``_unlock_write``, ``_unlock_plain``, and the ``_fill`` and
``_pick_supplier`` its hand-written handlers share), which
``access()``, the oracle's data-tracking pass and the model checker
call.  A template marks what differs: ``$counter`` is ``stats.counter``
in a handler and a loop local in the kernel; a line starting ``?``
(data tracking) appears only in the handler; ``@bus``, ``@tick`` and
``@return`` expand to a call, the cache's LRU tick and ``return`` in a
handler, to the inlined transaction, the kernel-wide tick and
``continue`` in the kernel; ``@name args`` includes another template.

The kernel is a **session** over one position range ``[start, stop)``
of a buffer.  :func:`open_session` classifies the dispatch cells and
preprocesses the whole range once and binds the loop's locals once, in
a generator; :meth:`~KernelSession.advance` then replays consecutive
sub-ranges ``[lo, hi)`` of it by resuming the generator, tallying its
fallbacks, purges and miss-path counters in its locals;
:meth:`~KernelSession.fold` settles the deferred counters (PE clocks,
hits, refs, hit service, DW demotions, purges, the miss path's) of
every position advanced since the last fold;
:meth:`~KernelSession.run` is the two in turn, so the system is fully
settled after it; and :meth:`~KernelSession.close` ends the session.
Segment drivers — speculative batches, windows, telemetry chunks — pay
the set-up once per replay instead of once per range, and a plain
replay is a session with one range.  The speculative driver advances
every span but folds once per replay: before each batch settlement it
only credits every PE's deferred hit cycles up to the batch end
(:meth:`~KernelSession.plan_credits` / :meth:`~KernelSession.credit`),
because the settlement reads the clocks and the bus timeline, which
every advance leaves live.
Every position of the range must pass through the session, in order: an
``advance`` that does not continue where the last one stopped raises
instead of mis-crediting clocks.  A blocked reference is
reported by its position in the buffer.  Preprocessing is itself
cached (single slot, :data:`_PREP_CACHE`): the key and kind columns
depend only on the buffer range, the block geometry, the PE count and
the cell classification, all of which are shared across the repeated
replays of a parameter sweep or benchmark, so every session after the
first starts straight at the loop.  Trace code validation (op/area
ranges) happens inside preprocessing, raising the same ``ValueError``
as the per-access loop.

Timing stays bit-exact.  A transaction starts at
``max(pe_clock + 1, bus_free_at)``, so the requester's clock must
include all of its earlier hit cycles *before* its miss is served; the
kernel precomputes a per-PE running count of fast-kind references over
the session's range (``prefix``) and, on each slow reference, credits
the requester's not yet accounted hits into the live clock first.
Only the requester's clock is ever read by a miss, so other PEs'
credits stay deferred until the end of the range.  The bus timeline
(``free_at``) is a loop local, synced into the interconnect around
each dispatch and at the end of each advance.  LRU stamps come from one
kernel-wide counter instead of the per-cache ``_tick`` counters:
replacement only compares stamps within one cache, and a counter
strictly increasing across all touches preserves every within-cache
order.  It is synced into the requester's ``_tick`` around each
dispatch and into every cache at the end of a range.

The kernel keeps no copy of the cache directories: it probes the
residency index the caches themselves write, so every residency change
(fills, evictions, invalidations, purges) is visible to the next
probe, within a range or across them.  The residency notes a directory
backend needs from a bus-free change (an eviction, a DW allocation, an
inline purge) go through ``system._dir`` as the handlers' do, read once
per advance, so a driver may swap ``_bus`` and ``_dir`` between ranges
(the speculative recorder does).  A generated kernel is therefore
bit-identical to the per-access loop under either backend, which the
goldens and the differential oracle check.

Kernels and handlers are emitted as Python source, ``compile()``d when
a system first uses the spec, and cached by spec name
(:func:`get_kernel`, :func:`bind_handlers`).  A session
does not open (:func:`open_session` returns ``None``) for an empty
range or when a (system, trace) pair falls outside the kernel's
envelope (residency keys would exceed :data:`MAX_KEY_BITS`, negative
addresses, out-of-range PEs, data tracking, no caches); the caller then
runs :func:`repro.core.replay.replay_access_driven` instead.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cache import CacheLine
from repro.core.interconnect import SnoopingBus
from repro.core.protocol.directory import DirRequest
from repro.core.states import BusCommand, BusPattern, CacheState, LockState
from repro.trace.events import FLAG_LOCK_CONTENDED, Area, Op

__all__ = [
    "KernelSession",
    "bind_handlers",
    "get_kernel",
    "kernel_source",
    "open_session",
]

N_OPS = len(Op)
N_AREAS = len(Area)
N_CELLS = N_OPS * N_AREAS
N_PATTERNS = len(BusPattern)

#: Reference kinds, one byte per reference.  The loop branches on the
#: kind with threshold compares, so the order is load-bearing: the two
#: plain-hit kinds (R, ER) come first and share one branch, the two
#: silent-store kinds (W, DW) share the next, and fast kinds precede
#: ``KIND_SLOW``, the lock kinds (slow, each with an inline shape) and
#: ``KIND_DUP`` (collapsed run tail), whose keys are ``-1`` so they
#: never reach the hit branches.
(KIND_R, KIND_ER, KIND_W, KIND_DW, KIND_PURGE, KIND_SLOW, KIND_LR, KIND_UW,
 KIND_U, KIND_DUP) = range(10)

#: Residency keys (``block << pe_bits | pe``) wider than this fall
#: outside the kernel's envelope: they would not fit the int64 columns.
MAX_KEY_BITS = 60

#: Silent-store ``is``-test emission order: hottest states first (a
#: store hit on an exclusive-modified block is the common case).
_SILENT_TEST_ORDER = (
    CacheState.EM,
    CacheState.EC,
    CacheState.SM,
    CacheState.S,
)

#: The miss path's deferred counters, in the order the kernel's loop
#: yields them to :meth:`KernelSession.fold`: ``$name`` in a template is
#: the :class:`~repro.core.stats.SystemStats` field ``name`` in a handler
#: and the loop local ``n_name`` in the kernel.  All are sums except
#: ``fetches`` (``command_counts[F]``) and ``lock_dir_max_occupancy``,
#: a maximum.
_DEFERRED = (
    "fetches",
    "swap_ins",
    "swap_outs",
    "memory_busy_cycles",
    "c2c_transfers",
    "dw_allocations",
    "lr_no_bus",
    "hit_service_cycles",
    "lock_dir_overflows",
    "lock_dir_max_occupancy",
    "unlocks_no_waiter",
    "bus_wait_cycles",
    "purges_dirty",
    "purges_clean",
)

_CMD_F = int(BusCommand.F)

#: ``$NAME`` constants, the same in both emissions.
_CONSTANTS = {
    **{f"P_{p.name}": str(int(p)) for p in BusPattern},
    **{f"REQ_{r.name}": str(int(r)) for r in DirRequest},
    **{f"CMD_{c.name}": str(int(c)) for c in BusCommand},
    "CONTENDED": str(FLAG_LOCK_CONTENDED),
}

_HANDLER_NAMES = {
    **{name: f"stats.{name}" for name in _DEFERRED},
    "fetches": f"stats.command_counts[{_CMD_F}]",
    "tick": "cache._tick",
    "data": "data",
    "dir": "system._dir",
    "sets": "caches[pe]._sets",
    "locked": "system._locked_words",
    "sop": "sop",
}

_KERNEL_NAMES = {
    **{name: f"n_{name}" for name in _DEFERRED},
    "tick": "gtick",
    "data": "None",
    "dir": "dir_",
    "sets": "sets_of[pe]",
    "locked": "locked_words",
    "sop": "op",
}

#: Per-system (handlers) or per-session (kernel) bindings, shared by
#: both emissions.  Nothing here is ever replaced on a live system; the
#: bindings a driver or a restore may swap (``_bus``, ``_dir``,
#: ``memory``, ``_locked_words``, ``_waiting``) are read at use.
_BINDINGS = """\
stats = system.stats
caches = system.caches
resident = system._resident
holder_map = system._holders
pe_bits = system._pe_bits
shift = system._block_shift
mask = system._block_mask
block_words = system._block_words
mem_cycles = system._mem_cycles
pe_cycles = system._pe_cycles
hits = system._hits
lock_dirs = system.lock_directories
track_data = system.track_data
set_mask = caches[0]._set_mask
set_shift = caches[0]._set_shift
ways = caches[0].config.associativity
_S, _SM, _EC, _EM = _ST_S, _ST_SM, _ST_EC, _ST_EM
_EMP, _LCK, _LWAIT = _LS_EMP, _LS_LCK, _LS_LWAIT
"""

# ---------------------------------------------------------------------------
# Miss-path templates (see the module docstring for the markup).

#: One LRU touch of ``line``.
_TOUCH = """\
@tick
line.lru = $tick
"""

#: A bus-free hit: one cycle, one hit.
_NO_BUS_HIT = """\
hits[area][$sop] += 1
pe_cycles[pe] += 1
$hit_service_cycles += 1
"""

#: Copy the dirty ``$line`` of ``$block`` back to shared memory.
_WRITEBACK = """\
?if track_data and $line.data is not None:
?    base = $block << shift
?    for offset, word in enumerate($line.data):
?        system.memory[base + offset] = word
$memory_busy_cycles += mem_cycles
"""

#: Drop ``$pe`` from the holders of ``$block`` and tell a directory
#: backend: a copy died outside any transaction on that block.
_DROP_HOLDER = """\
held = holder_map.get($block)
if held is not None:
    held.discard($pe)
    if not held:
        del holder_map[$block]
if $dir is not None:
    $dir.note_drop($block, $pe)
"""

#: Fill ``block`` into ``pe``'s cache in ``$state`` as ``line``: LRU
#: victim choice, the victim's holder entry, residency note and
#: swap-out, then the new line's holder entry.  Sets ``victim_dirty``.
_FILL = """\
bucket = $sets[block & set_mask]
?if block >> set_shift in bucket:
?    raise ValueError(
?        f"PE{pe}: block {block:#x} is already resident; call sites "
?        "must miss before filling"
?    )
victim_dirty = False
if len(bucket) >= ways:
    # The least recently used line (the first of equal stamps).
    victim = min(bucket.values(), key=_lru_of)
    del bucket[victim.tag]
    victim_block = victim.tag << set_shift | block & set_mask
    del resident[victim_block << pe_bits | pe]
    @drop_holder victim_block, pe
    if victim.state is _EM or victim.state is _SM:
        $swap_outs += 1
        @writeback victim, victim_block
        victim_dirty = True
@tick
line = CacheLine(block >> set_shift, $state, area, $tick, $data)
bucket[block >> set_shift] = line
resident[block << pe_bits | pe] = line
held = holder_map.get(block)
if held is None:
    holder_map[block] = {pe}
else:
    held.add(pe)
"""

#: ``@fill`` in a handler: the emitted ``_fill`` (the body above).
_FILL_CALL = """\
victim_dirty = _fill(pe, block, $state, area, data)
?line = resident[block << pe_bits | pe]
"""

#: The supplier of a cache-to-cache transfer among ``remotes`` (``key``
#: is ``block << pe_bits``): the owner (a dirty copy) if there is one,
#: else the first holder.
_SUPPLIER = """\
supplier = first = None
for other in remotes:
    candidate = resident[key | other]
    if candidate.state is _EM or candidate.state is _SM:
        supplier = candidate
        break
    if first is None:
        first = candidate
else:
    supplier = first
"""

#: A read miss: ``F``, served cache-to-cache (no copyback under the
#: PIM supplier rows; Illinois-style where the spec says so) or from
#: memory, filled ``S`` or ``EC``.
_READ_MISS = """\
$fetches += 1
held = holder_map.get(block)
if held:
    remotes = list(held)
    key = block << pe_bits
    @supplier
    ?data = list(supplier.data) if track_data else None
    @supplier_rows
    $c2c_transfers += 1
    state = _S
else:
    remotes = _NO_REMOTES
    $swap_ins += 1
    $memory_busy_cycles += mem_cycles
    ?if track_data:
    ?    base = block << shift
    ?    data = [system.memory.get(base + i, 0) for i in range(block_words)]
    ?else:
    ?    data = None
    state = _EC
@fill state
if remotes:
    pattern = $P_C2C_WITH_SWAP_OUT if victim_dirty else $P_C2C
else:
    pattern = $P_SWAP_IN_WITH_SWAP_OUT if victim_dirty else $P_SWAP_IN
@bus pattern, block, $REQ_GETS, remotes
?value = line.data[address & mask] if track_data else None
@return (cycles, 0, value)
"""

#: A DW allocation (a block-boundary miss, no remote copy): no fetch
#: and no bus transaction unless a dirty victim must be swapped out
#: (``SWAP_OUT_ONLY``).  The words not yet written are architecturally
#: undefined; the model gives them the shared-memory contents so even
#: a contract-violating read stays deterministic.
_DW_ALLOC = """\
$dw_allocations += 1
?if track_data:
?    base = block << shift
?    data = [system.memory.get(base + i, 0) for i in range(block_words)]
?else:
?    data = None
@fill _EM
if $dir is not None:
    # The only bus-free fill: the home node must still learn of the
    # new exclusive-dirty owner.
    $dir.note_exclusive(pe, block)
?if track_data:
?    line.data[address & mask] = value
if victim_dirty:
    @bus $P_SWAP_OUT_ONLY, -1, $REQ_CTRL, _NO_REMOTES
    @return (cycles, 0, None)
pe_cycles[pe] += 1
$hit_service_cycles += 1
@return _HIT
"""

#: Register ``pe``'s lock of ``address`` (in ``block``).
_LOCK = """\
directory = lock_dirs[pe]
entries = directory.entries
entries[address] = _LCK
occupancy = len(entries)
if occupancy > directory.max_occupancy:
    directory.max_occupancy = occupancy
if occupancy > directory.capacity:
    directory.overflows += 1
    $lock_dir_overflows += 1
if directory.max_occupancy > $lock_dir_max_occupancy:
    $lock_dir_max_occupancy = directory.max_occupancy
words = $locked.get(block)
if words is None:
    $locked[block] = [(pe, address)]
else:
    words.append((pe, address))
"""

#: An LR hit on an exclusive line, after its touch and hit count: the
#: whole point of the hardware lock, zero bus cycles.
_LR_EXCLUSIVE = """\
@lock
$lr_no_bus += 1
pe_cycles[pe] += 1
$hit_service_cycles += 1
"""

#: Release ``pe``'s lock of ``address`` from ``entries`` (its lock
#: directory's) and from the locked-word map.
_RELEASE = """\
del entries[address]
words = $locked.get(block)
if words is not None:
    try:
        words.remove((pe, address))
    except ValueError:
        pass
    if not words:
        del $locked[block]
"""

#: The end of an unlock nobody waits for, after its store or hit.
_UNLOCK_DONE = """\
@release
$unlocks_no_waiter += 1
"""

#: The silent store hit on ``line`` (its state in ``st``), spec rows
#: compiled in; emitted only for specs with silent stores.
_SILENT_HIT = """\
st = line.state
if $silent_test:
    @touch
    @silent_store
    @no_bus_hit
    ?if track_data:
    ?    line.data[address & mask] = value
    @return _HIT
"""

#: ``@bus pattern, block, req, remotes`` in the kernel: the plain
#: bus's transact inlined, any other binding called.
_BUS_KERNEL = """\
if inline_bus:
    cycles = cost[$pattern]
    pat_n[$pattern] += 1
    area_cycles[area] += cycles
    t = pe_cycles[pe] + 1
    if t < free_at:
        $bus_wait_cycles += free_at - t
        t = free_at
    free_at = t + cycles
    pe_cycles[pe] = free_at
else:
    ic.free_at = free_at
    bus_fn(pe, $pattern, area, $block, $req, $remotes)
    free_at = ic.free_at
"""

#: The end of every unlock that held its lock: with a waiter (a
#: recorded one, or an LWAIT entry) the UL broadcast, else the shape.
_UNLOCK_TAIL = """\
if prior is _LWAIT or flags & $CONTENDED:
    @release
    stats.unlocks_with_waiter += 1
    stats.command_counts[$CMD_UL] += 1
    total += system._bus(pe, $P_INVALIDATION, area)
    # Busy-waiting PEs will retry; clear their episode markers so the
    # retry performs a fresh (now unobstructed) lock check.
    waiting = system._waiting
    for waiter, waited_block in list(waiting.items()):
        if waited_block == block:
            del waiting[waiter]
    return (total, $CONTENDED, None)
@unlock_done
return (total, 0, None)
"""

#: The kernel's LR shape, past its guards (no contended flag, no locked
#: word in the block, an exclusive line).
_LR_SHAPE = """\
@touch
hits[area][op] += 1
@lr_exclusive
@return
"""

#: The kernel's UW shape, past its guards (the lock held, nobody
#: waiting, the line resident): a silent store hit, then the release.
_UW_SHAPE = """\
st = line.state
if $silent_test:
    @touch
    @silent_store
    @no_bus_hit
    @unlock_done
    @return
"""

#: The kernel's U shape, past its guards (the lock held, nobody
#: waiting).
_U_SHAPE = """\
@no_bus_hit
@unlock_done
@return
"""


#: name -> (parameters, text), or (parameters, handler text, kernel
#: text) where the emissions differ.
_TEMPLATES = {
    "tick": ((), "cache = caches[pe]\ncache._tick += 1", "gtick += 1"),
    "bus": (
        ("pattern", "block", "req", "remotes"),
        "cycles = system._bus(pe, $pattern, area, $block, $req, $remotes)",
        _BUS_KERNEL,
    ),
    "return": (
        ("value",),
        "return $value",
        "if waiting:\n    waiting.pop(pe, None)\ncontinue",
    ),
    "fill": (("state",), _FILL_CALL, _FILL),
    "fill_body": (("state",), _FILL),
    "touch": ((), _TOUCH),
    "no_bus_hit": ((), _NO_BUS_HIT),
    "writeback": (("line", "block"), _WRITEBACK),
    "drop_holder": (("block", "pe"), _DROP_HOLDER),
    "supplier": ((), _SUPPLIER),
    "read_miss": ((), _READ_MISS),
    "dw_alloc": ((), _DW_ALLOC),
    "lock": ((), _LOCK),
    "lr_exclusive": ((), _LR_EXCLUSIVE),
    "release": ((), _RELEASE),
    "unlock_done": ((), _UNLOCK_DONE),
    "unlock_tail": ((), _UNLOCK_TAIL),
}

# ---------------------------------------------------------------------------
# Handler-only text: the branches the kernel leaves to dispatch.

_H_READ = """\
def _read(pe, sop, area, address, block, value=0, flags=0):
    line = resident.get(block << pe_bits | pe)
    if line is not None:
        @touch
        @no_bus_hit
        if track_data:
            return (1, 0, line.data[address & mask])
        return _HIT
    if system._locked_words and system._check_locks(pe, area, block):
        return _BLOCKED
    @read_miss
"""

_H_DIRECT_WRITE = """\
def _direct_write(pe, sop, area, address, block, value=0, flags=0):
    line = resident.get(block << pe_bits | pe)
    if line is not None:
        # Already resident: an ordinary write hit, demoted to W whether
        # or not the address is a block boundary.
        stats.dw_demotions += 1
        @silent_hit
        return system._write(pe, sop, area, address, block, value)
    if address & mask or holder_map.get(block):
        # Demote: not a block boundary (the controller replaces DW with
        # W), or a remote copy exists, violating the software contract
        # ("no remote copy") — demote rather than break coherence.
        stats.dw_demotions += 1
        return system._write(pe, sop, area, address, block, value)
    @dw_alloc
"""

_H_LOCK_READ = """\
def _lock_read(pe, sop, area, address, block, value=0, flags=0):
    if system._locked_words and system._check_locks(pe, area, block):
        return _BLOCKED
    out_flags = 0
    if flags & $CONTENDED:
        # Trace replay: re-enact the LH + busy-wait recorded at
        # generation time (replay order serializes the conflict away).
        stats.lh_responses += 1
        system._bus(pe, $P_INVALIDATION, area)
        out_flags = $CONTENDED
    line = resident.get(block << pe_bits | pe)
    value = None
    if line is not None:
        @touch
        hits[area][sop] += 1
        if track_data:
            value = line.data[address & mask]
        if line.state is _EM or line.state is _EC:
            @lr_exclusive
            return (1, out_flags, value)
        # Shared hit: I + LK to gain exclusivity before locking.  A
        # remote SM owner dies in the broadcast without supplying data,
        # so its copy-back duty moves to this copy (the copies agree
        # word for word): end dirty, not EC.
        remotes = system._remote_holders(pe, block)
        key = block << pe_bits
        remote_dirty = False
        for other in remotes:
            state = resident[key | other].state
            if state is _EM or state is _SM:
                remote_dirty = True
        system._invalidate_remotes(pe, block, remotes)
        line.state = _EM if remote_dirty or line.state is _SM else _EC
        @lock
        stats.lr_bus += 1
        stats.command_counts[$CMD_I] += 1
        stats.command_counts[$CMD_LK] += 1
        cycles = system._bus(
            pe, $P_INVALIDATION, area, block, $REQ_UPGR, remotes
        )
        return (cycles, out_flags, value)
    # Miss: FI + LK.
    stats.lr_bus += 1
    stats.command_counts[$CMD_LK] += 1
    cycles = system._fetch_exclusive(pe, area, block, None)
    @lock
    if track_data:
        value = resident[block << pe_bits | pe].data[address & mask]
    return (cycles, out_flags, value)
"""

_H_UNLOCK_WRITE = """\
def _unlock_write(pe, sop, area, address, block, value=0, flags=0):
    entries = lock_dirs[pe].entries
    prior = entries.get(address, _EMP)
    if prior is _EMP:
        stats.spurious_unlocks += 1
        return system._write(pe, sop, area, address, block, value)
    # The LR acquired the block exclusively, so this is normally a
    # silent store hit; a miss (local eviction since the LR) refetches.
    # The write runs while the lock is still held, so a rare conflict
    # with another lock in the same block can be retried without having
    # dropped this one.
    result = system._write(pe, sop, area, address, block, value)
    if result[0] == -1:
        return result
    total = result[0]
    @unlock_tail
"""

_H_UNLOCK_PLAIN = """\
def _unlock_plain(pe, sop, area, address, block, value=0, flags=0):
    entries = lock_dirs[pe].entries
    prior = entries.get(address, _EMP)
    if prior is _EMP:
        stats.spurious_unlocks += 1
        pe_cycles[pe] += 1
        stats.hit_service_cycles += 1
        return (1, 0, None)
    @no_bus_hit
    total = 1
    @unlock_tail
"""

_H_FILL = """\
def _fill(pe, block, state, area, data):
    \"\"\"Insert block in state, evicting as needed; True when the
    victim was dirty (a swap-out rides on this transaction).\"\"\"
    @fill_body state
    return victim_dirty
"""

_H_PICK_SUPPLIER = """\
def _pick_supplier(block, remotes):
    \"\"\"The supplying line of a cache-to-cache transfer of block.\"\"\"
    key = block << pe_bits
    @supplier
    return supplier
"""

_HANDLERS = (
    ("_read", _H_READ),
    ("_direct_write", _H_DIRECT_WRITE),
    ("_lock_read", _H_LOCK_READ),
    ("_unlock_write", _H_UNLOCK_WRITE),
    ("_unlock_plain", _H_UNLOCK_PLAIN),
    ("_fill", _H_FILL),
    ("_pick_supplier", _H_PICK_SUPPLIER),
)

_NAME = re.compile(r"\$(\w+)")

#: name -> (spec object, compiled namespace); identity-checked so a
#: re-registered or temporarily shadowed spec recompiles.
_CACHE: Dict[str, Tuple[object, dict]] = {}


class _Prep(NamedTuple):
    """A preprocessed range: everything a session needs besides the live
    system, indexed from the range's start."""

    #: Residency key per reference (``-1``: slow kind or run tail).
    keys: List[int]
    #: Kind per reference (``KIND_DUP`` for run tails).
    kinds: bytes
    #: Per-PE running count of fast-kind references before each index.
    prefix: np.ndarray
    #: The whole range's fold tables (see :func:`_range_counts`).
    counts: tuple


#: Single-slot preprocessing cache: ``(buffer, (start, stop), params,
#: payload)``.  Sweeps and benchmarks replay one trace under many
#: configs, so one slot captures the reuse; buffers are append-only, so
#: a range of a buffer never changes once written.  Holding the buffer
#: strongly keeps the cached arrays valid for its lifetime.
_PREP_CACHE: Optional[Tuple[object, Tuple[int, int], tuple, _Prep]] = None


def _fast_refs(buffer, lo, hi, kinds):
    """``(cell, fast, pe)`` of references ``[lo, hi)``: each one's
    dispatch cell, whether its cell is a fast kind, and its PE."""
    pe_col, op_col, area_col, _, _ = buffer.columns()
    cell = (
        np.frombuffer(op_col, np.int8)[lo:hi] * N_AREAS
        + np.frombuffer(area_col, np.int8)[lo:hi]
    )
    fast = (np.array(kinds) < KIND_SLOW)[cell]
    return cell, fast, np.frombuffer(pe_col, np.int8)[lo:hi]


def _range_counts(buffer, lo, hi, kinds, n_pes):
    """The fold tables of references ``[lo, hi)``: ``(cell_refs,
    pe_fast)``, the ``(cell, references)`` pairs of every referenced
    dispatch cell and the ``(pe, fast-kind references)`` pairs of every
    PE with any."""
    cell, fast, pe8 = _fast_refs(buffer, lo, hi, kinds)
    return (
        _nonzero_bins(np.bincount(cell, minlength=N_CELLS)),
        _nonzero_bins(np.bincount(pe8[fast], minlength=n_pes)),
    )


def _nonzero_bins(hist):
    """``(bin, count)`` pairs of every nonzero bin of *hist*."""
    used = np.flatnonzero(hist)
    return tuple(zip(used.tolist(), hist[used].tolist()))


def _preprocess(buffer, start, stop, shift, block_mask, n_pes, pe_bits, kinds):
    """Turn ``buffer[start:stop]`` into per-reference residency keys and
    kinds plus bulk-fold tables, indexed from *start*.

    Returns a :class:`_Prep`, or ``None`` when the trace is outside the
    generated kernel's envelope.  Raises ``ValueError`` for op/area
    codes out of range, as the per-access loop does.  Results are cached
    across calls with the same buffer range and parameters (see
    :data:`_PREP_CACHE`).
    """
    global _PREP_CACHE
    n = stop - start
    params = (shift, block_mask, n_pes, pe_bits, kinds)
    cached = _PREP_CACHE
    if cached is not None and cached[0] is buffer \
            and cached[1] == (start, stop) and cached[2] == params:
        return cached[3]
    pe_col, op_col, area_col, addr_col, _ = buffer.columns()
    pe8 = np.frombuffer(pe_col, np.int8)[start:stop]
    op8 = np.frombuffer(op_col, np.int8)[start:stop]
    area8 = np.frombuffer(area_col, np.int8)[start:stop]
    addr = np.frombuffer(addr_col, np.int64)[start:stop]
    if not (
        0 <= int(op8.min()) <= int(op8.max()) < N_OPS
        and 0 <= int(area8.min()) <= int(area8.max()) < N_AREAS
    ):
        raise ValueError("trace contains an out-of-range op or area code")
    if int(addr.min()) < 0 or int(pe8.min()) < 0 or int(pe8.max()) >= n_pes:
        return None
    blocks = addr >> shift
    if int(blocks.max()).bit_length() + pe_bits > MAX_KEY_BITS:
        return None
    counts = _range_counts(buffer, start, stop, kinds, n_pes)

    cell = op8.astype(np.int64) * N_AREAS + area8
    kind = np.array(kinds, np.uint8)[cell]
    if KIND_ER in kinds:
        # An ER on a block's last word purges after the read; promote it
        # to the purge fast path instead of deciding per reference.
        kind[(kind == KIND_ER) & ((addr & block_mask) == block_mask)] = \
            KIND_PURGE
    key = (blocks << pe_bits) | pe8.astype(np.int64)

    # Per-PE running count of fast-kind references before each index:
    # the slow path credits the requester's deferred hit cycles from
    # this before serving its miss (transactions read the live clock).
    prefix = np.empty(n, np.int64)
    fast64 = (kind < KIND_SLOW).astype(np.int64)
    for p in range(n_pes):
        sel = pe8 == p
        run = np.cumsum(fast64[sel])
        prefix[sel] = run - fast64[sel]

    if n > 1:
        # Conflict-free same-PE runs: a reference with the same key and
        # kind as its predecessor (same PE and block) can only repeat the
        # head's hit outcome, because no other PE intervened and a read
        # miss always allocates — so the tail collapses to KIND_DUP
        # no-ops; its hits, cycles and LRU stamp fold in bulk.  Only the
        # read-family kinds qualify: a store miss may write through
        # without allocating (write-once), and a purge removes the very
        # line its tail would need.
        kind[1:][
            (key[1:] == key[:-1]) & (kind[1:] == kind[:-1])
            & (kind[1:] <= KIND_ER)
        ] = KIND_DUP
    # Slow kinds and run tails must miss: key -1 is never resident.
    key[kind >= KIND_SLOW] = -1
    payload = _Prep(
        keys=key.tolist(),
        kinds=kind.tobytes(),
        prefix=prefix,
        counts=counts,
    )
    _PREP_CACHE = (buffer, (start, stop), params, payload)
    return payload


class KernelSession:
    """A generated kernel prepared over references ``[start, stop)`` of
    one buffer of one system.

    Built by :func:`open_session`, which binds the protocol's generated
    loop (a generator, ``_gen``) to it.  Use it as a context manager,
    or call :meth:`close` when done.
    """

    __slots__ = (
        "system", "_buffer", "_start", "_stop", "_pos", "_folded", "_kinds",
        "_prep", "_table", "_done", "_fast_done", "_fallbacks", "_credits",
        "_credited", "_gen",
    )

    def __init__(self, system, buffer, start, stop, table, kinds, prep):
        n_pes = system.n_pes
        self.system = system
        self._buffer = buffer
        self._start = start
        self._stop = stop
        self._pos = start
        self._folded = start
        self._kinds = kinds
        self._prep = prep
        self._table = table
        # Per PE: fast-kind references before the last folded position,
        # and how many references before the next position are accounted
        # for (credited to the clock, or fallen back to the slow path,
        # which charged its own cycles).
        self._fast_done = [0] * n_pes
        self._done = [0] * n_pes
        # Unfolded fallbacks per dispatch cell (the loop holds the list).
        self._fallbacks = [0] * N_CELLS
        self._credits = None
        self._credited = 0
        self._gen = None

    def __enter__(self) -> "KernelSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the session; it cannot run again.  Idempotent."""
        self._pos = None
        if self._gen is not None:
            self._gen.close()
            self._gen = None

    def _refs(self, lo: int, hi: int) -> Tuple[List[int], bytes]:
        """Claim ``[lo, hi)`` for an advance and return its residency
        keys and kinds.

        Positions must run in order: the per-PE clock credits count the
        fast-kind references *before* each position, so a range that
        does not continue where the last one stopped would mis-credit
        them.  The session counts as failed until the advance completes.
        """
        if lo != self._pos or not lo <= hi <= self._stop:
            raise ValueError(
                f"session over [{self._start}, {self._stop}) cannot run "
                f"[{lo}, {hi}): "
                + ("it is closed or a run failed" if self._pos is None
                   else f"the next position is {self._pos}")
            )
        self._pos = None
        prep = self._prep
        a = lo - self._start
        b = hi - self._start
        if a == 0 and b == len(prep.keys):
            return prep.keys, prep.kinds
        keys = prep.keys[a:b]
        kinds = prep.kinds[a:b]
        if kinds and kinds[0] == KIND_DUP:
            # A collapsed run tail heading the range replays with its
            # real key and kind, so the range stands on its own.
            pe_col, op_col, area_col, addr_col, _ = self._buffer.columns()
            system = self.system
            keys[0] = (
                addr_col[lo] >> system._block_shift << system._pe_bits
                | pe_col[lo]
            )
            kinds = bytes(
                (self._kinds[op_col[lo] * N_AREAS + area_col[lo]],)
            ) + kinds[1:]
        return keys, kinds

    def advance(self, lo: int, hi: int) -> None:
        """Replay references ``[lo, hi)``, continuing where the last
        advance stopped; the counters stay deferred to the fold."""
        keys, kinds = self._refs(lo, hi)
        self._gen.send((lo, hi, keys, kinds))
        self._pos = hi

    def run(self, lo: int, hi: int):
        """Replay references ``[lo, hi)``, continuing where the last
        advance stopped, and fold; returns the stats."""
        self.advance(lo, hi)
        return self.fold()

    def fold(self):
        """Fold the deferred counters of every position advanced since
        the last fold — clocks, hit service, hits, DW demotions, purges,
        refs and the miss path's — and return the stats."""
        lo, hi = self._folded, self._pos
        if (lo, hi) == (self._start, self._stop):
            cell_refs, pe_fast = self._prep.counts
        else:
            cell_refs, pe_fast = _range_counts(
                self._buffer, lo, hi, self._kinds, self.system.n_pes
            )
        system = self.system
        stats = system.stats
        pe_cycles = system._pe_cycles
        fast_done = self._fast_done
        done = self._done
        fb_cells = self._fallbacks
        # Every non-fallback fast-kind reference (dup tails included) is
        # one bus-free cycle; fallbacks charged their own.
        service = -sum(fb_cells)
        for p, count in pe_fast:
            service += count
            fast_done[p] += count
            pe_cycles[p] += fast_done[p] - done[p]
            done[p] = fast_done[p]
        stats.hit_service_cycles += service
        kinds = self._kinds
        hits = system._hits
        refs = stats.refs
        for c, count in cell_refs:
            area = c % N_AREAS
            op = c // N_AREAS
            refs[area][op] += count
            if kinds[c] < KIND_SLOW:
                count -= fb_cells[c]
                if count:
                    hits[area][op] += count
                    if kinds[c] == KIND_DW:
                        stats.dw_demotions += count
        fb_cells[:] = [0] * N_CELLS
        *counts, pattern_counts = self._gen.send(None)
        deferred = dict(zip(_DEFERRED, counts))
        stats.command_counts[_CMD_F] += deferred.pop("fetches")
        top = deferred.pop("lock_dir_max_occupancy")
        if top > stats.lock_dir_max_occupancy:
            stats.lock_dir_max_occupancy = top
        for name, count in deferred.items():
            if count:
                setattr(stats, name, getattr(stats, name) + count)
        cost = system._pattern_cost
        for pattern, count in enumerate(pattern_counts):
            if count:
                stats.pattern_counts[pattern] += count
                stats.pattern_cycles[pattern] += count * cost[pattern]
        self._folded = hi
        return stats

    def plan_credits(self, ends) -> None:
        """Plan the positions :meth:`credit` credits the clocks up to:
        *ends*, ascending, within ``(start, stop]``.

        One numpy pass counts every PE's fast-kind references before
        each end (a ``len(ends)`` x ``n_pes`` table), so a credit costs
        one row, not a pass over its range.
        """
        n_pes = self.system.n_pes
        start = self._start
        _, fast, pe8 = _fast_refs(self._buffer, start, self._stop, self._kinds)
        position = np.flatnonzero(fast)
        # Row r counts the references before ends[r], so a reference
        # lands in the row of the first end past it.
        row = np.searchsorted(np.asarray(ends) - start, position, "right")
        table = np.bincount(
            row * n_pes + pe8[position], minlength=(len(ends) + 1) * n_pes
        ).reshape(-1, n_pes)
        self._credits = np.cumsum(table[:-1], axis=0)
        self._credited = 0

    def credit(self) -> None:
        """Credit every PE's deferred hit cycles up to the next planned
        end (see :meth:`plan_credits`), which the last advance must have
        reached; the rest of the counters stay deferred to the fold."""
        pe_cycles = self.system._pe_cycles
        done = self._done
        for p, before in enumerate(self._credits[self._credited].tolist()):
            if before != done[p]:
                pe_cycles[p] += before - done[p]
                done[p] = before
        self._credited += 1


class _Emitter:
    """Expands templates for one spec into one emission: the handler's
    (``handler=True``) or the kernel's."""

    def __init__(self, spec, handler: bool):
        self.handler = handler
        silent = spec.silent_store_next()
        silent_states = [s for s in _SILENT_TEST_ORDER if silent[s] is not None]
        self.names = {
            **_CONSTANTS,
            **(_HANDLER_NAMES if handler else _KERNEL_NAMES),
            "silent_test": " or ".join(f"st is _{s.name}" for s in silent_states),
        }
        self.templates = {
            **_TEMPLATES,
            "supplier_rows": ((), _supplier_rows(spec)),
            "silent_store": ((), _silent_store(spec)),
            "silent_hit": ((), _SILENT_HIT if silent_states else ""),
        }

    def emit(self, text: str, indent: int) -> str:
        return "\n".join(self._lines(text, " " * indent, {}))

    def _lines(self, text, pad, args):
        def name(match):
            key = match.group(1)
            return args[key] if key in args else self.names[key]

        for raw in text.splitlines():
            body = raw.lstrip(" ")
            lead = pad + raw[: len(raw) - len(body)]
            if body.startswith("?"):
                if not self.handler:
                    continue
                body = body[1:]
                stripped = body.lstrip(" ")
                lead += body[: len(body) - len(stripped)]
                body = stripped
            body = _NAME.sub(name, body)
            if not body.startswith("@"):
                yield lead + body if body else ""
                continue
            macro, _, rest = body[1:].partition(" ")
            params, *texts = self.templates[macro]
            text = texts[0] if self.handler or len(texts) == 1 else texts[1]
            if len(params) == 1:
                values = [rest] if rest else []
            else:
                values = [v.strip() for v in rest.split(",")] if rest else []
            yield from self._lines(text, lead, dict(zip(params, values)))


def _supplier_rows(spec) -> str:
    """The spec's supplier table as ``is`` tests on the supplying line:
    the state it drops to, and a copyback where the row says so.  Rows
    that change nothing emit nothing."""
    rules = spec.supplier_rules()
    lines = []
    for state in _SILENT_TEST_ORDER:
        next_state, copyback = rules[state]
        if next_state is state and not copyback:
            continue
        lines.append(f"{'elif' if lines else 'if'} st is _{state.name}:")
        if copyback:
            lines.append("    $swap_outs += 1")
            lines.append("    @writeback supplier, block")
        if next_state is not state:
            lines.append(f"    supplier.state = _{next_state.name}")
    if not lines:
        return ""
    return "\n".join(["st = supplier.state"] + lines)


def _silent_store(spec) -> str:
    """The state change of a silent store hit on ``line`` (its state in
    ``st``), one ``is`` test per state the store changes."""
    silent = spec.silent_store_next()
    lines = []
    for state in _SILENT_TEST_ORDER:
        next_state = silent[state]
        if next_state is None or next_state is state:
            continue
        lines.append(f"{'elif' if lines else 'if'} st is _{state.name}:")
        lines.append(f"    line.state = _{next_state.name}")
    return "\n".join(lines)


def _silent_store_chain(spec) -> str:
    """The compiled silent-store hit path: one ``is`` test per silent
    state, state update only when the state actually changes."""
    silent = spec.silent_store_next()
    lines = []
    for state in _SILENT_TEST_ORDER:
        next_state = silent[state]
        if next_state is None:
            continue
        lines.append(f"                if st is _{state.name}:")
        if next_state is not state:
            lines.append(
                f"                    line.state = _{next_state.name}"
            )
        lines.append("                    gtick += 1")
        lines.append("                    line.lru = gtick")
        lines.append("                    continue")
    return "\n".join(lines)


def _indent(text: str, indent: int) -> str:
    pad = " " * indent
    return "\n".join(pad + line if line else "" for line in text.splitlines())


def kernel_source(spec) -> str:
    """Emit the generated source for *spec*: the replay kernel
    (``_open``, ``_loop``, ``_kernel``) and the dispatch-table handlers
    (``_bind``), both expanded from the one set of miss-path templates
    (see module docstring)."""
    handler = _Emitter(spec, handler=True)
    kernel = _Emitter(spec, handler=False)
    silent = spec.has_silent_stores
    if silent:
        classify = (
            f"    write_h = table[{int(Op.W)}][0]\n"
            f"    dw_h = next(\n"
            f"        (h for h in table[{int(Op.DW)}] if h is not write_h),"
            " None\n"
            f"    )\n"
            f"    uw_h = system._unlock_write"
        )
        w_branch = f"""\
            elif kind < {KIND_PURGE}:
                st = line.state
{_silent_store_chain(spec)}
"""
        uw_branch = f"""\
        elif kind == {KIND_UW}:
            entries = lock_dirs[pe].entries
            if entries.get(address) is _LCK \\
                    and not flags_col[i] & {FLAG_LOCK_CONTENDED}:
                line = probe(block << pe_bits | pe)
                if line is not None:
{kernel.emit(_UW_SHAPE, 20)}
"""
    else:
        # Pure write-through family: no hit state absorbs a store, so
        # no write fast path is emitted, W/DW cells classify slow, and
        # a UW (never a silent store) is left to its handler.
        classify = "    write_h = dw_h = None\n    uw_h = None"
        w_branch = ""
        uw_branch = ""
    handlers = "\n\n".join(handler.emit(text, 4) for _, text in _HANDLERS)
    returned = ", ".join(f"{name!r}: {name}" for name, _ in _HANDLERS)
    counters = ", ".join(f"n_{name}" for name in _DEFERRED)
    return f'''\
def _bind(system):
    """Bind the {spec.name!r} dispatch-table handlers to system.

    Compiled by repro.core.protocol.codegen, from the same templates as
    the kernel's miss path.  Returns name -> handler.
    """
{_indent(_BINDINGS, 4)}

{handlers}

    return {{{returned}}}


def _open(system, buffer, start, stop):
    """Open a {spec.name!r} kernel session over [start, stop) of buffer.

    Compiled by repro.core.protocol.codegen.  Returns
    None when the range is empty or this (system, trace) pair is
    outside the kernel's envelope; the caller then runs the per-access
    loop instead.
    """
    if stop <= start or not system.caches or system.track_data:
        return None

    # Classify every dispatch cell by handler identity, once per
    # session instead of once per reference.
    table = system._op_table
    read_h = table[0][0]
    er_h = next(
        (h for h in table[{int(Op.ER)}] if h is not read_h), None
    )
    rp_h = next(
        (h for h in table[{int(Op.RP)}] if h is not read_h), None
    )
{classify}
    lr_h = system._lock_read
    u_h = system._unlock_plain
    kinds = []
    for row in table:
        for h in row:
            if h is read_h:
                kinds.append({KIND_R})
            elif h is er_h:
                kinds.append({KIND_ER})
            elif h is write_h:
                kinds.append({KIND_W})
            elif h is dw_h:
                kinds.append({KIND_DW})
            elif h is rp_h:
                kinds.append({KIND_PURGE})
            elif h is lr_h:
                kinds.append({KIND_LR})
            elif h is uw_h:
                kinds.append({KIND_UW})
            elif h is u_h:
                kinds.append({KIND_U})
            else:
                kinds.append({KIND_SLOW})
    kinds = tuple(kinds)

    prep = _preprocess(
        buffer, start, stop, system._block_shift, system._block_mask,
        system.n_pes, system._pe_bits, kinds,
    )
    if prep is None:
        return None
    session = KernelSession(system, buffer, start, stop, table, kinds, prep)
    # The read and DW misses run inline only where the cell holds the
    # system's own handler (not a network-charging wrapper).
    session._gen = _loop(
        session, read_h is system._read, dw_h is system._direct_write
    )
    next(session._gen)
    return session


def _loop(session, own_read, own_dw):
    """The {spec.name!r} replay loop of one session, its locals bound
    once: each send((lo, hi, keys, kinds)) replays [lo, hi); a send of
    None yields the deferred counters and zeroes them."""
    system = session.system
{_indent(_BINDINGS, 4)}
    probe = resident.get
    prefix_at = session._prep.prefix.item
    start = session._start
    table = session._table
    done = session._done
    fb_cells = session._fallbacks
    pe_col, op_col, area_col, addr_col, flags_col = session._buffer.columns()
    del session
    ic = system.interconnect
    cost = system._pattern_cost
    area_cycles = stats.bus_cycles_by_area
    sets_of = [cache._sets for cache in caches]
    {" = ".join(f"n_{name}" for name in _DEFERRED)} = 0
    pat_n = [0] * {N_PATTERNS}
    msg = yield
    while True:
        if msg is None:
            msg = yield ({counters}, pat_n)
            {" = ".join(f"n_{name}" for name in _DEFERRED)} = 0
            pat_n = [0] * {N_PATTERNS}
            continue
        lo, hi, keys, kinds = msg
        # The bindings a driver may swap between advances.
        bus_fn = system._bus
        inline_bus = (
            getattr(bus_fn, "__func__", None) is _SNOOP_TRANSACT
            and bus_fn.__self__ is ic
        )
        dir_ = system._dir
        locked_words = system._locked_words
        waiting = system._waiting
        free_at = ic.free_at
        gtick = max(map(_tick_of, caches))
        i = lo - 1
        # Probe-first: the residency probe runs inside the zip/map
        # iterator at C speed for every reference (slow kinds and run
        # tails carry key -1, so they miss); the Python-level branch then
        # only has to sort hits by kind.
        for kind, line in zip(kinds, map(probe, keys)):
            i += 1
            if line is not None:
                if kind < {KIND_W}:
                    gtick += 1
                    line.lru = gtick
                    continue
{_indent(w_branch, 4)}
                else:
                    # KIND_PURGE, the one kind left that probes: a
                    # bus-free read-then-purge (RP hit, or ER hit on the
                    # block's last word).  Drop the line, count the
                    # purge; hit count and cycle fold in bulk.  The
                    # dying line's LRU stamp cannot affect any later
                    # victim choice, so gtick is not advanced.
                    p = pe_col[i]
                    blk = addr_col[i] >> shift
                    del resident[blk << pe_bits | p]
                    del sets_of[p][blk & set_mask][blk >> set_shift]
{kernel.emit("@drop_holder blk, p", 20)}
                    if line.state is _EM or line.state is _SM:
                        n_purges_dirty += 1
                    else:
                        n_purges_clean += 1
                    continue
            elif kind == {KIND_DUP}:
                # Collapsed tail of a conflict-free same-PE run.
                continue
            # Slow path: credit the requester's unaccounted hit cycles,
            # then run its miss shape inline or dispatch through the
            # table exactly as access() does.
            pe = pe_col[i]
            op = op_col[i]
            area = area_col[i]
            address = addr_col[i]
            before = prefix_at(i - start)
            if before != done[pe]:
                pe_cycles[pe] += before - done[pe]
                done[pe] = before
            if kind < {KIND_SLOW}:
                # A fast kind that missed: the slow path charges it.
                fb_cells[op * {N_AREAS} + area] += 1
                done[pe] += 1
            block = address >> shift
            if kind == {KIND_DW}:
                if own_dw and line is None and not address & mask \\
                        and not holder_map.get(block):
{kernel.emit("@dw_alloc", 20)}
            elif kind == {KIND_R}:
                if own_read and block not in locked_words:
{kernel.emit("@read_miss", 20)}
            elif kind == {KIND_LR}:
                if not flags_col[i] & {FLAG_LOCK_CONTENDED} \\
                        and block not in locked_words:
                    line = probe(block << pe_bits | pe)
                    if line is not None \\
                            and (line.state is _EM or line.state is _EC):
{kernel.emit(_LR_SHAPE, 24)}
{_indent(uw_branch, 4)}
            elif kind == {KIND_U}:
                entries = lock_dirs[pe].entries
                if entries.get(address) is _LCK \\
                        and not flags_col[i] & {FLAG_LOCK_CONTENDED}:
{kernel.emit(_U_SHAPE, 20)}
            cache = caches[pe]
            cache._tick = gtick
            ic.free_at = free_at
            result = table[op][area](
                pe, op, area, address, block, 0, flags_col[i]
            )
            gtick = cache._tick
            free_at = ic.free_at
            if result[0] == -1:  # BLOCKED
                from repro.core.replay import ReplayBlockedError
                raise ReplayBlockedError(i, pe, op, area, address)
            if waiting:
                waiting.pop(pe, None)
        for cache in caches:
            cache._tick = gtick
        ic.free_at = free_at
        msg = yield


def _kernel(system, buffer, start, stop):
    """Replay references [start, stop) of buffer as a one-range
    session; returns the system's stats, or None when no session opens
    (see _open) and the caller must run the per-access loop."""
    session = _open(system, buffer, start, stop)
    if session is None:
        return None
    with session:
        return session.run(start, stop)
'''


def _compile(spec) -> dict:
    source = kernel_source(spec)
    namespace = {f"_ST_{s.name}": s for s in CacheState}
    namespace.update({f"_LS_{s.name}": s for s in LockState})
    namespace["_preprocess"] = _preprocess
    namespace["_tick_of"] = attrgetter("_tick")
    namespace["_lru_of"] = attrgetter("lru")
    namespace["KernelSession"] = KernelSession
    namespace["_HIT"] = (1, 0, None)
    namespace["_BLOCKED"] = (-1, 0, None)
    namespace["_NO_REMOTES"] = ()
    namespace["CacheLine"] = CacheLine
    namespace["_SNOOP_TRANSACT"] = SnoopingBus.transact
    code = compile(source, f"<repro-codegen:{spec.name}>", "exec")
    exec(code, namespace)
    return namespace


def _compiled(spec) -> dict:
    """The compiled namespace for *spec*, built once and cached by name.

    The cache is identity-checked against the spec object, so replacing
    a registration (or shadowing one with ``temporarily_register``)
    recompiles on next use instead of serving the stale kernel.
    """
    entry = _CACHE.get(spec.name)
    if entry is not None and entry[0] is spec:
        return entry[1]
    namespace = _compile(spec)
    _CACHE[spec.name] = (spec, namespace)
    return namespace


def get_kernel(spec) -> Callable:
    """The compiled one-range kernel for *spec*:
    ``kernel(system, buffer, start, stop)`` replays ``[start, stop)``
    and returns the stats, or ``None`` where no session opens."""
    return _compiled(spec)["_kernel"]


def bind_handlers(system) -> Dict[str, Callable]:
    """*system*'s generated dispatch-table handlers, by attribute name
    (``_read``, ``_direct_write``, ``_lock_read``, ``_unlock_write``,
    ``_unlock_plain``, ``_fill``, ``_pick_supplier``), compiled from
    its protocol spec."""
    return _compiled(system.protocol_spec)["_bind"](system)


def open_session(system, buffer, start: int, stop: int):
    """Open a :class:`KernelSession` of *system*'s protocol over
    references ``[start, stop)`` of *buffer*, or return ``None`` for an
    empty range or a (system, trace) pair outside the kernel's envelope.
    """
    return _compiled(system.protocol_spec)["_open"](
        system, buffer, start, stop
    )
