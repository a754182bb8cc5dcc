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
  identity into a *kind* (plain-read, exclusive-read,
  read-invalidate, store, direct-write, read-purge, lock-read,
  unlock-write, unlock, or slow);
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
  (``R``, ``ER`` or ``RI``) always allocates, so only the head of the
  run can change any state and the rest are collapsed to no-ops during
  preprocessing (``KIND_DUP``), their hits, cycles and net LRU stamp
  all folded in bulk;
* hit counters are not touched in the loop at all: per-cell and per-PE
  hit totals are counted from the trace columns of the replayed range
  (``np.bincount``), with the (rare) fast-kind references that *fell
  back* to the slow path subtracted out, so a run of conflict-free hits
  is counted in bulk after the fact.

**The miss path.**  The slow path runs every miss shape inline too,
with no handler call:

* a read miss → ``F``, served cache-to-cache following the spec's
  supplier rows (owner first; the rows compiled into ``is`` tests) or
  from memory, with LRU victim choice, swap-out and holder bookkeeping;
* a ``W``, from the spec's store table: a miss with write-allocate
  (``FI``: the supplier picked, a dirty one copied back where
  ``fetch_inval_copyback`` says so, every other copy killed, the block
  filled), an invalidation hit on ``S``/``SM`` (an ``I`` broadcast),
  or a through-store (write-once ``S``/``SM`` hits, the no-allocate
  miss, every store of the write-through family, ``write_update``
  patching the remote copies in place);
* a ``DW`` on a block-boundary miss with no remote copy: allocated with
  no bus transaction, or a ``SWAP_OUT_ONLY`` for a dirty victim; any
  other ``DW`` that misses the fast path is demoted to the ``W`` shape;
* an ``LR``: on an ``EM``/``EC`` line locked in zero bus cycles, on a
  shared line ``I`` + ``LK``, on a miss ``FI`` + ``LK``;
* the ``ER`` miss (a read invalidate through ``FI``, or a demotion to
  the read miss), the ``RP`` miss (a cache-to-cache purge or a memory
  read-through, nothing allocated) and the ``RI`` miss (``FI``);
* a ``UW`` (silent store hit) or ``U`` whose lock has no waiter.

Their counters go into locals of the session's loop, settled by
:meth:`~KernelSession.fold` as the hit counters are.  The interconnect
runs inline too:

* a transaction, while ``system._bus`` is the system's own
  :meth:`SnoopingBus.transact <repro.core.interconnect.SnoopingBus.transact>`,
  or its own
  :meth:`DirectoryInterconnect.transact
  <repro.core.interconnect.DirectoryInterconnect.transact>` with no
  observer: the directory row for the site's constant request is
  compiled in per entry state (:func:`_dir_transaction`), and the entry
  resynchronized from the holders and the residency index.  Any other
  binding is called: an observer (the model checker), the speculative
  recorder, and a state with no row, whose call raises
  ``DirectoryProtocolError``;
* the network charge of a K ≥ 2
  :class:`~repro.cluster.system.ClusterCacheSystem`: each transaction
  the interconnect performed for a block homed in another cluster is
  counted (``@net_count``: fetches, write-throughs, invalidations and
  the directory's messages), and the reference's end forwards them
  from the final PE clock (``_NET_CHARGE``).

What still dispatches through the table: a reference to a block with a
locked word (its LH check may inhibit it), a contended lock flag, and
a ``UW``/``U`` that is not the no-waiter shape above (a waiter, a lock
not held, a ``UW`` whose line is gone or whose spec has no silent
store).

**One template, two emissions.**  Each miss shape is written once, as
a template (``_FILL``, ``_READ_MISS``, ``_FETCH_EXCLUSIVE``,
``_LOCK_READ``, ...; the store path is built from the spec's store
table by :func:`_store`).  The kernel emission inlines it into the
loop; the handler emission wraps it in the dispatch-table handlers
:class:`~repro.core.system.PIMCacheSystem` installs (``_read``,
``_write``, ``_direct_write``, ``_exclusive_read``, ``_read_purge``,
``_read_invalidate``, ``_lock_read``, ``_unlock_write``,
``_unlock_plain``, and the ``_fill`` they share), which ``access()``,
the oracle's data-tracking pass and the model checker call; no handler
is written by hand.  A template marks what differs: ``$counter`` is
``stats.counter`` in a handler and a loop local in the kernel; a line
starting ``?`` (data tracking, the LH check the kernel has already
ruled out) appears only in the handler; ``@bus``, ``@tick`` and
``@return`` expand to a call, the cache's LRU tick and ``return`` in a
handler, to the inlined transaction, the kernel-wide tick and
``continue`` in the kernel, ``@return`` in both after the network
charge of what the reference counted (in a handler a call of
``_net_settle``; a handler called by another, an unlock's store, leaves
it to its caller); ``@name args`` includes another template, or the
text a function of the arguments returns.

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
Segment drivers — windows, telemetry chunks — pay the set-up once per
replay instead of once per range, and a plain replay is a session with
one range.  The speculative driver hands the session its whole plan in
one advance: the clean batches' bounds and, per batch end, every PE's
fast-kind reference count (:meth:`~KernelSession.advance`).  The loop
walks the range in one ``zip`` and handles each boundary itself: at a
batch's start it installs the speculative recorders as ``system._bus``
and ``system._dir``; at its end it restores them, credits every PE's
deferred hit cycles up to the end (the settlement reads the clocks and
the bus timeline) and charges the recorded transactions inline
(``_BOUNDARIES``, ``_SETTLE``).  Cache states never change at a
boundary, so read hits and run tails may pass one; the slow path
handles every boundary passed before it serves its reference, and under
a directory a purge or store hit that passes one takes the slow path
(its note, or the line state it changes, is read by the settlement).
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

Kernels and handlers are emitted as Python source, ``compile()``d
when a system first uses them, and cached by spec name and *variant*
(:func:`open_session`, :func:`bind_handlers`): the network charge is
emitted only for a K ≥ 2 cluster's system, the inline directory
transaction only for a directory backend's kernel, so a flat bus
system compiles what it runs and no more (1,580 to 1,930 lines per
built-in spec, against 2,240 to 2,670 for the full variants; the
compiler's transient memory grows with the unit).  A session
does not open (:func:`open_session` returns ``None``) for an empty
range or when a (system, trace) pair falls outside the kernel's
envelope (residency keys would exceed :data:`MAX_KEY_BITS`, negative
addresses, out-of-range PEs, data tracking, no caches); the caller then
runs :func:`repro.core.replay.replay_access_driven` instead.
"""

from __future__ import annotations

import re
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cache import CacheLine
from repro.core.interconnect import DirectoryInterconnect, SnoopingBus
from repro.core.protocol.directory import (
    DirAction,
    DirectoryEntry,
    DirRequest,
    DirState,
    build_directory_spec,
)
from repro.core.protocol.spec import RemoteAction
from repro.core.states import BusCommand, BusPattern, CacheState, LockState
from repro.trace.events import FLAG_LOCK_CONTENDED, Area, Op

__all__ = [
    "KernelSession",
    "bind_handlers",
    "kernel_source",
    "open_session",
]

N_OPS = len(Op)
N_AREAS = len(Area)
N_CELLS = N_OPS * N_AREAS
N_PATTERNS = len(BusPattern)

#: Reference kinds, one byte per reference.  The loop branches on the
#: kind with threshold compares, so the order is load-bearing: the
#: three plain-hit kinds (R, ER, RI) come first and share one branch,
#: the two store kinds (W, DW) share the next, and fast kinds precede
#: ``KIND_SLOW``, the lock kinds (slow, each with an inline shape) and
#: ``KIND_DUP`` (collapsed run tail), whose keys are ``-1`` so they
#: never reach the hit branches.
(KIND_R, KIND_ER, KIND_RI, KIND_W, KIND_DW, KIND_PURGE, KIND_SLOW, KIND_LR,
 KIND_UW, KIND_U, KIND_DUP) = range(11)

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
#: and the loop local ``n_name`` in the kernel.  All are sums;
#: ``lock_dir_max_occupancy`` is a maximum, and the names in
#: :data:`_COMMANDS` count bus commands (``command_counts``).
_DEFERRED = (
    "fetches",
    "fetch_invals",
    "invalidations",
    "lock_broadcasts",
    "swap_ins",
    "swap_outs",
    "memory_busy_cycles",
    "c2c_transfers",
    "supplier_invalidations",
    "ri_exclusive_fetches",
    "er_demotions",
    "dw_allocations",
    "dw_demotions",
    "lr_no_bus",
    "lr_bus",
    "hit_service_cycles",
    "lock_dir_overflows",
    "lock_dir_max_occupancy",
    "unlocks_no_waiter",
    "bus_wait_cycles",
    "purges_dirty",
    "purges_clean",
    "directory_transactions",
    "directory_forwards",
    "directory_invalidations",
    "directory_indirection_cycles",
)

#: The deferred counters that count a bus command: name -> command.
_COMMANDS = {
    "fetches": int(BusCommand.F),
    "fetch_invals": int(BusCommand.FI),
    "invalidations": int(BusCommand.I),
    "lock_broadcasts": int(BusCommand.LK),
}

#: ``$NAME`` constants, the same in both emissions.
_CONSTANTS = {
    **{f"P_{p.name}": str(int(p)) for p in BusPattern},
    **{f"REQ_{r.name}": str(int(r)) for r in DirRequest},
    **{f"CMD_{c.name}": str(int(c)) for c in BusCommand},
    "CONTENDED": str(FLAG_LOCK_CONTENDED),
}

#: The network traffic a reference counted toward its remote home:
#: fetches, write-throughs, invalidations, directory messages.
_NET = ("net_f", "net_w", "net_i", "net_d")

_HANDLER_NAMES = {
    **{name: f"stats.{name}" for name in _DEFERRED},
    **{name: f"stats.command_counts[{c}]" for name, c in _COMMANDS.items()},
    **{name: f"net_n[{i}]" for i, name in enumerate(_NET)},
    # A handler a handler calls (an unlock's store) leaves the charge to
    # its caller, which charges the whole reference at its own end.
    "net_due": "clustered and not flags & _NESTED and any(net_n)",
    "tick": "cache._tick",
    "data": "data",
    "dir": "system._dir",
    "locked": "system._locked_words",
    "sop": "sop",
}

_KERNEL_NAMES = {
    **{name: f"n_{name}" for name in _DEFERRED},
    **{name: name for name in _NET},
    "net_due": "clustered and (net_f or net_w or net_i or net_d)",
    "tick": "gtick",
    "data": "None",
    "dir": "dir_",
    "locked": "locked_words",
    "sop": "op",
}

#: Per-system (handlers) or per-session (kernel) bindings, shared by
#: both emissions.  Nothing here is ever replaced on a live system; the
#: bindings a driver or a restore may swap (``_bus``, ``_dir``,
#: ``memory``, ``_locked_words``, ``_waiting``) are read at use.
#: ``network`` is a K ≥ 2 :class:`~repro.cluster.system.ClusterCacheSystem`'s
#: interface onto the inter-cluster network (see :func:`_is_clustered`);
#: ``hop`` is both the network's hop and the directory's indirection
#: per message.
_BINDINGS = """\
stats = system.stats
cost = system._pattern_cost
hop = system.config.cluster.hop_cycles
clustered = _is_clustered(system)
network = system.network if clustered else None
net_forward = network.charge if clustered else None
my_home = network.cluster_index if clustered else 0
n_homes = network.config.n_clusters if clustered else 1
home_shift = network.config.home_shift if clustered else 0
net_n = [0, 0, 0, 0]
caches = system.caches
sets_of = [cache._sets for cache in caches]
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

#: The handler-only LH check of a bus request by ``pe`` to ``block``.
_LOCK_CHECK = """\
?if $locked and system._check_locks(pe, area, block):
?    return _BLOCKED
"""

#: Copy the dirty ``$line`` of ``$block`` back to shared memory.
_WRITEBACK = """\
?if track_data and $line.data is not None:
?    base = $block << shift
?    for offset, word in enumerate($line.data):
?        system.memory[base + offset] = word
$memory_busy_cycles += mem_cycles
"""

#: Read ``block`` from shared memory (a swap-in); ``data`` holds its
#: words in a handler.
_MEMORY_READ = """\
$swap_ins += 1
$memory_busy_cycles += mem_cycles
?if track_data:
?    base = block << shift
?    data = [system.memory.get(base + i, 0) for i in range(block_words)]
?else:
?    data = None
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

#: Purge ``line``, ``$pe``'s copy of ``$block``: a dirty purge is a
#: swap-out avoided (the data is dead by the software contract).
_PURGE = """\
del resident[$block << pe_bits | $pe]
del sets_of[$pe][$block & set_mask][$block >> set_shift]
@drop_holder $block, $pe
if line.state is _EM or line.state is _SM:
    $purges_dirty += 1
else:
    $purges_clean += 1
"""

#: Fill ``block`` into ``pe``'s cache in ``$state`` as ``line``: LRU
#: victim choice, the victim's holder entry, residency note and
#: swap-out, then the new line's holder entry.  Sets ``victim_dirty``.
_FILL = """\
bucket = sets_of[pe][block & set_mask]
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

#: The other holders of ``block``, for a request by a PE that may hold
#: it itself.
_REMOTES = """\
held = holder_map.get(block)
remotes = [other for other in held if other != pe] if held else _NO_REMOTES
key = block << pe_bits
"""

#: Kill the copies in ``remotes``; the caller updates the holder entry.
_KILL_REMOTES = """\
for other in remotes:
    del resident[key | other]
    del sets_of[other][block & set_mask][block >> set_shift]
"""

#: Kill the remote copies of a block the requester keeps.
_INVALIDATE = """\
if remotes:
    @kill_remotes
    held.difference_update(remotes)
    if not held:
        del holder_map[block]
"""

#: Flush any dirty copy in ``remotes`` before an invalidation that
#: hands over no ownership (a through-store's): its copy-back duty is
#: discharged, not dropped.  Reachable only where a DW allocation
#: dirtied a block under a through-store protocol.
_COPYBACK_REMOTES = """\
for other in remotes:
    remote = resident[key | other]
    if remote.state is _EM or remote.state is _SM:
        $swap_outs += 1
        @writeback remote, block
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
    @memory_read
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

#: ``FI`` on a miss: fetch ``block`` and invalidate every other copy,
#: filled in ``$c2c`` after a cache-to-cache transfer (``dirty`` tells
#: whether the consumed copy was dirty and kept its data out of
#: memory) or ``$mem`` after a swap-in.  Leaves ``line`` and
#: ``cycles``.
_FETCH_EXCLUSIVE = """\
$fetch_invals += 1
held = holder_map.get(block)
if held:
    remotes = list(held)
    key = block << pe_bits
    @supplier
    ?data = list(supplier.data) if track_data else None
    dirty = supplier.state is _EM or supplier.state is _SM
    @fi_copyback
    @kill_remotes
    del holder_map[block]
    $c2c_transfers += 1
    state = $c2c
else:
    remotes = _NO_REMOTES
    @memory_read
    state = $mem
@fill state
if remotes:
    pattern = $P_C2C_WITH_SWAP_OUT if victim_dirty else $P_C2C
else:
    pattern = $P_SWAP_IN_WITH_SWAP_OUT if victim_dirty else $P_SWAP_IN
@bus pattern, block, $REQ_GETM, remotes
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

#: An ``ER`` miss: a read invalidate when another cache holds the block
#: and this is not its last word, else a plain read.
_ER_MISS = """\
if address & mask != mask and holder_map.get(block):
    # Case (i): read invalidate, a cache-to-cache transfer after which
    # the supplier's copy is invalidated.
    @lock_check
    $supplier_invalidations += 1
    @fetch_exclusive _EM if dirty else _EC, _EC
    ?value = line.data[address & mask] if track_data else None
    @return (cycles, 0, value)
# Case (iii): the controller replaces ER with plain R.
@lock_check
$er_demotions += 1
@read_miss
"""

#: An ``RP`` miss: from a remote copy, which is invalidated after the
#: transfer, or read through shared memory; either way nothing is
#: allocated.
_RP_MISS = """\
held = holder_map.get(block)
if held:
    # Case (ii): the supplier is invalidated after the transfer; the
    # fetched block is consumed without being allocated.
    remotes = list(held)
    key = block << pe_bits
    $fetch_invals += 1
    @supplier
    ?data = list(supplier.data) if track_data else None
    if supplier.state is _EM or supplier.state is _SM:
        @rp_copyback
        $purges_dirty += 1
    else:
        $purges_clean += 1
    @kill_remotes
    del holder_map[block]
    $supplier_invalidations += 1
    $c2c_transfers += 1
    @bus $P_C2C, block, $REQ_GETM_NA, remotes
    ?value = data[address & mask] if track_data else None
    @return (cycles, 0, value)
$fetches += 1
@memory_read
@bus $P_SWAP_IN, block, $REQ_GETS_NA, _NO_REMOTES
?value = data[address & mask] if track_data else None
@return (cycles, 0, value)
"""

#: An ``RI`` miss: ``FI``, so the rewrite that follows needs no ``I``.
_RI_MISS = """\
$ri_exclusive_fetches += 1
@fetch_exclusive _EM if dirty else _EC, _EC
?value = line.data[address & mask] if track_data else None
@return (cycles, 0, value)
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

#: An ``LR`` past its lock check and contention flag: on an exclusive
#: line it locks in zero bus cycles (the whole point of the hardware
#: lock); on a shared line it gains exclusivity with ``I`` + ``LK``; a
#: miss rides ``FI`` + ``LK``.
_LOCK_READ = """\
line = resident.get(block << pe_bits | pe)
if line is not None:
    @touch
    hits[area][$sop] += 1
    ?if track_data:
    ?    value = line.data[address & mask]
    if line.state is _EM or line.state is _EC:
        @lock
        $lr_no_bus += 1
        pe_cycles[pe] += 1
        $hit_service_cycles += 1
        @return (1, out_flags, value)
    # Shared hit: I + LK.  A remote SM owner dies in the broadcast
    # without supplying data, so its copy-back duty moves to this copy
    # (the copies agree word for word): end dirty, not EC.
    @remotes
    remote_dirty = False
    for other in remotes:
        state = resident[key | other].state
        if state is _EM or state is _SM:
            remote_dirty = True
    @invalidate
    line.state = _EM if remote_dirty or line.state is _SM else _EC
    @lock
    $lr_bus += 1
    $invalidations += 1
    $lock_broadcasts += 1
    @bus $P_INVALIDATION, block, $REQ_UPGR, remotes
    @return (cycles, out_flags, value)
# Miss: FI + LK.
$lr_bus += 1
$lock_broadcasts += 1
@fetch_exclusive _EM if dirty else _EC, _EC
@lock
?if track_data:
?    value = line.data[address & mask]
@return (cycles, out_flags, value)
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

#: ``@bus pattern, block, req, remotes`` in the kernel: the snooping
#: bus's or the directory's transact inlined, any other binding called;
#: then the transaction counted toward the network charge.
_BUS_KERNEL = """\
if inline_ic:
    @charge $pattern
    @dir_transaction $pattern, $block, $req, $remotes
    @clock
else:
    ic.free_at = free_at
    cycles = bus_fn(pe, $pattern, area, $block, $req, $remotes)
    free_at = ic.free_at
@net_count $pattern
"""

#: The kernel's count of one transaction of ``$pattern`` by ``pe`` in
#: ``area``: its cycles (``cycles``) before any indirection.
_CHARGE = """\
cycles = cost[$pattern]
pat_n[$pattern] += 1
area_cycles[area] += cycles
"""

#: The kernel's bus timeline: the transaction of ``cycles`` starts when
#: both ``pe`` and the interconnect are free.
_CLOCK = """\
t = pe_cycles[pe] + 1
if t < free_at:
    $bus_wait_cycles += free_at - t
    t = free_at
free_at = t + cycles
pe_cycles[pe] = free_at
"""

#: The kernel's handling of every speculative batch boundary at or
#: before position ``$at`` (``bounds[bx]`` is the next one; even
#: entries open a clean batch, odd ones end it).  Cache states never
#: change at a boundary, so hits that change nothing the boundary reads
#: may run past one before it is handled.
_BOUNDARIES = """\
while nb <= $at:
    if deferral is None:
        # A clean batch opens: its coherence is deferred to a recorder
        # that the table's handlers see too.
        deferral = _DeferredBus()
        bus_fn = system._bus = deferral
        inline_ic = False
        if own_dir is not None:
            dir_ = system._dir = _DeferredNotes(own_dir, deferral.touched)
    else:
        # The clean batch ends: every PE's deferred hit cycles up to
        # its end are credited (the settlement reads the clocks), then
        # its transactions settle.
        bus_fn = system._bus = own_bus
        dir_ = system._dir = own_dir
        inline_ic = own_inline
        for p, before in enumerate(credits[bx >> 1]):
            if before != done[p]:
                pe_cycles[p] += before - done[p]
                done[p] = before
        @settle
        deferral = None
    bx += 1
    nb = bounds[bx]
"""

#: A clean batch's settlement: its deferred transactions charged in
#: recorded order, as the interconnect's control-only transact would
#: (no directory resolution).  Per-block invalidations coalesce into the
#: batch's one signature broadcast: the first is charged (it *is* the
#: broadcast), the rest ride it.  Block-less rounds (lock-spin episode
#: charges) never coalesce.  The directory then resynchronizes every
#: touched entry from residency.
_SETTLE = """\
broadcast = False
settles = elided = 0
for pe, pattern, area, block in deferral.log:
    if pattern == $P_INVALIDATION and block >= 0:
        if broadcast:
            elided += 1
            continue
        broadcast = True
    @charge pattern
    @dir_count
    @clock
    settles += 1
stats.signature_settles += settles
stats.batch_elided_invalidations += elided
stats.batch_commits += 1
if own_dir is not None:
    _resync(own_dir, deferral.touched)
"""

#: The end of a reference whose block is homed in another cluster: its
#: counted traffic forwarded from the final PE clock (fetches, writes,
#: then invalidations and directory messages), and the PE stalled for
#: it.  Inlined in the kernel; a handler calls ``_net_settle``.
_NET_CHARGE = """\
home = (block >> home_shift) % n_homes
now = pe_cycles[pe]
stall = net_forward(now, home, $net_f, $net_w, $net_i + $net_d)
pe_cycles[pe] = now + stall
?probe = system._probe
?if probe is not None:
?    probe._emit(
?        _NETWORK, now + stall, pe, sop, area, address,
?        f"forward->c{home} f={$net_f} w={$net_w} i={$net_i}"
?        + (f" d={$net_d}" if $net_d else ""),
?        stall,
?    )
$net_f = $net_w = $net_i = $net_d = 0
"""

#: The kernel's directory entry for ``$block`` (``entry``, or None)
#: resynchronized to residency after a transaction: owner and state
#: from the holders' lines, dropped when no copy is left.
_DIR_RESYNC = """\
dheld = holder_map.get($block)
if dheld:
    dmask = 0
    downer = -1
    dstate = _DIR_S
    dkey = $block << pe_bits
    for dpe in dheld:
        dmask |= 1 << dpe
        dst = resident[dkey | dpe].state
        if dst is _EM:
            dstate = _DIR_M
            downer = dpe
        elif dst is _SM:
            dstate = _DIR_O
            downer = dpe
        elif dst is _EC:
            dstate = _DIR_E
            downer = dpe
    if entry is None:
        dir_entries[$block] = _DirectoryEntry(dstate, downer, dmask)
    else:
        entry.state = dstate
        entry.owner = downer
        entry.sharers = dmask
elif entry is not None:
    del dir_entries[$block]
"""

#: The end of every unlock that held its lock: with a waiter (a
#: recorded one, or an LWAIT entry) the UL broadcast, else the shape.
_UNLOCK_TAIL = """\
if prior is _LWAIT or flags & $CONTENDED:
    @release
    stats.unlocks_with_waiter += 1
    stats.command_counts[$CMD_UL] += 1
    @bus $P_INVALIDATION, -1, $REQ_CTRL, _NO_REMOTES
    total += cycles
    # Busy-waiting PEs will retry; clear their episode markers so the
    # retry performs a fresh (now unobstructed) lock check.
    waiting = system._waiting
    for waiter, waited_block in list(waiting.items()):
        if waited_block == block:
            del waiting[waiter]
    @return (total, $CONTENDED, None)
@unlock_done
@return (total, 0, None)
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


def _net_count(pattern: str) -> str:
    """``@net_count pattern``: a transaction of *pattern* (an emitted
    int, or the name of a block-transfer pattern) counted toward the
    network charge, when the interconnect performed it (a real one
    costs a cycle at least; the speculative recorder returns 0) for a
    block homed in another cluster.  Its directory messages are its
    indirection cycles over the hop (none on the snooping bus)."""
    if not pattern.isdigit():
        kind = [f"if {pattern} <= $P_SWAP_IN:", "    $net_f += 1"]
    elif int(pattern) <= BusPattern.SWAP_IN:
        # SWAP_IN_WITH_SWAP_OUT or SWAP_IN: a fetch from memory.
        kind = ["$net_f += 1"]
    elif int(pattern) == BusPattern.WRITE_THROUGH:
        kind = ["$net_w += 1"]
    elif int(pattern) == BusPattern.INVALIDATION:
        kind = ["$net_i += 1"]
    else:
        kind = []
    return "\n".join([
        "if clustered and cycles "
        "and (block >> home_shift) % n_homes != my_home:",
        *_indented(kind),
        f"    $net_d += (cycles - cost[{pattern}]) // hop",
    ])


#: name -> (parameters, text), or (parameters, handler text, kernel
#: text) where the emissions differ, or a function of the arguments
#: returning the text.
_TEMPLATES = {
    "tick": ((), "cache = caches[pe]\ncache._tick += 1", "gtick += 1"),
    "bus": (
        ("pattern", "block", "req", "remotes"),
        "cycles = system._bus(pe, $pattern, area, $block, $req, $remotes)\n"
        "@net_count $pattern",
        _BUS_KERNEL,
    ),
    "return": (
        ("value",),
        "@net_epilogue\nreturn $value",
        "@net_epilogue\nif waiting:\n    waiting.pop(pe, None)\ncontinue",
    ),
    "net_epilogue": ((), "if $net_due:\n    @net_charge"),
    "net_charge": (
        (), "_net_settle(pe, sop, area, address, block)", _NET_CHARGE,
    ),
    "net_charge_body": ((), _NET_CHARGE),
    "net_count": _net_count,
    "charge": (("pattern",), _CHARGE),
    "clock": ((), _CLOCK),
    "boundaries": (("at",), _BOUNDARIES),
    "settle": ((), _SETTLE),
    "dir_resync": (("block",), _DIR_RESYNC),
    "fill": (("state",), _FILL_CALL, _FILL),
    "fill_body": (("state",), _FILL),
    "touch": ((), _TOUCH),
    "no_bus_hit": ((), _NO_BUS_HIT),
    "lock_check": ((), _LOCK_CHECK),
    "writeback": (("line", "block"), _WRITEBACK),
    "memory_read": ((), _MEMORY_READ),
    "drop_holder": (("block", "pe"), _DROP_HOLDER),
    "purge": (("block", "pe"), _PURGE),
    "supplier": ((), _SUPPLIER),
    "remotes": ((), _REMOTES),
    "kill_remotes": ((), _KILL_REMOTES),
    "invalidate": ((), _INVALIDATE),
    "copyback_remotes": ((), _COPYBACK_REMOTES),
    "read_miss": ((), _READ_MISS),
    "fetch_exclusive": (("c2c", "mem"), _FETCH_EXCLUSIVE),
    "dw_alloc": ((), _DW_ALLOC),
    "er_miss": ((), _ER_MISS),
    "rp_miss": ((), _RP_MISS),
    "ri_miss": ((), _RI_MISS),
    "lock": ((), _LOCK),
    "lock_read": ((), _LOCK_READ),
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
    @lock_check
    @read_miss
"""

_H_WRITE = """\
def _write(pe, sop, area, address, block, value=0, flags=0):
    @store
"""

_H_DIRECT_WRITE = """\
def _direct_write(pe, sop, area, address, block, value=0, flags=0):
    line = resident.get(block << pe_bits | pe)
    if line is None and not address & mask and not holder_map.get(block):
        @dw_alloc
    # Demote to W: already resident (an ordinary write hit, block
    # boundary or not), not a block boundary (the controller replaces
    # DW with W), or a remote copy exists, violating the software
    # contract ("no remote copy") — demote rather than break coherence.
    # A demotion the LH check inhibits is counted by the retry that
    # passes it; a silent store hit makes no bus request to check.
    @demote_lock_check
    $dw_demotions += 1
    @store
"""

_H_EXCLUSIVE_READ = """\
def _exclusive_read(pe, sop, area, address, block, value=0, flags=0):
    line = resident.get(block << pe_bits | pe)
    if line is not None:
        @touch
        @no_bus_hit
        value = line.data[address & mask] if track_data else None
        if address & mask == mask:
            # Case (ii): a hit on the last word reads, then purges (RP).
            @purge block, pe
        return (1, 0, value)
    @er_miss
"""

_H_READ_PURGE = """\
def _read_purge(pe, sop, area, address, block, value=0, flags=0):
    line = resident.get(block << pe_bits | pe)
    if line is not None:
        # Case (i): read, then forcibly purge.
        @touch
        @no_bus_hit
        value = line.data[address & mask] if track_data else None
        @purge block, pe
        return (1, 0, value)
    @lock_check
    @rp_miss
"""

_H_READ_INVALIDATE = """\
def _read_invalidate(pe, sop, area, address, block, value=0, flags=0):
    line = resident.get(block << pe_bits | pe)
    if line is not None:
        # RI targets data just written by another PE; on a hit it
        # behaves as a plain read.
        @touch
        @no_bus_hit
        return (1, 0, line.data[address & mask] if track_data else None)
    @lock_check
    @ri_miss
"""

_H_LOCK_READ = """\
def _lock_read(pe, sop, area, address, block, value=0, flags=0):
    @lock_check
    out_flags = 0
    if flags & $CONTENDED:
        # Trace replay: re-enact the LH + busy-wait recorded at
        # generation time (replay order serializes the conflict away).
        stats.lh_responses += 1
        @bus $P_INVALIDATION, -1, $REQ_CTRL, _NO_REMOTES
        out_flags = $CONTENDED
    value = None
    @lock_read
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
    # dropped this one.  The network charge waits for the unlock's end.
    result = system._write(pe, sop, area, address, block, value, _NESTED)
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

_H_NET_SETTLE = """\
def _net_settle(pe, sop, area, address, block):
    \"\"\"Forward the traffic the reference counted to its remote
    home (the kernel inlines the same body).\"\"\"
    @net_charge_body
"""

_HANDLERS = (
    ("_read", _H_READ),
    ("_write", _H_WRITE),
    ("_direct_write", _H_DIRECT_WRITE),
    ("_exclusive_read", _H_EXCLUSIVE_READ),
    ("_read_purge", _H_READ_PURGE),
    ("_read_invalidate", _H_READ_INVALIDATE),
    ("_lock_read", _H_LOCK_READ),
    ("_unlock_write", _H_UNLOCK_WRITE),
    ("_unlock_plain", _H_UNLOCK_PLAIN),
    ("_fill", _H_FILL),
)


_NAME = re.compile(r"\$(\w+)")

#: The ``flags`` bit a handler passes to a handler it calls: the
#: caller charges the reference's network traffic (above any trace
#: flag).
_NESTED = 1 << 16

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
        # read-family kinds qualify (an RI miss allocates too): a store
        # miss may write through without allocating (write-once), and a
        # purge removes the very line its tail would need.
        kind[1:][
            (key[1:] == key[:-1]) & (kind[1:] == kind[:-1])
            & (kind[1:] < KIND_W)
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
        "_prep", "_table", "_done", "_fast_done", "_fallbacks", "_fast_at",
        "_gen",
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
        # Per PE: fast-kind references before a position, for the batch
        # ends' clock credits (see _credits).
        self._fast_at = (start, np.zeros(n_pes, np.int64))
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

    def advance(self, lo: int, hi: int, batches=()) -> None:
        """Replay references ``[lo, hi)``, continuing where the last
        advance stopped; the counters stay deferred to the fold.

        *batches* are the clean batches of a speculative plan,
        ``(lo, hi)`` pairs ascending within the range
        (:mod:`repro.core.speculative`).  The loop walks the range in
        one pass: inside each batch the system's ``_bus`` and ``_dir``
        are the speculative recorders, and at the batch's end every
        PE's clock is credited up to it and the recorded transactions
        settle inline.  The two bindings are restored however the walk
        ends.
        """
        keys, kinds = self._refs(lo, hi)
        bounds = [pos for batch in batches for pos in batch]
        credits = self._credits(hi, bounds[1::2]) if bounds else ()
        bounds.append(hi + 1)
        system = self.system
        bus, notes = system._bus, system._dir
        try:
            self._gen.send((lo, hi, keys, kinds, bounds, credits))
        finally:
            system._bus, system._dir = bus, notes
        self._pos = hi

    def _credits(self, hi: int, ends) -> List[List[int]]:
        """Every PE's fast-kind references before each of *ends*
        (ascending, at most *hi*), counted from the session's start: the
        clock credits of the batch ends, a row per end, counted in one
        numpy pass from where the last call stopped."""
        n_pes = self.system.n_pes
        at, base = self._fast_at
        _, fast, pe8 = _fast_refs(self._buffer, at, hi, self._kinds)
        position = np.flatnonzero(fast)
        # Row r counts the references before ends[r], so a reference
        # lands in the row of the first end past it.
        row = np.searchsorted(np.asarray(ends) - at, position, "right")
        table = np.bincount(
            row * n_pes + pe8[position], minlength=(len(ends) + 1) * n_pes
        ).reshape(-1, n_pes).cumsum(axis=0) + base
        self._fast_at = (hi, table[-1])
        return table[:-1].tolist()

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
        for name, command in _COMMANDS.items():
            stats.command_counts[command] += deferred.pop(name)
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


class _Emitter:
    """Expands templates for one spec into one emission: the handler's
    (``handler=True``) or the kernel's.  A variant may leave out the
    network charge (``clustered=False``) and, in the kernel, the inline
    directory transaction (``directory=False``): a system that cannot
    use them compiles, and holds in memory, smaller code."""

    def __init__(self, spec, handler: bool, directory=True, clustered=True):
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
            "store": ((), _store(spec)),
            "fi_copyback": (
                (), _FI_COPYBACK if spec.fetch_inval_copyback else ""
            ),
            "rp_copyback": (
                (), _COPYBACK if spec.fetch_inval_copyback else ""
            ),
            "demote_lock_check": ((), _demote_lock_check(silent_states)),
            "dir_transaction": partial(
                _dir_transaction, build_directory_spec(spec).rows
            ) if directory else _nothing,
            "dir_count": (
                (), "$directory_transactions += 1"
            ) if directory else _nothing,
        }
        if not clustered:
            self.templates["net_count"] = _nothing
            self.templates["net_epilogue"] = ((), "")

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
            template = self.templates[macro]
            if callable(template):
                values = [v.strip() for v in rest.split(",")] if rest else []
                yield from self._lines(template(*values), lead, {})
                continue
            params, *texts = template
            text = texts[0] if self.handler or len(texts) == 1 else texts[1]
            if len(params) == 1:
                values = [rest] if rest else []
            else:
                values = [v.strip() for v in rest.split(",")] if rest else []
            yield from self._lines(text, lead, dict(zip(params, values)))


def _nothing(*args) -> str:
    """A macro a variant leaves out."""
    return ""


def _demote_lock_check(silent_states) -> str:
    """The handler's LH check of a demoted ``DW``, skipped for a silent
    store hit on the probed ``line`` (no bus request)."""
    silent = " or ".join(f"line.state is _{s.name}" for s in silent_states)
    hit = f" and (line is None or not ({silent}))" if silent else ""
    return "\n".join([
        f"?if $locked{hit} \\",
        "?        and system._check_locks(pe, area, block):",
        "?    return _BLOCKED",
    ])


def _dir_actions(actions, remotes: str, owned: bool) -> List[str]:
    """One directory row's messages as code: ``fwd`` forwards and
    ``inv`` invalidations or updates, exactly as
    :meth:`~repro.core.interconnect.DirectoryInterconnect.transact`
    counts them.  *owned* is False where the entry is absent (no
    owner, so no owner forward)."""
    by_owner = (DirAction.FWD_OWNER, DirAction.OWNER_COPYBACK)

    def counts(owner_forwards: bool) -> Tuple[int, str]:
        fwd = 0
        forwarded = False
        inv = []
        for action in actions:
            if action in by_owner and owner_forwards \
                    or action is DirAction.FWD_SHARER:
                fwd += 1
                forwarded = True
            elif action is DirAction.INVAL_SHARERS:
                # One message per remote sharer but the supplier, which
                # learns its fate from the forward.
                inv.append(
                    f"(len({remotes}) - 1 if {remotes} else 0)"
                    if forwarded else f"len({remotes})"
                )
            elif action is DirAction.UPDATE_SHARERS:
                inv.append(f"len({remotes})")
        return fwd, " + ".join(inv) or "0"

    fwd, inv = counts(False)
    if not owned or not any(action in by_owner for action in actions):
        return [f"fwd, inv = {fwd}, {inv}"]
    owner_fwd, owner_inv = counts(True)
    if owner_inv == inv:
        return [
            f"fwd, inv = ({owner_fwd} if owner >= 0 and owner != pe "
            f"else {fwd}), {inv}"
        ]
    return [
        "if owner >= 0 and owner != pe:",
        f"    fwd, inv = {owner_fwd}, {owner_inv}",
        "else:",
        f"    fwd, inv = {fwd}, {inv}",
    ]


def _dir_transaction(rows, pattern, block, req, remotes) -> str:
    """``@dir_transaction``, the kernel's inline
    :meth:`~repro.core.interconnect.DirectoryInterconnect.transact` of
    a site issuing the constant request *req*: the rows for *req*
    compiled in, one branch per entry state, the indirection added to
    ``cycles``, the entry resynchronized to residency.  A state with no
    row calls the transact, which raises ``DirectoryProtocolError``."""
    req = int(req)
    lines = ["if inline_dir:", "    $directory_transactions += 1"]
    if req == DirRequest.CTRL:
        # Control-only: no entry changes.
        return "\n".join(lines)
    missing = [
        "# No row: the call raises DirectoryProtocolError.",
        f"bus_fn(pe, {pattern}, area, {block}, {req}, {remotes})",
    ]

    def row(state, owned):
        rule = rows.get((state, req))
        if rule is None:
            return missing
        return _dir_actions(rule.actions, remotes, owned)

    # States whose rows compile to the same code share a branch.
    branches: Dict[Tuple[str, ...], List[str]] = {}
    for state in DirState:
        if (state, req) in rows:
            branches.setdefault(tuple(row(state, True)), []).append(
                f"dstate is _DIR_{state.name}"
            )
    chain = []
    for code, tests in branches.items():
        chain.append(f"{'elif' if chain else 'if'} {' or '.join(tests)}:")
        chain += _indented(list(code))
    body = [
        f"entry = dir_entries.get({block})",
        "if entry is None:",
        *_indented(row(DirState.I, False)),
        "else:",
        "    owner = entry.owner",
        "    dstate = entry.state",
        *_indented(
            chain + ["else:", *_indented(missing)] if chain else missing
        ),
        "if fwd or inv:",
        "    $directory_forwards += fwd",
        "    $directory_invalidations += inv",
        "    extra = hop * (fwd + inv)",
        "    $directory_indirection_cycles += extra",
        "    cycles += extra",
        f"@dir_resync {block}",
    ]
    return "\n".join(lines + _indented(body))


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
    return "\n".join(_moves("st", [
        (state, silent[state]) for state in _SILENT_TEST_ORDER
        if silent[state] is not None
    ]))


#: A consumed dirty supplier's data copied back to memory.
_COPYBACK = "$swap_outs += 1\n@writeback supplier, block"

#: ``FI``'s copyback of a dirty supplier, where the spec has one.
_FI_COPYBACK = """\
if dirty:
    $swap_outs += 1
    @writeback supplier, block
    dirty = False
"""


def _state(state) -> str:
    """The emitted name of *state*: a loop-local alias, or the module
    global for ``INV``."""
    if state is CacheState.INV:
        return "_ST_INV"
    return f"_{state.name}"


def _moves(var, moves) -> List[str]:
    """``line.state`` set per ``(state, next state)`` pair, one ``is``
    test on *var* each; pairs that change nothing emit nothing."""
    lines = []
    for state, next_state in moves:
        if next_state is state:
            continue
        lines.append(f"{'elif' if lines else 'if'} {var} is _{state.name}:")
        lines.append(f"    line.state = {_state(next_state)}")
    return lines


def _promotion(spec) -> List[str]:
    """A through-store's promotion of the local ``line`` once the
    remote copies are dead (the store table's next states)."""
    moves = _moves("state", [
        (s, spec.store[s].next_state) for s in _SILENT_TEST_ORDER
        if spec.store[s].next_state is not None
    ])
    return ["state = line.state", *moves] if moves else []


def _through(spec, promote: List[str]) -> List[str]:
    """One word written through to shared memory over the bus, no
    allocation: remote copies patched in place (``UPDATE`` specs) or
    killed, then the *promote* lines."""
    if spec.store[CacheState.INV].remote is RemoteAction.UPDATE:
        remote = [
            "?if track_data:",
            "?    for other in remotes:",
            "?        resident[key | other].data[address & mask] = value",
        ]
    else:
        remote = ["@copyback_remotes", "@invalidate"]
    return [
        "@remotes",
        *remote,
        *promote,
        "?if track_data:",
        "?    system.memory[address] = value",
        "$memory_busy_cycles += mem_cycles",
        "@bus $P_WRITE_THROUGH, block, $REQ_WT, remotes",
        "@return (cycles, 0, None)",
    ]


def _indented(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _store(spec) -> str:
    """The ``W`` path compiled from the spec's store table.  ``line`` is
    the requester's probed copy or None (the handler probes it here);
    an all-through spec probes after its lock check instead, and
    promotes only under invalidation."""
    store = spec.store
    inv = CacheState.INV
    write = [
        "hits[area][$sop] += 1",
        "?if track_data:",
        "?    line.data[address & mask] = value",
    ]
    if spec.all_through:
        promote = _promotion(spec)
        if promote and store[inv].remote is not RemoteAction.UPDATE:
            promote = ["if line is not None:", *_indented(promote)]
        else:
            promote = []
        return "\n".join([
            "@lock_check",
            "line = resident.get(block << pe_bits | pe)",
            "if line is not None:",
            *_indented(["@touch", *write]),
            *_through(spec, promote),
        ])
    bus_states = [s for s in _SILENT_TEST_ORDER if not store[s].silent]
    through = [s for s in bus_states if store[s].through]
    upgrade = [s for s in bus_states if not store[s].through]
    # An invalidation hit (an I broadcast): the block is *perhaps*
    # shared, so the transaction is mandatory.
    nexts = [(s, store[s].next_state or s) for s in upgrade]
    if len({n for _, n in nexts}) == 1 and all(n is not s for s, n in nexts):
        next_state = [f"line.state = {_state(nexts[0][1])}"]
    else:
        next_state = ["state = line.state", *_moves("state", nexts)]
    invalidation = [
        "@remotes",
        "@invalidate",
        *next_state,
        "$invalidations += 1",
        "@bus $P_INVALIDATION, block, $REQ_UPGR, remotes",
        "@return (cycles, 0, None)",
    ]
    through_hit = _through(spec, _promotion(spec))
    if through and upgrade:
        hit = [
            "state = line.state",
            "if " + " or ".join(f"state is _{s.name}" for s in through) + ":",
            *_indented(through_hit),
            *invalidation,
        ]
    else:
        hit = through_hit if through else invalidation
    miss = store[inv]
    if miss.allocate:
        final = miss.next_state or inv
        if final is CacheState.EC:
            c2c, mem = "_EM if dirty else _EC", "_EC"
        else:
            c2c = mem = _state(final)
        miss_lines = [
            f"@fetch_exclusive {c2c}, {mem}",
            "?if track_data:",
            "?    line.data[address & mask] = value",
            "@return (cycles, 0, None)",
        ]
    else:
        miss_lines = _through(spec, [])
    return "\n".join([
        "?line = resident.get(block << pe_bits | pe)",
        "if line is not None:",
        *_indented(["?@silent_hit", "@touch", "@lock_check", *write, *hit]),
        "@lock_check",
        *miss_lines,
    ])


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
    """Emit the generated source for *spec*: the dispatch-table
    handlers (``_bind``) and the replay kernel (``_open``, ``_loop``),
    both in their full variant and expanded from the one set of
    miss-path templates (see module docstring)."""
    return _bind_source(spec, True) + "\n\n" + _kernel_source(spec, True, True)


def _bind_source(spec, clustered: bool) -> str:
    """The handlers' compile unit (``_bind``), with or without the
    network charge.  Handlers and kernel are compiled one at a time
    because the compiler's transient syntax tree, and with it the
    process's peak memory, grows with the unit."""
    handler = _Emitter(spec, True, clustered=clustered)
    handlers = "\n\n".join(
        handler.emit(text, 4)
        for text in ((_H_NET_SETTLE,) if clustered else ())
        + tuple(text for _, text in _HANDLERS)
    )
    returned = ", ".join(f"{name!r}: {name}" for name, _ in _HANDLERS)
    return f'''\
def _bind(system):
    """Bind the {spec.name!r} dispatch-table handlers to system.

    Compiled by repro.core.protocol.codegen, from the same templates as
    the kernel's miss path.  Returns name -> handler.
    """
{_indent(_BINDINGS, 4)}

{handlers}

    return {{{returned}}}
'''


def _kernel_source(spec, directory: bool, clustered: bool) -> str:
    """The kernel's compile unit (``_open``, ``_loop``) in the variant
    with or without the inline directory transaction and the network
    charge."""
    kernel = _Emitter(spec, False, directory, clustered)
    if spec.has_silent_stores:
        uw_classify = "system._unlock_write"
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
        # every W/DW hit takes the slow path, and a UW (never a silent
        # store) is left to its handler.
        uw_classify = "None"
        w_branch = f"""\
            elif kind < {KIND_PURGE}:
                pass
"""
        uw_branch = ""
    if directory:
        inline_dir = (
            "own_ic and transact is _DIR_TRANSACT and ic.observer is None"
        )
        # A purge hit notes its drop to the directory, and a silent
        # store changes a line state that the settlement's resync reads:
        # with a boundary pending, the slow path handles it first.
        w_branch = """\
            elif nb <= i:
                # A batch boundary is pending: the slow path handles it,
                # then dispatches this hit through the table.
                kind = -1
""" + w_branch
    else:
        inline_dir = "False"
    counters = ", ".join(f"n_{name}" for name in _DEFERRED)
    return f'''\
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
    er_h, ri_h, rp_h = (
        next((h for h in table[op] if h is not read_h), None)
        for op in ({int(Op.ER)}, {int(Op.RI)}, {int(Op.RP)})
    )
    write_h = table[{int(Op.W)}][0]
    dw_h = next((h for h in table[{int(Op.DW)}] if h is not write_h), None)
    lr_h = system._lock_read
    uw_h = {uw_classify}
    u_h = system._unlock_plain
    kinds = []
    for row in table:
        for h in row:
            if h is read_h:
                kinds.append({KIND_R})
            elif h is er_h:
                kinds.append({KIND_ER})
            elif h is ri_h:
                kinds.append({KIND_RI})
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
    # A miss runs inline only where its cell holds the system's own
    # handler.
    session._gen = _loop(
        session, read_h is system._read, write_h is system._write,
        dw_h is system._direct_write, er_h is system._exclusive_read,
        ri_h is system._read_invalidate, rp_h is system._read_purge,
    )
    next(session._gen)
    return session


def _loop(session, own_read, own_write, own_dw, own_er, own_ri, own_rp):
    """The {spec.name!r} replay loop of one session, its locals bound
    once: each send((lo, hi, keys, kinds, bounds, credits)) replays
    [lo, hi), deferring and settling the clean batches that bounds
    delimits; a send of None yields the deferred counters and zeroes
    them."""
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
    area_cycles = stats.bus_cycles_by_area
    {" = ".join(f"n_{name}" for name in _DEFERRED)} = 0
    pat_n = [0] * {N_PATTERNS}
    {" = ".join(_NET)} = 0
    msg = yield
    while True:
        if msg is None:
            msg = yield ({counters}, pat_n)
            {" = ".join(f"n_{name}" for name in _DEFERRED)} = 0
            pat_n = [0] * {N_PATTERNS}
            continue
        lo, hi, keys, kinds, bounds, credits = msg
        # The bindings a driver may swap between advances.  The
        # interconnect's own transact runs inline; a directory's only
        # while no observer watches its micro-steps.
        bus_fn = system._bus
        transact = getattr(bus_fn, "__func__", None)
        own_ic = getattr(bus_fn, "__self__", None) is ic
        inline_dir = {inline_dir}
        inline_ic = inline_dir or own_ic and transact is _SNOOP_TRANSACT
        dir_entries = ic.entries if inline_dir else None
        dir_ = system._dir
        own_bus, own_dir, own_inline = bus_fn, dir_, inline_ic
        deferral = None
        bx = 0
        nb = bounds[0]
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
{kernel.emit("@purge blk, p", 20)}
                    continue
            elif kind == {KIND_DUP}:
                # Collapsed tail of a conflict-free same-PE run.
                continue
            # Slow path: handle the batch boundaries passed, credit the
            # requester's unaccounted hit cycles, then run its miss shape
            # inline or dispatch through the table exactly as access()
            # does.  No shape runs inline on a block with a locked word:
            # its LH check may inhibit it.
{kernel.emit("@boundaries i", 12)}
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
            if kind == {KIND_DW} and own_dw:
                if line is None and not address & mask \\
                        and not holder_map.get(block):
{kernel.emit("@dw_alloc", 20)}
                if own_write and block not in locked_words:
                    # Demoted: the W shape below serves it.
                    n_dw_demotions += 1
                    kind = {KIND_W}
            if kind == {KIND_W}:
                if own_write and block not in locked_words:
{kernel.emit("@store", 20)}
            elif kind == {KIND_R}:
                if own_read and block not in locked_words:
{kernel.emit("@read_miss", 20)}
            elif kind == {KIND_LR}:
                if not flags_col[i] & {FLAG_LOCK_CONTENDED} \\
                        and block not in locked_words:
{kernel.emit("@lock_read", 20)}
{_indent(uw_branch, 4)}
            elif kind == {KIND_U}:
                entries = lock_dirs[pe].entries
                if entries.get(address) is _LCK \\
                        and not flags_col[i] & {FLAG_LOCK_CONTENDED}:
{kernel.emit(_U_SHAPE, 20)}
            elif kind == {KIND_RI}:
                if own_ri and block not in locked_words:
{kernel.emit("@ri_miss", 20)}
            elif kind == {KIND_ER} or kind == {KIND_PURGE}:
                if block not in locked_words:
                    if op == {int(Op.RP)}:
                        if own_rp:
{kernel.emit("@rp_miss", 28)}
                    elif own_er:
{kernel.emit("@er_miss", 24)}
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
{kernel.emit("@boundaries hi", 8)}
        for cache in caches:
            cache._tick = gtick
        ic.free_at = free_at
        msg = yield
'''


def _is_clustered(system) -> bool:
    """Whether *system* charges an inter-cluster network: a
    :class:`~repro.cluster.system.ClusterCacheSystem` of a K ≥ 2
    machine, whose ``network`` is set before its handlers are bound."""
    network = getattr(system, "network", None)
    return network is not None and network.config.n_clusters > 1


def _compile(spec) -> dict:
    """The namespace *spec*'s generated units run in; each unit
    variant compiles on first use (:func:`_unit`)."""
    # Imported here: repro.obs and the speculative driver import the
    # replay drivers, which import the system, which imports this
    # module.
    from repro.core.speculative import _DeferredBus, _DeferredNotes, _resync
    from repro.obs.events import EventKind

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
    namespace["_DIR_TRANSACT"] = DirectoryInterconnect.transact
    namespace.update({f"_DIR_{s.name}": s for s in DirState})
    namespace["_DirectoryEntry"] = DirectoryEntry
    namespace["_NETWORK"] = EventKind.NETWORK
    namespace["_NESTED"] = _NESTED
    namespace["_is_clustered"] = _is_clustered
    namespace["_DeferredBus"] = _DeferredBus
    namespace["_DeferredNotes"] = _DeferredNotes
    namespace["_resync"] = _resync
    namespace["_units"] = {}
    return namespace


def _compiled(spec) -> dict:
    """The namespace for *spec*, built once and cached by name.

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


def _unit(spec, system, kernel: bool) -> dict:
    """The namespace of *spec*'s handlers (``_bind``) or kernel
    (``_open``) in the variant *system* runs: the network charge only
    for a K ≥ 2 cluster, the inline directory transaction only in the
    kernel of a directory backend.  Each variant compiles once, into
    its own copy of the spec's namespace."""
    namespace = _compiled(spec)
    clustered = _is_clustered(system)
    if kernel:
        directory = isinstance(system.interconnect, DirectoryInterconnect)
        key = ("kernel", directory, clustered)
    else:
        key = ("bind", clustered)
    unit = namespace["_units"].get(key)
    if unit is None:
        source = (
            _kernel_source(spec, directory, clustered) if kernel
            else _bind_source(spec, clustered)
        )
        unit = dict(namespace)
        exec(compile(source, f"<repro-codegen:{spec.name}>", "exec"), unit)
        namespace["_units"][key] = unit
    return unit


def bind_handlers(system) -> Dict[str, Callable]:
    """*system*'s generated dispatch-table handlers, by attribute name
    (the names of :data:`_HANDLERS`), compiled from its protocol
    spec."""
    return _unit(system.protocol_spec, system, False)["_bind"](system)


def open_session(system, buffer, start: int, stop: int):
    """Open a :class:`KernelSession` of *system*'s protocol over
    references ``[start, stop)`` of *buffer*, or return ``None`` for an
    empty range or a (system, trace) pair outside the kernel's envelope.
    """
    return _unit(system.protocol_spec, system, True)["_open"](
        system, buffer, start, stop
    )
