"""Compile a :class:`ProtocolSpec` into a specialized replay kernel.

This is the production replay loop (:func:`repro.core.replay.replay`
calls it for every pessimistic replay).  A per-reference loop over the
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
  exclusive-read, read-purge, or slow);
* the replayed range is preprocessed (numpy) into one packed integer per
  reference — ``kind << tag_shift | pe << pe_shift | block`` — and the
  flat cross-PE directory mirror is *aliased* under every fast-kind
  tag, so the packed key probes it without masking; the probe itself
  runs inside a ``zip(keys, map(probe, keys))`` iterator at C speed,
  leaving the loop body only a threshold compare on the tag and the LRU
  stamp per hit.  Distinct block numbers are densely renumbered when
  the resulting key space is small (the common case), which turns the
  mirror into a flat *list* probed by ``list.__getitem__``; otherwise
  the mirror is a dict over the raw packed keys, still machine-word
  integers with cheap hashes;
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
  hit totals are ``np.bincount`` folds of the preprocessed columns, with
  the (rare) fast-kind references that *fell back* to a handler
  subtracted out, so a run of conflict-free hits is counted in bulk
  after the fact.

A kernel replays one position range ``[start, stop)`` of its buffer:
preprocessing reads the range through zero-copy numpy views, and the
slow path indexes the buffer's columns by position, so segment drivers
(windows, speculative batches, telemetry chunks) replay ranges of one
buffer instead of sliced copies, and a blocked reference is reported by
its position in that buffer.  Preprocessing itself is
cached (single slot, :data:`_PREP_CACHE`): the packed keys depend only
on the buffer range, the block geometry and the cell classification,
all of which are shared across the repeated replays of a parameter
sweep or benchmark, so every replay after the first starts straight at
the loop.  Trace code validation (op/area ranges) happens inside
preprocessing, raising the same ``ValueError`` as the per-access loop.

Timing stays bit-exact.  ``_bus`` starts every transaction at
``max(pe_clock + 1, bus_free_at)``, so the requester's clock must
include all of its earlier hit cycles *before* any handler runs; the
kernel precomputes a per-PE running count of fast-kind references
(``prefix``) and, on each slow reference, credits the requester's
deferred hits (``prefix[i]`` minus its fallbacks so far) into the live
clock before dispatching.  Only the requester's clock is ever read by a
handler, so other PEs' credits can stay deferred until the end.
LRU stamps come from one kernel-wide counter instead of the per-cache
``_tick`` counters: replacement only compares stamps within one cache,
and a counter strictly increasing across all touches preserves every
within-cache order.  It is synced into the requester's ``_tick`` around
each handler call.

The flat mirror dict is kept exact by :class:`~repro.core.cache.Cache`
itself: while a generated kernel runs, each cache carries a ``_mirror``
reference and mirrors every ``insert``/``remove``/``flush`` into it, so
handler-driven residency changes (fills, evictions, invalidations,
purges) are visible to the next probe.

The pluggable interconnect needs no kernel specialization: every cycle
a backend charges lives behind the handlers' ``system._bus`` binding
(:mod:`repro.core.interconnect`), which the slow path reaches through
the dispatch table exactly as :meth:`PIMCacheSystem.access` does, and
the only residency change the fast paths make without a handler — the
inline read-purge — notifies the home-node directory through the
``system._drop_holder`` hook the purge handler calls.  A generated
kernel is therefore bit-identical to the per-access loop under either
backend, which the goldens and the differential oracle check.

Kernels are emitted as Python source, ``compile()``d once at
registration, and cached by spec name (:func:`get_kernel`).  A kernel
returns ``None`` when a (system, trace) pair falls outside its envelope
(packed keys would exceed :data:`MAX_KEY_BITS`, negative addresses,
out-of-range PEs, data tracking, no caches); the caller then falls back
to :func:`repro.core.replay.replay_access_driven`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.states import CacheState
from repro.trace.events import Area, Op

__all__ = ["get_kernel", "kernel_source"]

N_OPS = len(Op)
N_AREAS = len(Area)
N_CELLS = N_OPS * N_AREAS

#: Reference kinds, by packed-key tag order.  The loop branches on the
#: tag with threshold compares, so the order is load-bearing: the two
#: plain-hit kinds (R, ER) come first and share one branch, the two
#: silent-store kinds (W, DW) share the next, fast kinds precede
#: ``KIND_SLOW``, and ``KIND_DUP`` (collapsed run tail) sorts last so
#: the hit branches never test for it.
KIND_R, KIND_ER, KIND_W, KIND_DW, KIND_PURGE, KIND_SLOW, KIND_DUP = range(7)

#: Packed-key layout: ``kind << tag_shift | pe << pe_shift | block``,
#: with the pe/block widths sized per trace.  Three tag bits cover the
#: seven kinds; beyond ``MAX_KEY_BITS`` total the trace is out of the
#: kernel's envelope.  When the trace's *distinct* block set is small
#: enough that a dense renumbering keeps the whole key space under
#: ``MAX_FLAT_LIST`` slots, the directory mirror is a flat list probed
#: by ``list.__getitem__`` (the fastest probe Python offers); otherwise
#: it is a dict over the raw packed keys.
N_TAG_BITS = 3
MAX_KEY_BITS = 60
MAX_FLAT_LIST = 1 << 21

#: Silent-store ``is``-test emission order: hottest states first (a
#: store hit on an exclusive-modified block is the common case).
_SILENT_TEST_ORDER = (
    CacheState.EM,
    CacheState.EC,
    CacheState.SM,
    CacheState.S,
)

#: name -> (spec object, compiled kernel); identity-checked so a
#: re-registered or temporarily shadowed spec recompiles.
_CACHE: Dict[str, Tuple[object, Callable]] = {}

#: Single-slot preprocessing cache: ``(buffer, (start, stop), params,
#: payload)``.  Sweeps and benchmarks replay one trace under many
#: configs, so one slot captures the reuse; buffers are append-only, so
#: a range of a buffer never changes once written.  Holding the buffer
#: strongly keeps the cached arrays valid for its lifetime.
_PREP_CACHE: Optional[Tuple[object, Tuple[int, int], tuple, tuple]] = None


def _preprocess(buffer, start, stop, shift, block_mask, n_pes, kinds):
    """Pack ``buffer[start:stop]`` into per-reference keys plus bulk-fold
    tables, indexed from *start*.

    Returns ``(keys, prefix, total_cells, total_pe, refs_pairs,
    pe_shift, tag_shift, remap, blocks_by_id, flat_size)``, or ``None``
    when the trace is outside the generated kernel's envelope.  Raises
    ``ValueError`` for op/area codes out of range, as the per-access
    loop does.  Results are cached across calls with the same buffer
    range and parameters (see :data:`_PREP_CACHE`).
    """
    global _PREP_CACHE
    n = stop - start
    params = (shift, block_mask, n_pes, kinds)
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
    pe_bits = max(1, (n_pes - 1).bit_length())

    # Dense block renumbering: replaying probes only blocks the trace
    # actually references, so distinct block numbers are renumbered
    # 0..U-1 and, when the resulting key space is small, the directory
    # mirror becomes a flat list — probed by list.__getitem__ instead
    # of dict hashing.  ``remap`` translates real block numbers (as
    # handlers see them) into dense ids for the mirror bookkeeping, and
    # ``blocks_by_id`` translates back for the inline purge path.
    blocks = addr >> shift
    uniques, inverse = np.unique(blocks, return_inverse=True)
    dense_bits = max(1, (len(uniques) - 1).bit_length())
    if (KIND_DUP << (dense_bits + pe_bits)) < MAX_FLAT_LIST:
        pe_shift = dense_bits
        block_col = inverse.astype(np.int64)
        unique_list = uniques.tolist()
        remap = dict(zip(unique_list, range(len(unique_list))))
        blocks_by_id = unique_list
        flat_size = (KIND_DUP << (dense_bits + pe_bits)) + 1
    else:
        block_bits = max(1, (int(addr.max()) >> shift).bit_length())
        if N_TAG_BITS + pe_bits + block_bits > MAX_KEY_BITS:
            return None
        pe_shift = block_bits
        block_col = blocks
        remap = None
        blocks_by_id = None
        flat_size = None
    tag_shift = pe_shift + pe_bits

    cell = op8.astype(np.int64) * N_AREAS + area8
    kind = np.array(kinds, np.int64)[cell]
    if KIND_ER in kinds:
        # An ER on a block's last word purges after the read; promote it
        # to the purge fast path instead of deciding per reference.
        kind[(kind == KIND_ER) & ((addr & block_mask) == block_mask)] = \
            KIND_PURGE
    key = (
        (kind << tag_shift)
        | (pe8.astype(np.int64) << pe_shift)
        | block_col
    )

    fast = kind < KIND_SLOW
    total_cells = np.bincount(cell[fast], minlength=N_CELLS).tolist()
    total_pe = np.bincount(pe8[fast], minlength=n_pes).tolist()
    # Per-PE running count of fast-kind references before each index:
    # the slow path credits the requester's deferred hit cycles from
    # this before dispatching (bus start times read the live clock).
    prefix = np.empty(n, np.int64)
    fast64 = fast.astype(np.int64)
    for p in range(n_pes):
        sel = pe8 == p
        run = np.cumsum(fast64[sel])
        prefix[sel] = run - fast64[sel]

    if n > 1:
        # Conflict-free same-PE runs: a reference with the same packed
        # key as its predecessor (same PE, block, and kind) can only
        # repeat the head's hit outcome, because no other PE intervened
        # and a read miss always allocates — so the tail collapses to
        # KIND_DUP no-ops; its hits, cycles and LRU stamp fold in bulk.
        # Only the read-family kinds qualify: a store miss may write
        # through without allocating (write-once), and a purge removes
        # the very line its tail would need.
        dup = (key[1:] == key[:-1]) & (kind[1:] <= KIND_ER)
        if dup.any():
            key[1:][dup] = KIND_DUP << tag_shift
    keys = key.tolist()

    refs_hist = np.bincount(cell, minlength=N_CELLS)
    refs_pairs = [
        (c % N_AREAS, c // N_AREAS, int(refs_hist[c]))
        for c in range(N_CELLS)
        if refs_hist[c]
    ]
    payload = (keys, prefix, total_cells, total_pe, refs_pairs,
               pe_shift, tag_shift, remap, blocks_by_id, flat_size)
    _PREP_CACHE = (buffer, (start, stop), params, payload)
    return payload


def _silent_store_chain(spec) -> str:
    """The compiled silent-store hit path: one ``is`` test per silent
    state, state update only when the state actually changes."""
    silent = spec.silent_store_next()
    lines = []
    for state in _SILENT_TEST_ORDER:
        next_state = silent[state]
        if next_state is None:
            continue
        lines.append(f"                    if st is _{state.name}:")
        if next_state is not state:
            lines.append(
                f"                        line.state = _{next_state.name}"
            )
        lines.append("                        gtick += 1")
        lines.append("                        line.lru = gtick")
        lines.append("                        continue")
    return "\n".join(lines)


def _state_aliases(spec) -> str:
    """Local bindings for the states the hit paths touch."""
    silent = spec.silent_store_next()
    used = []
    for state in _SILENT_TEST_ORDER:
        next_state = silent[state]
        if next_state is None:
            continue
        for s in (state, next_state):
            if s not in used:
                used.append(s)
    return "\n".join(
        f"    _{s.name} = _ST_{s.name}" for s in used
    )


def kernel_source(spec) -> str:
    """Emit the replay-kernel source for *spec* (see module docstring)."""
    if spec.has_silent_stores:
        classify = (
            f"    write_h = table[{int(Op.W)}][0]\n"
            f"    dw_h = next(\n"
            f"        (h for h in table[{int(Op.DW)}] if h is not write_h),"
            " None\n"
            f"    )"
        )
        w_branch = f"""\
                elif k < PURGE_TAG:
                    st = line.state
{_silent_store_chain(spec)}
"""
        aliases = _state_aliases(spec)
    else:
        # Pure write-through family: no hit state absorbs a store, so
        # no write fast path is emitted and W/DW cells classify slow.
        classify = "    write_h = dw_h = None"
        w_branch = ""
        aliases = ""
    return f'''\
def _kernel(system, buffer, start, stop):
    """Generated replay kernel for the {spec.name!r} protocol.

    Compiled by repro.core.protocol.codegen at registration; replays
    references [start, stop) of buffer and returns the system's stats,
    or None when this (system, trace) pair is outside the kernel's
    envelope and the caller must fall back to the per-access loop.
    """
    from repro.core.replay import ReplayBlockedError

    caches = system.caches
    n_pes = system.n_pes
    if not caches or system.track_data:
        return None
    stats = system.stats
    if stop <= start:
        return stats

    # Classify every dispatch cell by handler identity, once per
    # replay instead of once per reference.
    table = system._op_table
    read_h = table[0][0]
    er_h = next(
        (h for h in table[{int(Op.ER)}] if h is not read_h), None
    )
    rp_h = next(
        (h for h in table[{int(Op.RP)}] if h is not read_h), None
    )
{classify}
{aliases}
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
            else:
                kinds.append({KIND_SLOW})

    shift = system._block_shift
    prep = _preprocess(
        buffer, start, stop, shift, system._block_mask, n_pes, tuple(kinds)
    )
    if prep is None:
        return None
    keys, prefix, total_cells, total_pe, refs_pairs, pe_shift, \\
        tag_shift, remap, blocks_by_id, flat_size = prep
    W_TAG = {KIND_W} << tag_shift
    PURGE_TAG = {KIND_PURGE} << tag_shift
    SLOW_TAG = {KIND_SLOW} << tag_shift
    DUP_TAG = {KIND_DUP} << tag_shift
    KEY_MASK = (1 << tag_shift) - 1
    BLK_MASK = (1 << pe_shift) - 1
    pe_col, op_col, area_col, addr_col, flags_col = buffer.columns()

    # Flat cross-PE mirror of every cache's directory, aliased under
    # every fast-kind tag so packed keys probe it unmasked — a dense
    # list when preprocessing could renumber the blocks, else a dict;
    # Cache.insert/remove/flush keep it exact while _mirror is
    # attached.
    if flat_size is not None:
        flat = [None] * flat_size
        probe = flat.__getitem__
    else:
        flat = {{}}
        probe = flat.get
    for p in range(n_pes):
        cache = caches[p]
        bases = tuple(
            (t << tag_shift) | (p << pe_shift)
            for t in range({KIND_SLOW})
        )
        for blk, line in cache._lines.items():
            index = blk if remap is None else remap.get(blk)
            if index is not None:
                for base in bases:
                    flat[base | index] = line
        cache._mirror = flat
        cache._mirror_bases = bases
        cache._mirror_remap = remap

    waiting = system._waiting
    pe_cycles = system._pe_cycles
    drop_holder = system._drop_holder
    fb_cells = [0] * {N_CELLS}
    fb_pe = [0] * n_pes
    consumed = [0] * n_pes
    pdirty = pclean = 0
    gtick = max(cache._tick for cache in caches)
    prefix_at = prefix.item
    i = start - 1
    try:
        # Probe-first: the probe runs inside the zip/map iterator at C
        # speed for every reference, and the aliased flat mirror makes
        # the packed key probe-ready without masking the tag off; the
        # Python-level branch then only has to sort hits by kind.
        for k, line in zip(keys, map(probe, keys)):
            i += 1
            if line is not None:
                if k < W_TAG:
                    gtick += 1
                    line.lru = gtick
                    continue
{w_branch}\
                elif k < SLOW_TAG:
                    # Bus-free read-then-purge (RP hit, or ER hit on
                    # the block's last word): drop the line, settle
                    # the purge counters; hit count and cycle fold in
                    # bulk.  The dying line's LRU stamp cannot affect
                    # any later victim choice, so gtick is not
                    # advanced.
                    kk = k & KEY_MASK
                    p = kk >> pe_shift
                    blk = kk & BLK_MASK
                    if blocks_by_id is not None:
                        blk = blocks_by_id[blk]
                    caches[p].remove(blk)
                    drop_holder(blk, p)
                    if line.state is _ST_EM or line.state is _ST_SM:
                        pdirty += 1
                    else:
                        pclean += 1
                    continue
            elif k >= DUP_TAG:
                # Collapsed tail of a conflict-free same-PE run.
                continue
            # Slow path: sync the requester's deferred hit cycles,
            # then dispatch through the table exactly as access() does.
            pe = pe_col[i]
            op = op_col[i]
            area = area_col[i]
            address = addr_col[i]
            before = prefix_at(i - start) - fb_pe[pe]
            if before != consumed[pe]:
                pe_cycles[pe] += before - consumed[pe]
                consumed[pe] = before
            if k < SLOW_TAG:
                fb_cells[op * {N_AREAS} + area] += 1
                fb_pe[pe] += 1
            cache = caches[pe]
            cache._tick = gtick
            result = table[op][area](
                pe, op, area, address, address >> shift, 0, flags_col[i]
            )
            gtick = cache._tick
            if result[0] == -1:  # BLOCKED
                raise ReplayBlockedError(i, pe, op, area, address)
            if waiting:
                waiting.pop(pe, None)
    finally:
        for cache in caches:
            cache._mirror = None
            cache._mirror_remap = None
    for cache in caches:
        cache._tick = gtick

    # Fold the deferred counters.
    for p in range(n_pes):
        pe_cycles[p] += total_pe[p] - fb_pe[p] - consumed[p]
    # Every non-fallback fast-kind reference (dup tails included) is one
    # bus-free cycle; fallback handlers credit their own bus-free sites.
    stats.hit_service_cycles += sum(total_pe) - sum(fb_pe)
    hits = system._hits
    for c in range({N_CELLS}):
        count = total_cells[c] - fb_cells[c]
        if count:
            hits[c % {N_AREAS}][c // {N_AREAS}] += count
    for c, kd in enumerate(kinds):
        if kd == {KIND_DW}:
            stats.dw_demotions += total_cells[c] - fb_cells[c]
    stats.purges_dirty += pdirty
    stats.purges_clean += pclean
    refs = stats.refs
    for a, o, count in refs_pairs:
        refs[a][o] += count
    return stats
'''


def _compile(spec) -> Callable:
    source = kernel_source(spec)
    namespace = {f"_ST_{s.name}": s for s in CacheState}
    namespace["_preprocess"] = _preprocess
    code = compile(source, f"<repro-codegen:{spec.name}>", "exec")
    exec(code, namespace)
    return namespace["_kernel"]


def get_kernel(spec) -> Callable:
    """The compiled kernel for *spec*, built once and cached by name.

    The cache is identity-checked against the spec object, so replacing
    a registration (or shadowing one with ``temporarily_register``)
    recompiles on next use instead of serving the stale kernel.
    """
    entry = _CACHE.get(spec.name)
    if entry is not None and entry[0] is spec:
        return entry[1]
    fn = _compile(spec)
    _CACHE[spec.name] = (spec, fn)
    return fn
