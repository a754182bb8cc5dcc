"""Compile a :class:`ProtocolSpec` into a specialized replay kernel.

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
  hit totals are counted from the trace columns of the replayed range
  (``np.bincount``), with the (rare) fast-kind references that *fell
  back* to a handler subtracted out, so a run of conflict-free hits is
  counted in bulk after the fact.

The kernel is a **session** over one position range ``[start, stop)``
of a buffer.  :func:`open_session` classifies the dispatch cells,
preprocesses the whole range once and attaches the flat mirror to the
caches once; :meth:`~KernelSession.advance` then replays consecutive
sub-ranges ``[lo, hi)`` of it, tallying its fallbacks and purges on the
session; :meth:`~KernelSession.fold` settles the deferred counters (PE
clocks, hits, refs, hit service, DW demotions, purges) of every
position advanced since the last fold; :meth:`~KernelSession.run` is
the two in turn, so the system is fully settled after it; and
:meth:`~KernelSession.close` detaches the mirror.  Segment drivers —
speculative batches, windows, telemetry chunks — pay the set-up once
per replay instead of once per range, and a plain replay is a session
with one range.  The speculative driver advances every span but folds
once per replay: before each batch settlement it only credits every
PE's deferred hit cycles up to the batch end
(:meth:`~KernelSession.plan_credits` / :meth:`~KernelSession.credit`),
because the settlement reads the clocks and nothing else deferred.
Every position of the range must pass through the session, in order: an
``advance`` that does not continue where the last one stopped raises
instead of mis-crediting clocks.  A blocked reference is
reported by its position in the buffer.  Preprocessing is itself
cached (single slot, :data:`_PREP_CACHE`): the packed keys depend only
on the buffer range, the block geometry and the cell classification,
all of which are shared across the repeated replays of a parameter
sweep or benchmark, so every session after the first starts straight
at the loop.  Trace code validation (op/area ranges) happens inside
preprocessing, raising the same ``ValueError`` as the per-access loop.

Timing stays bit-exact.  ``_bus`` starts every transaction at
``max(pe_clock + 1, bus_free_at)``, so the requester's clock must
include all of its earlier hit cycles *before* any handler runs; the
kernel precomputes a per-PE running count of fast-kind references over
the session's range (``prefix``) and, on each slow reference, credits
the requester's not yet accounted hits into the live clock before
dispatching.  Only the requester's clock is ever read by a handler, so
other PEs' credits stay deferred until the end of the range.  LRU
stamps come from one kernel-wide counter instead of the per-cache
``_tick`` counters: replacement only compares stamps within one cache,
and a counter strictly increasing across all touches preserves every
within-cache order.  It is synced into the requester's ``_tick`` around
each handler call and into every cache at the end of a range.

The flat mirror is kept exact by :class:`~repro.core.cache.Cache`
itself: while a session is open, each cache carries a ``_mirror``
reference and mirrors every ``insert``/``remove``/``flush`` into it, so
handler-driven residency changes (fills, evictions, invalidations,
purges) are visible to the next probe, within a range or across them.

The pluggable interconnect needs no kernel specialization: every cycle
a backend charges lives behind the handlers' ``system._bus`` binding
(:mod:`repro.core.interconnect`), which the slow path reaches through
the dispatch table exactly as :meth:`PIMCacheSystem.access` does, and
the only residency change the fast paths make without a handler — the
inline read-purge — notifies the home-node directory through the
``system._drop_holder`` hook the purge handler calls.  Handlers read
those bindings at call time, so a driver may swap them between ranges
(the speculative recorder does).  A generated kernel is therefore
bit-identical to the per-access loop under either backend, which the
goldens and the differential oracle check.

Kernels are emitted as Python source, ``compile()``d once at
registration, and cached by spec name (:func:`get_kernel`).  A session
does not open (:func:`open_session` returns ``None``) for an empty
range or when a (system, trace) pair falls outside the kernel's
envelope (packed keys would exceed :data:`MAX_KEY_BITS`, negative
addresses, out-of-range PEs, data tracking, no caches); the caller then
runs :func:`repro.core.replay.replay_access_driven` instead.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.states import CacheState
from repro.trace.events import Area, Op

__all__ = ["KernelSession", "get_kernel", "kernel_source", "open_session"]

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

#: name -> (spec object, compiled namespace); identity-checked so a
#: re-registered or temporarily shadowed spec recompiles.
_CACHE: Dict[str, Tuple[object, dict]] = {}


class _Prep(NamedTuple):
    """A preprocessed range: everything a session needs besides the live
    system, indexed from the range's start."""

    #: Packed key per reference (``KIND_DUP`` tags for run tails).
    keys: List[int]
    #: Per-PE running count of fast-kind references before each index.
    prefix: np.ndarray
    #: The whole range's fold tables (see :func:`_range_counts`).
    counts: tuple
    pe_shift: int
    tag_shift: int
    #: Real block -> dense id, or ``None`` for raw block keys.
    remap: Optional[Dict[int, int]]
    #: Dense id -> real block (inverse of ``remap``).
    blocks_by_id: Optional[List[int]]
    #: Length of the flat-list mirror, or ``None`` for the dict mirror.
    flat_size: Optional[int]


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


def _preprocess(buffer, start, stop, shift, block_mask, n_pes, kinds):
    """Pack ``buffer[start:stop]`` into per-reference keys plus bulk-fold
    tables, indexed from *start*.

    Returns a :class:`_Prep`, or ``None`` when the trace is outside the
    generated kernel's envelope.  Raises ``ValueError`` for op/area
    codes out of range, as the per-access loop does.  Results are cached
    across calls with the same buffer range and parameters (see
    :data:`_PREP_CACHE`).
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
    counts = _range_counts(buffer, start, stop, kinds, n_pes)
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

    # Per-PE running count of fast-kind references before each index:
    # the slow path credits the requester's deferred hit cycles from
    # this before dispatching (bus start times read the live clock).
    prefix = np.empty(n, np.int64)
    fast64 = (kind < KIND_SLOW).astype(np.int64)
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
    payload = _Prep(
        keys=key.tolist(),
        prefix=prefix,
        counts=counts,
        pe_shift=pe_shift,
        tag_shift=tag_shift,
        remap=remap,
        blocks_by_id=blocks_by_id,
        flat_size=flat_size,
    )
    _PREP_CACHE = (buffer, (start, stop), params, payload)
    return payload


class KernelSession:
    """A generated kernel prepared over references ``[start, stop)`` of
    one buffer, with the flat mirror attached to the system's caches.

    Built by :func:`open_session`; each protocol's generated subclass
    adds :meth:`advance`.  Use it as a context manager, or call
    :meth:`close` when done, so the caches drop the mirror.
    """

    __slots__ = (
        "system", "_buffer", "_start", "_stop", "_pos", "_folded", "_kinds",
        "_prep", "_hot", "_done", "_fast_done", "_fallbacks", "_purges",
        "_credits", "_credited",
    )

    def __init__(self, system, buffer, start, stop, table, kinds, prep):
        caches = system.caches
        n_pes = system.n_pes
        pe_shift = prep.pe_shift
        tag_shift = prep.tag_shift
        remap = prep.remap
        self.system = system
        self._buffer = buffer
        self._start = start
        self._stop = stop
        self._pos = start
        self._folded = start
        self._kinds = kinds
        self._prep = prep
        # Per PE: fast-kind references before the last folded position,
        # and how many references before the next position are accounted
        # for (credited to the clock, or fallen back to a handler that
        # charged its own cycles).
        self._fast_done = [0] * n_pes
        self._done = [0] * n_pes
        # Unfolded tallies: fallbacks per dispatch cell, and the inline
        # purges as [dirty, clean].
        self._fallbacks = [0] * N_CELLS
        self._purges = [0, 0]
        self._credits = None
        self._credited = 0

        # Flat cross-PE mirror of every cache's directory, aliased under
        # every fast-kind tag so packed keys probe it unmasked — a dense
        # list when preprocessing could renumber the blocks, else a
        # dict; Cache.insert/remove/flush keep it exact while _mirror is
        # attached.
        if prep.flat_size is not None:
            flat = [None] * prep.flat_size
            probe = flat.__getitem__
        else:
            flat = {}
            probe = flat.get
        for p in range(n_pes):
            cache = caches[p]
            bases = tuple(
                (t << tag_shift) | (p << pe_shift) for t in range(KIND_SLOW)
            )
            for blk, line in cache._lines.items():
                index = blk if remap is None else remap.get(blk)
                if index is not None:
                    for base in bases:
                        flat[base | index] = line
            cache._mirror = flat
            cache._mirror_bases = bases
            cache._mirror_remap = remap
        # What the generated loop binds as locals on every advance.
        self._hot = (
            probe,
            prep.prefix.item,
            KIND_W << tag_shift,
            KIND_PURGE << tag_shift,
            KIND_SLOW << tag_shift,
            KIND_DUP << tag_shift,
            (1 << tag_shift) - 1,
            (1 << pe_shift) - 1,
            pe_shift,
            system._block_shift,
            prep.blocks_by_id,
            caches,
            table,
        ) + tuple(buffer.columns())

    def __enter__(self) -> "KernelSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Detach the mirror from the caches; the session cannot run
        again.  Idempotent."""
        self._pos = None
        for cache in self.system.caches:
            cache._mirror = None
            cache._mirror_remap = None

    def _keys(self, lo: int, hi: int) -> List[int]:
        """Claim ``[lo, hi)`` for an advance and return its packed keys.

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
        keys = prep.keys
        a = lo - self._start
        b = hi - self._start
        if a == 0 and b == len(keys):
            return keys
        keys = keys[a:b]
        if keys and keys[0] >> prep.tag_shift == KIND_DUP:
            # A collapsed run tail heading the range replays with its
            # real key, so the range stands on its own.
            pe_col, op_col, area_col, addr_col, _ = self._buffer.columns()
            block = addr_col[lo] >> self.system._block_shift
            keys[0] = (
                self._kinds[op_col[lo] * N_AREAS + area_col[lo]]
                << prep.tag_shift
                | pe_col[lo] << prep.pe_shift
                | (block if prep.remap is None else prep.remap[block])
            )
        return keys

    def run(self, lo: int, hi: int):
        """Replay references ``[lo, hi)``, continuing where the last
        advance stopped, and fold; returns the stats."""
        self.advance(lo, hi)
        return self.fold()

    def fold(self):
        """Fold the deferred counters of every position advanced since
        the last fold — clocks, hit service, hits, DW demotions, purges
        and refs — and return the stats."""
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
        # one bus-free cycle; fallback handlers credit their own
        # bus-free sites.
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
        stats.purges_dirty += self._purges[0]
        stats.purges_clean += self._purges[1]
        self._fallbacks = [0] * N_CELLS
        self._purges = [0, 0]
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
        f"        _{s.name} = _ST_{s.name}" for s in used
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
def _open(system, buffer, start, stop):
    """Open a {spec.name!r} kernel session over [start, stop) of buffer.

    Compiled by repro.core.protocol.codegen at registration.  Returns
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
    kinds = tuple(kinds)

    prep = _preprocess(
        buffer, start, stop, system._block_shift, system._block_mask,
        system.n_pes, kinds,
    )
    if prep is None:
        return None
    return _Session(system, buffer, start, stop, table, kinds, prep)


class _Session(KernelSession):
    __slots__ = ()

    def advance(self, lo, hi):
        """Replay references [lo, hi), continuing where the last advance
        stopped; the counters stay deferred to the fold."""
        keys = self._keys(lo, hi)
        (probe, prefix_at, W_TAG, PURGE_TAG, SLOW_TAG, DUP_TAG, KEY_MASK,
         BLK_MASK, pe_shift, shift, blocks_by_id, caches, table, pe_col,
         op_col, area_col, addr_col, flags_col) = self._hot
{aliases}
        start = self._start
        system = self.system
        waiting = system._waiting
        pe_cycles = system._pe_cycles
        drop_holder = system._drop_holder
        done = self._done
        fb_cells = self._fallbacks
        pdirty = pclean = 0
        gtick = max(map(_tick_of, caches))
        i = lo - 1
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
            # Slow path: credit the requester's unaccounted hit cycles,
            # then dispatch through the table exactly as access() does.
            pe = pe_col[i]
            op = op_col[i]
            area = area_col[i]
            address = addr_col[i]
            before = prefix_at(i - start)
            if before != done[pe]:
                pe_cycles[pe] += before - done[pe]
                done[pe] = before
            if k < SLOW_TAG:
                # A fast kind that missed: its handler charges it.
                fb_cells[op * {N_AREAS} + area] += 1
                done[pe] += 1
            cache = caches[pe]
            cache._tick = gtick
            result = table[op][area](
                pe, op, area, address, address >> shift, 0, flags_col[i]
            )
            gtick = cache._tick
            if result[0] == -1:  # BLOCKED
                from repro.core.replay import ReplayBlockedError
                raise ReplayBlockedError(i, pe, op, area, address)
            if waiting:
                waiting.pop(pe, None)
        for cache in caches:
            cache._tick = gtick
        purges = self._purges
        purges[0] += pdirty
        purges[1] += pclean
        self._pos = hi


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
    namespace["_preprocess"] = _preprocess
    namespace["_tick_of"] = attrgetter("_tick")
    namespace["KernelSession"] = KernelSession
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


def open_session(system, buffer, start: int, stop: int):
    """Open a :class:`KernelSession` of *system*'s protocol over
    references ``[start, stop)`` of *buffer*, or return ``None`` for an
    empty range or a (system, trace) pair outside the kernel's envelope.
    """
    return _compiled(system.protocol_spec)["_open"](
        system, buffer, start, stop
    )
