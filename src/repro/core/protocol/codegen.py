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
  back* to a handler subtracted out, so a run of conflict-free hits is
  counted in bulk after the fact.

The kernel is a **session** over one position range ``[start, stop)``
of a buffer.  :func:`open_session` classifies the dispatch cells and
preprocesses the whole range once; :meth:`~KernelSession.advance` then
replays consecutive sub-ranges ``[lo, hi)`` of it, tallying its
fallbacks and purges on the session; :meth:`~KernelSession.fold`
settles the deferred counters (PE clocks, hits, refs, hit service, DW
demotions, purges) of every position advanced since the last fold;
:meth:`~KernelSession.run` is the two in turn, so the system is fully
settled after it; and :meth:`~KernelSession.close` ends the session.
Segment drivers — speculative batches, windows, telemetry chunks — pay
the set-up once per replay instead of once per range, and a plain
replay is a session with one range.  The speculative driver advances
every span but folds once per replay: before each batch settlement it
only credits every PE's deferred hit cycles up to the batch end
(:meth:`~KernelSession.plan_credits` / :meth:`~KernelSession.credit`),
because the settlement reads the clocks and nothing else deferred.
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

The kernel keeps no copy of the cache directories: it probes the
residency index the caches themselves write, so every handler-driven
residency change (fills, evictions, invalidations, purges) is visible
to the next probe, within a range or across them.

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
envelope (residency keys would exceed :data:`MAX_KEY_BITS`, negative
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

#: Reference kinds, one byte per reference.  The loop branches on the
#: kind with threshold compares, so the order is load-bearing: the two
#: plain-hit kinds (R, ER) come first and share one branch, the two
#: silent-store kinds (W, DW) share the next, and fast kinds precede
#: ``KIND_SLOW`` and ``KIND_DUP`` (collapsed run tail), whose keys are
#: ``-1`` so they never reach the hit branches.
KIND_R, KIND_ER, KIND_W, KIND_DW, KIND_PURGE, KIND_SLOW, KIND_DUP = range(7)

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
    # this before dispatching (bus start times read the live clock).
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

    Built by :func:`open_session`; each protocol's generated subclass
    adds :meth:`advance`.  Use it as a context manager, or call
    :meth:`close` when done.
    """

    __slots__ = (
        "system", "_buffer", "_start", "_stop", "_pos", "_folded", "_kinds",
        "_prep", "_hot", "_done", "_fast_done", "_fallbacks", "_purges",
        "_credits", "_credited",
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
        # What the generated loop binds as locals on every advance.
        self._hot = (
            system._resident.get,
            prep.prefix.item,
            system._block_shift,
            system.caches,
            table,
        ) + tuple(buffer.columns())

    def __enter__(self) -> "KernelSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the session; it cannot run again.  Idempotent."""
        self._pos = None

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
                elif kind < {KIND_PURGE}:
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
        system.n_pes, system._pe_bits, kinds,
    )
    if prep is None:
        return None
    return _Session(system, buffer, start, stop, table, kinds, prep)


class _Session(KernelSession):
    __slots__ = ()

    def advance(self, lo, hi):
        """Replay references [lo, hi), continuing where the last advance
        stopped; the counters stay deferred to the fold."""
        keys, kinds = self._refs(lo, hi)
        (probe, prefix_at, shift, caches, table, pe_col, op_col, area_col,
         addr_col, flags_col) = self._hot
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
{w_branch}\
                else:
                    # KIND_PURGE, the one kind left that probes: a
                    # bus-free read-then-purge (RP hit, or ER hit on the
                    # block's last word).  Drop the line, settle the
                    # purge counters; hit count and cycle fold in bulk.
                    # The dying line's LRU stamp cannot affect any later
                    # victim choice, so gtick is not advanced.
                    p = pe_col[i]
                    blk = addr_col[i] >> shift
                    caches[p].remove(blk)
                    drop_holder(blk, p)
                    if line.state is _ST_EM or line.state is _ST_SM:
                        pdirty += 1
                    else:
                        pclean += 1
                    continue
            elif kind == {KIND_DUP}:
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
            if kind < {KIND_SLOW}:
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
