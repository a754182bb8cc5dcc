"""Trace-driven replay: run a captured reference stream through a cache.

The paper's tools run execution-driven (emulator and cache simulator in
lockstep).  Here the workload's reference stream does not depend on the
cache, so the emulator only records it and this module replays one
captured :class:`~repro.trace.buffer.TraceBuffer` — for the run's own
statistics (:func:`repro.cluster.replay.replay_machine`) and against any
number of :class:`~repro.core.config.SimulationConfig` variants.

Lock conflicts cannot re-arise during replay (the captured global order
already serialized them), so contended operations carry a trace flag and
the system re-enacts the LH response and UL broadcast from it.

The coherence execution mode is part of the config
(``SimulationConfig.speculation``): :func:`replay` runs a LazyPIM
config's speculative batches wherever it is given one.  A driver that
cuts the trace into ranges of its own (the machine's replay, windowed
metrics, telemetry chunks) would make its range boundaries batch
boundaries, so it refuses such a config (:func:`refuse_lazypim`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Iterator, Optional

from repro.core.config import MODES, SimulationConfig
from repro.core.protocol import codegen
from repro.core.stats import SystemStats
from repro.core.system import BLOCKED, N_AREAS, N_OPS, PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_NAMES, OP_NAMES

#: Default check period (in references) for ``REPRO_CHECK_INVARIANTS=1``.
DEFAULT_INVARIANT_INTERVAL = 4096


class ReplayBlockedError(RuntimeError):
    """A replayed reference hit a remotely held lock (``BLOCKED``).

    Captured traces are globally serialized at generation time, so a
    blocked reference means the trace was hand-built or corrupted; the
    offending trace index, PE, operation and address are attached for
    diagnosis.
    """

    def __init__(self, index: int, pe: int, op: int, area: int, address: int):
        self.index = index
        self.pe = pe
        self.op = op
        self.area = area
        self.address = address
        super().__init__(
            f"replay blocked at trace index {index}: PE{pe} "
            f"{OP_NAMES[op]} {AREA_NAMES[area]}[{address:#x}] hit a "
            "remotely held lock; captured traces serialize lock "
            "conflicts, so this trace was hand-built or corrupted"
        )

    def __reduce__(self):
        # Rebuild from the constructor's arguments, so the error crosses
        # a worker's pipe intact instead of failing to unpickle.
        return (
            ReplayBlockedError,
            (self.index, self.pe, self.op, self.area, self.address),
        )

    def at(self, offset: int) -> "ReplayBlockedError":
        """The same reference, indexed *offset* further along the trace:
        drivers that replay a separate buffer (a streamed chunk)
        re-raise with that buffer's position in the whole stream."""
        return ReplayBlockedError(
            self.index + offset, self.pe, self.op, self.area, self.address
        )


def invariant_check_interval(
    default: int = DEFAULT_INVARIANT_INTERVAL,
) -> Optional[int]:
    """Parse the ``REPRO_CHECK_INVARIANTS`` debug toggle.

    Unset / ``0`` / ``off`` disables periodic invariant checking (the
    default); ``1`` / ``on`` enables it at *default* granularity; any
    other integer is used as the period itself, in replayed references
    (an execution-driven run's statistics are a replay too).
    """
    raw = os.environ.get("REPRO_CHECK_INVARIANTS")
    if raw is None:
        return None
    value = raw.strip().lower()
    if value in ("", "0", "off", "no", "false", "none"):
        return None
    if value in ("1", "on", "yes", "true"):
        return default
    try:
        period = int(value)
    except ValueError:
        return default
    return max(1, period)


def refuse_lazypim(config: SimulationConfig, driver: str) -> None:
    """Raise ``ValueError`` if *config* runs LazyPIM: *driver* replays
    per access or in ranges of its own, whose boundaries would become
    batch boundaries, so it cannot honour the mode."""
    if config.speculation.mode == "lazypim":
        raise ValueError(
            f"{driver} cannot honour a lazypim config; run it under "
            "config.with_mode('pessimistic') and replay() the trace "
            "under the lazypim config"
        )


def replay_access_driven(
    buffer: TraceBuffer,
    system,
    values=None,
    on_result=None,
    check_invariants_every: Optional[int] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> SystemStats:
    """Drive references ``[start, stop)`` of *buffer* through
    ``system.access`` one at a time.

    The reference replay loop: per-access dispatch with full
    bookkeeping, raising :class:`ReplayBlockedError` with the buffer
    position of a blocked reference (and ``ValueError`` up front for an
    out-of-range op or area code), and running
    ``system.check_invariants()`` whenever the position of the next
    reference is a multiple of *check_invariants_every* (and once more
    at the end).  *system* is anything with the access-system surface
    (``access``, ``check_invariants``, ``stats``) — a
    :class:`PIMCacheSystem` or a
    :class:`~repro.cluster.system.ClusteredSystem`.

    Two hooks exist for the differential oracle in
    :mod:`repro.verify.oracle`:

    * ``values(index) -> int`` supplies the data word a write-like
      reference stores (traces carry no value column, so the oracle
      derives values deterministically from the buffer position);
    * ``on_result(index, pe, op, area, address, result)`` observes every
      access result, ``result`` being the ``(cycles, flags, value)``
      tuple — the seam the word-granularity reference model checks
      read values through.
    """
    access = system.access
    if stop is None:
        stop = len(buffer)
    columns = [memoryview(column)[start:stop] for column in buffer.columns()]
    op_col, area_col = columns[1], columns[2]
    if stop > start and not (
        0 <= min(op_col) <= max(op_col) < N_OPS
        and 0 <= min(area_col) <= max(area_col) < N_AREAS
    ):
        raise ValueError("trace contains an out-of-range op or area code")
    index = start - 1
    for index, (pe, op, area, addr, flags) in enumerate(zip(*columns), start):
        value = values(index) if values is not None else 0
        result = access(pe, op, area, addr, value, flags)
        if result[0] == BLOCKED:
            raise ReplayBlockedError(index, pe, op, area, addr)
        if on_result is not None:
            on_result(index, pe, op, area, addr, result)
        if check_invariants_every and (index + 1) % check_invariants_every == 0:
            system.check_invariants()
    if check_invariants_every and index >= start:
        system.check_invariants()
    return system.stats


def replay(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    check_invariants_every: Optional[int] = None,
    system: Optional[PIMCacheSystem] = None,
    mode: Optional[str] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> SystemStats:
    """Replay references ``[start, stop)`` of *buffer* (the whole
    buffer by default) and return the system's stats.

    The loop is the protocol's generated kernel
    (:mod:`repro.core.protocol.codegen`).  Where that kernel declines
    the (system, trace) pair — data tracking, or PEs and addresses
    outside its packed-key envelope — the per-access
    :func:`replay_access_driven` runs instead; it is also the
    differential oracle's reference.  The per-access loop also runs
    when the system has a probe attached (the kernel inlines cache hits
    past the probed dispatch table) and when invariant checks are on:
    ``check_invariants_every`` (or the ``REPRO_CHECK_INVARIANTS``
    environment toggle — see :func:`invariant_check_interval`)
    validates the coherence invariants every N references.

    The coherence execution mode is the config's
    ``speculation.mode`` (*system*'s config when a system is given):
    ``"pessimistic"`` is the paper's per-access protocol;
    ``"lazypim"`` delegates to
    :func:`repro.core.speculative.replay_speculative` — speculative
    batches of ``speculation.batch_refs`` references with
    ``speculation.signature_bits``-wide conflict signatures, settled in
    bulk or rolled back.  *mode*, when given, overrides the config's
    mode and keeps its batch knobs.  The interconnect backends and the
    invariant toggle behave identically in either mode.

    *system* replays into a caller-built system instead of a fresh one
    built from *config*/*n_pes* (which it overrides) — the hook
    streaming uses to carry one live system across chunks (drivers of
    many ranges of one buffer use :func:`replay_ranges`, which prepares
    the kernel once for all of them).  A config with
    ``cluster.n_clusters > 1``, or a
    :class:`~repro.cluster.system.ClusteredSystem` as *system*, replays
    each cluster's shard of the range into that cluster's bus and
    returns the merged machine-wide stats (docs/CLUSTER.md); a
    :class:`~repro.cluster.system.ClusterCacheSystem` charges its
    network from the generated kernel and handlers alike.  Replaying
    ``[0, b)`` then ``[b, n)`` into one system equals replaying
    ``[0, n)`` (under ``"lazypim"``, for ``b`` a batch boundary), and a
    blocked reference is reported with its position and PE in *buffer*.
    """
    if system is None:
        if config is None:
            config = SimulationConfig()
        clustered = config.cluster.n_clusters > 1
    else:
        from repro.cluster.system import ClusteredSystem

        clustered = isinstance(system, ClusteredSystem)
    if mode is None:
        mode = (config if system is None else system.config).speculation.mode
    elif mode not in MODES:
        raise ValueError(f"unknown replay mode {mode!r}; choose from {MODES}")
    if clustered:
        from repro.cluster.replay import _replay_clustered

        return _replay_clustered(
            buffer, config, n_pes, system, start, stop,
            check_invariants_every=check_invariants_every, mode=mode,
        )
    if mode == "lazypim":
        from repro.core.speculative import replay_speculative

        return replay_speculative(
            buffer, config, n_pes, check_invariants_every, system,
            start=start, stop=stop,
        )
    if system is None:
        system = PIMCacheSystem(
            config, n_pes if n_pes is not None else buffer.n_pes
        )
    if stop is None:
        stop = len(buffer)
    with replay_ranges(
        buffer, system, start, stop, check_invariants_every
    ) as session:
        return session.run(start, stop)


class _AccessDriven:
    """:func:`replay_ranges`' stand-in for a kernel session where the
    kernel does not apply: each advance is a run of
    :func:`replay_access_driven` calls, which settle every counter as
    they go, so the fold has nothing to do."""

    def __init__(self, buffer, system, check_invariants_every, values,
                 on_result):
        self.system = system
        self._replay = partial(
            replay_access_driven, buffer, system, values=values,
            on_result=on_result,
            check_invariants_every=check_invariants_every,
        )

    def _range(self, lo: int, hi: int) -> None:
        self._replay(start=lo, stop=hi)

    def advance(self, lo: int, hi: int, batches=()) -> None:
        """Replay ``[lo, hi)``, one call per span: each clean batch of
        *batches* with its coherence deferred and then settled
        (:mod:`repro.core.speculative`), the stretches between them
        pessimistically."""
        from repro.core.speculative import _attempt, _settle

        system = self.system
        for start, stop in batches:
            if lo < start:
                self._range(lo, start)
            _settle(system, _attempt(system, self._range, start, stop))
            lo = stop
        if lo < hi:
            self._range(lo, hi)

    def fold(self) -> SystemStats:
        return self.system.stats

    def run(self, lo: int, hi: int) -> SystemStats:
        self.advance(lo, hi)
        return self.fold()


@contextmanager
def replay_ranges(
    buffer: TraceBuffer,
    system,
    start: int = 0,
    stop: Optional[int] = None,
    check_invariants_every: Optional[int] = None,
    values=None,
    on_result=None,
) -> Iterator["codegen.KernelSession"]:
    """Yield a session that replays consecutive ranges covering
    ``[start, stop)`` of *buffer* into *system*, in order.

    The segment drivers' one entry point.  ``session.run(lo, hi)``
    replays ``[lo, hi)`` and returns the settled stats;
    ``session.advance(lo, hi)`` replays it with the counters deferred
    until ``session.fold()``, and ``session.advance(lo, hi, batches)``
    also defers and settles the coherence of a speculative plan's clean
    batches (see :class:`~repro.core.protocol.codegen.KernelSession`).
    Where the generated kernel applies — no invariant checks, no probe,
    no oracle hooks, and a (system, trace) pair inside its envelope —
    this is one kernel session for the whole span, so the kernel
    prepares once.  Otherwise every advance runs :func:`replay_access_driven`
    with the given invariant period (``None`` reads the
    ``REPRO_CHECK_INVARIANTS`` toggle) and hooks, and nothing is
    deferred.
    """
    if stop is None:
        stop = len(buffer)
    if check_invariants_every is None:
        check_invariants_every = invariant_check_interval()
    session = None
    if (
        not check_invariants_every
        and values is None
        and on_result is None
        and system.probe is None
    ):
        session = codegen.open_session(system, buffer, start, stop)
    if session is None:
        yield _AccessDriven(
            buffer, system, check_invariants_every, values, on_result
        )
        return
    with session:
        yield session
