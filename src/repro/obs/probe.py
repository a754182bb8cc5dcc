"""The protocol probe: turns per-access state changes into events.

The probe is the counters-to-events bridge.  It is attached with
:meth:`repro.core.system.PIMCacheSystem.attach_probe`, which wraps every
dispatch-table handler so the probe snapshots cheap state before the
access and diffs it after — the handlers themselves are untouched, so
the uninstrumented hot path keeps its exact shape (and its performance:
with no probe attached the wrapping never happens).

Per access the probe emits:

* one ``TRANSITION`` event when the issuing PE's copy of the referenced
  block changed protocol state (misses, invalidating write hits,
  purges, DW allocations ...);
* one ``BUS`` event per bus access pattern charged (diffed from
  ``pattern_counts``, stamped with the bus clock);
* ``DEMOTION`` / ``PURGE`` / ``LOCK`` events diffed from the matching
  :class:`~repro.core.stats.SystemStats` counters.

Remote side effects (supplier state changes, invalidated sharers) ride
on the ``BUS`` events that caused them; diffing every remote cache per
access would make instrumented runs quadratic in PEs for little
diagnostic gain.
"""

from __future__ import annotations

from typing import Optional

from repro.core.states import BusPattern, CacheState
from repro.obs.events import EventKind, ProtocolEvent
from repro.obs.sink import EventSink

#: Pattern names as they appear in BUS event ``detail`` fields.
PATTERN_NAMES = tuple(p.name.lower() for p in BusPattern)

_STATE_NAMES = {state: state.name for state in CacheState}

#: (stats attribute, LOCK event detail) pairs diffed per access.
_LOCK_COUNTERS = (
    ("lh_responses", "LH"),
    ("unlocks_with_waiter", "UL"),
    ("lr_no_bus", "LR_NO_BUS"),
    ("lr_bus", "LR_BUS"),
    ("spurious_unlocks", "SPURIOUS_UNLOCK"),
)


class ProtocolProbe:
    """Observes one :class:`~repro.core.system.PIMCacheSystem`.

    ``ref`` tracks the zero-based ordinal of the access being observed
    (one access per trace reference on the replay paths); driver loops
    that know the true trace index may overwrite it between accesses.
    """

    def __init__(self, sink: EventSink):
        self.sink = sink
        self.seq = 0
        self.ref = -1
        #: Protocol name of the attached system; stamped on every event.
        self.protocol = ""
        self._system = None
        self._before: Optional[tuple] = None

    # -- lifecycle (called by PIMCacheSystem.attach_probe/detach_probe) --

    def attach(self, system) -> None:
        if self._system is not None:
            raise RuntimeError("probe is already attached to a system")
        self._system = system
        self.protocol = system.config.protocol

    def detach(self, system) -> None:
        if self._system is not system:
            raise RuntimeError("probe is not attached to this system")
        self._system = None

    # -- per-access hooks ------------------------------------------------

    def before_access(
        self, pe: int, op: int, area: int, address: int, block: int
    ) -> None:
        system = self._system
        stats = system.stats
        line = system.caches[pe].peek(block)
        self.ref += 1
        self._before = (
            line.state if line is not None else CacheState.INV,
            tuple(stats.pattern_counts),
            stats.dw_demotions,
            stats.er_demotions,
            stats.purges_clean,
            stats.purges_dirty,
            tuple(getattr(stats, name) for name, _ in _LOCK_COUNTERS),
            (
                stats.directory_forwards,
                stats.directory_invalidations,
                stats.directory_indirection_cycles,
            ),
        )

    def after_access(
        self, pe: int, op: int, area: int, address: int, block: int, result
    ) -> None:
        system = self._system
        stats = system.stats
        (
            state_before,
            patterns_before,
            dw_demotions,
            er_demotions,
            purges_clean,
            purges_dirty,
            locks_before,
            directory_before,
        ) = self._before
        pe_clock = stats.pe_cycles[pe]

        line = system.caches[pe].peek(block)
        state_after = line.state if line is not None else CacheState.INV
        if state_after is not state_before:
            self._emit(
                EventKind.TRANSITION, pe_clock, pe, op, area, address,
                f"{_STATE_NAMES[state_before]}->{_STATE_NAMES[state_after]}",
                block,
            )

        pattern_counts = stats.pattern_counts
        bus_clock = system.bus_free_at
        for index, before in enumerate(patterns_before):
            gained = pattern_counts[index] - before
            if gained:
                cycles = system._pattern_cost[index]
                for _ in range(gained):
                    self._emit(
                        EventKind.BUS, bus_clock, pe, op, area, address,
                        PATTERN_NAMES[index], cycles,
                    )

        if stats.dw_demotions != dw_demotions:
            self._emit(
                EventKind.DEMOTION, pe_clock, pe, op, area, address,
                "DW->W", block,
            )
        if stats.er_demotions != er_demotions:
            self._emit(
                EventKind.DEMOTION, pe_clock, pe, op, area, address,
                "ER->R", block,
            )
        if stats.purges_clean != purges_clean:
            self._emit(
                EventKind.PURGE, pe_clock, pe, op, area, address, "clean", block
            )
        if stats.purges_dirty != purges_dirty:
            self._emit(
                EventKind.PURGE, pe_clock, pe, op, area, address, "dirty", block
            )
        for (name, detail), before in zip(_LOCK_COUNTERS, locks_before):
            if getattr(stats, name) != before:
                self._emit(
                    EventKind.LOCK, pe_clock, pe, op, area, address, detail, block
                )

        fwd_before, inv_before, extra_before = directory_before
        forwards = stats.directory_forwards - fwd_before
        invals = stats.directory_invalidations - inv_before
        extra = stats.directory_indirection_cycles - extra_before
        if forwards or invals:
            self._emit(
                EventKind.DIRECTORY, pe_clock, pe, op, area, address,
                f"fwd={forwards} inval={invals}", extra,
            )

    # -- internals -------------------------------------------------------

    def _emit(
        self, kind: int, cycle: int, pe: int, op: int, area: int,
        address: int, detail: str, value: int,
    ) -> None:
        self.sink.emit(
            ProtocolEvent(
                self.seq, self.ref, cycle, kind, pe, op, area, address,
                detail, value, self.protocol,
            )
        )
        self.seq += 1
