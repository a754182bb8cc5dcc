"""The memory port: where the machine's references are recorded.

Every reference the abstract machine makes to the five storage areas
passes through :meth:`MemoryPort.issue`, which appends it to a
:class:`~repro.trace.buffer.TraceBuffer`.  The stream does not depend on
the cache — PEs interleave at reduction granularity whatever the cache
answers — so the machine only records it, and every cache statistic of
a run comes from replaying the trace
(:func:`repro.cluster.replay.replay_machine`).

Lock-conflict injection
-----------------------

The emulator interleaves PEs at reduction granularity, and KL1 lock
windows (LR ... UW) never span a reduction, so genuine directory
conflicts cannot arise during emulation — yet the paper measures a
small, nonzero conflict rate (0.1-2.4 % of unlocks find a waiter,
Table 5).  :meth:`MemoryPort.roll_conflict` injects that tail
stochastically: a lock on *shared* data (data in another PE's segment,
or hooked variables) is marked contended with probability
``conflict_rate``, and the flag makes the cache system re-enact the LH
response and UL broadcast when the trace is replayed.  EXPERIMENTS.md
documents this substitution.
"""

from __future__ import annotations

import random

from repro.trace.buffer import TraceBuffer
from repro.trace.events import FLAG_LOCK_CONTENDED


class MemoryPort:
    """Instrumentation funnel for the abstract machine's memory traffic."""

    __slots__ = ("trace", "conflict_rate", "_rng", "instruction_refs")

    def __init__(
        self,
        trace: TraceBuffer,
        conflict_rate: float = 0.0,
        seed: int = 0,
    ):
        self.trace = trace
        self.conflict_rate = conflict_rate
        self._rng = random.Random(seed)
        self.instruction_refs = 0

    @property
    def total_refs(self) -> int:
        """References issued so far (the trace's length)."""
        return len(self.trace)

    def issue(self, pe: int, op: int, area: int, address: int, flags: int = 0) -> None:
        """Issue one memory reference."""
        if area == 0:  # Area.INSTRUCTION
            self.instruction_refs += 1
        self.trace.append(pe, op, area, address, flags)

    def roll_conflict(self, shared: bool) -> int:
        """Flags for a lock pair: contended with ``conflict_rate``
        probability when the datum is *shared*."""
        if shared and self.conflict_rate > 0.0:
            if self._rng.random() < self.conflict_rate:
                return FLAG_LOCK_CONTENDED
        return 0
