"""The memory port: where the machine's references are recorded.

Every reference the abstract machine makes to the five storage areas is
recorded as one packed int appended to the port's ``words`` array
(``array('q')``)::

    address << 24 | pe << 16 | op << 12 | area << 8 | flags

The instrumented helpers of :class:`~repro.machine.machine.KL1Machine`
append pre-packed words directly, with the ``(op, area)`` part taken
from a module constant (:func:`code`), so recording a reference costs
one Python call and one append; :meth:`MemoryPort.issue` packs the
same word from its fields and checks them.  :meth:`MemoryPort.flush`
splits the pending words into the five columns of a
:class:`~repro.trace.buffer.TraceBuffer` in one numpy pass per column;
``KL1Machine.run`` calls it when the run ends, also when it raises.
The stream does not depend on the cache — PEs interleave at reduction
granularity whatever the cache answers — so the machine only records
it, and every cache statistic of a run comes from replaying the trace
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
import sys
from array import array
from typing import List

import numpy as np

from repro.trace.buffer import TraceBuffer
from repro.trace.events import FLAG_LOCK_CONTENDED, Area, Op

#: Bit offsets of the packed word's fields (flags occupy the low byte).
ADDRESS_SHIFT = 24
PE_SHIFT = 16
CODE_SHIFT = 8
#: The widest address a packed word holds (63 bits less the 24 below it).
ADDRESS_BITS = 63 - ADDRESS_SHIFT
#: PE numbers and flags are stored in int8 trace columns.
INT8_LIMIT = 128

# Byte offsets of the low fields inside one native-order int64.
_FLAGS_BYTE, _CODE_BYTE, _PE_BYTE = (
    (0, 1, 2) if sys.byteorder == "little" else (7, 6, 5)
)


def code(op: int, area: int) -> int:
    """The packed ``(op, area)`` field of a word, already shifted."""
    return (op << 4 | area) << CODE_SHIFT


def _split(words: array, trace: TraceBuffer) -> List[str]:
    """Append *words* to *trace*, one column at a time; returns the
    names of the out-of-range fields instead, appending nothing.

    Every numpy view of *words* is local here, so the caller may shrink
    the array once this returns.
    """
    packed = np.frombuffer(words, dtype=np.int64)
    lanes = packed.view(np.uint8).reshape(-1, 8)
    pe, codes, flags = lanes[:, _PE_BYTE], lanes[:, _CODE_BYTE], lanes[:, _FLAGS_BYTE]
    bad = [
        name
        for name, out in (
            ("pe", pe.max() >= INT8_LIMIT),
            ("flags", flags.max() >= INT8_LIMIT),
            ("address", packed.min() < 0),
        )
        if out
    ]
    if bad:
        return bad
    pe_col, op_col, area_col, addr_col, flags_col = trace.columns()
    # frombytes takes byte buffers; uint8 values below 128 have the
    # same bytes as the int8 columns.
    addr_col.frombytes((packed >> ADDRESS_SHIFT).view(np.uint8))
    pe_col.frombytes(np.ascontiguousarray(pe))
    op_col.frombytes(codes >> 4)
    area_col.frombytes(codes & 0xF)
    flags_col.frombytes(np.ascontiguousarray(flags))
    return bad


class MemoryPort:
    """Instrumentation funnel for the abstract machine's memory traffic."""

    __slots__ = ("trace", "words", "conflict_rate", "_rng", "_instruction_refs")

    def __init__(
        self,
        trace: TraceBuffer,
        conflict_rate: float = 0.0,
        seed: int = 0,
    ):
        if trace.n_pes > INT8_LIMIT:
            raise ValueError(
                f"a trace records at most {INT8_LIMIT} PEs, got {trace.n_pes}"
            )
        self.trace = trace
        #: Packed references not yet split into :attr:`trace`.
        self.words = array("q")
        self.conflict_rate = conflict_rate
        self._rng = random.Random(seed)
        self._instruction_refs = 0

    @property
    def total_refs(self) -> int:
        """References recorded so far, split or still packed."""
        return len(self.trace) + len(self.words)

    @property
    def instruction_refs(self) -> int:
        """Instruction fetches recorded so far (splits pending words)."""
        self.flush()
        return self._instruction_refs

    def issue(self, pe: int, op: int, area: int, address: int, flags: int = 0) -> None:
        """Record one memory reference, checking each field's range."""
        if not 0 <= pe < INT8_LIMIT or not 0 <= flags < INT8_LIMIT:
            raise ValueError(f"pe {pe} or flags {flags} outside [0, {INT8_LIMIT})")
        if not 0 <= op < len(Op) or not 0 <= area < len(Area):
            raise ValueError(f"unknown operation {op!r} or area {area!r}")
        if not 0 <= address < 1 << ADDRESS_BITS:
            raise ValueError(f"address {address:#x} does not fit {ADDRESS_BITS} bits")
        self.words.append(
            address << ADDRESS_SHIFT | pe << PE_SHIFT | code(op, area) | flags
        )

    def flush(self) -> None:
        """Split the pending packed words into the trace's columns.

        Raises ``ValueError`` if a PE number or flags byte does not fit
        its int8 column or an address is negative: the trace is then
        left as it was, never given a truncated field.  The pending
        words are consumed either way.
        """
        words = self.words
        if not words:
            return
        start = len(self.trace)
        bad = _split(words, self.trace)
        del words[:]
        if bad:
            raise ValueError(f"packed reference fields out of range: {bad}")
        area = np.frombuffer(self.trace.columns()[2], dtype=np.int8)[start:]
        self._instruction_refs += int(np.count_nonzero(area == Area.INSTRUCTION))

    def roll_conflict(self, shared: bool) -> int:
        """Flags for a lock pair: contended with ``conflict_rate``
        probability when the datum is *shared*."""
        if shared and self.conflict_rate > 0.0:
            if self._rng.random() < self.conflict_rate:
                return FLAG_LOCK_CONTENDED
        return 0
