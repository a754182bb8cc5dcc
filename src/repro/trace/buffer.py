"""Compact in-memory capture of a memory-reference stream.

A benchmark run can produce millions of references, so the buffer stores
them in parallel ``array`` columns rather than as object instances.  The
iteration API yields plain tuples ``(pe, op, area, address, flags)`` —
the hot path of the cache replay loop — while :meth:`TraceBuffer.refs`
yields :class:`~repro.trace.events.MemRef` objects for convenience.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Tuple

from repro.trace.events import Area, MemRef, Op

#: The tuple layout produced by iterating a buffer.
RefTuple = Tuple[int, int, int, int, int]


class TraceBuffer:
    """Append-only columnar store of memory references."""

    __slots__ = ("n_pes", "_pe", "_op", "_area", "_addr", "_flags")

    def __init__(self, n_pes: int = 1):
        if n_pes < 1:
            raise ValueError(f"n_pes must be >= 1, got {n_pes}")
        self.n_pes = n_pes
        self._pe = array("b")
        self._op = array("b")
        self._area = array("b")
        self._addr = array("q")
        self._flags = array("b")

    def append(self, pe: int, op: int, area: int, address: int, flags: int = 0) -> None:
        """Record one reference (values may be enums or plain ints)."""
        self._pe.append(pe)
        self._op.append(op)
        self._area.append(area)
        self._addr.append(address)
        self._flags.append(flags)

    def append_ref(self, ref: MemRef) -> None:
        """Record a :class:`MemRef`."""
        self.append(ref.pe, ref.op, ref.area, ref.address, ref.flags)

    def set_flags(self, index: int, flags: int) -> None:
        """Rewrite the flags of an already-recorded reference.

        The emulator uses this to mark an ``LR`` as contended
        retroactively, once the conflicting access actually arrives.
        """
        self._flags[index] = flags

    def __len__(self) -> int:
        return len(self._op)

    def __iter__(self) -> Iterator[RefTuple]:
        return iter(zip(self._pe, self._op, self._area, self._addr, self._flags))

    def __getitem__(self, index: int) -> RefTuple:
        return (
            self._pe[index],
            self._op[index],
            self._area[index],
            self._addr[index],
            self._flags[index],
        )

    def refs(self) -> Iterator[MemRef]:
        """Iterate as :class:`MemRef` objects (slow path, for inspection)."""
        for pe, op, area, addr, flags in self:
            yield MemRef(pe, Op(op), Area(area), addr, flags)

    def columns(self):
        """Return the raw columns ``(pe, op, area, addr, flags)``."""
        return self._pe, self._op, self._area, self._addr, self._flags

    def slice(self, start: int, stop: int) -> "TraceBuffer":
        """A new buffer holding a copy of references ``[start, stop)``.

        For a separate buffer — a streamed chunk, a benchmark window.
        To replay part of a buffer, pass ``start``/``stop`` to
        :func:`repro.core.replay.replay` instead: it reads the range in
        place.
        """
        out = TraceBuffer(self.n_pes)
        out._pe = self._pe[start:stop]
        out._op = self._op[start:stop]
        out._area = self._area[start:stop]
        out._addr = self._addr[start:stop]
        out._flags = self._flags[start:stop]
        return out

    def extend(self, other: "TraceBuffer") -> None:
        """Append every reference of *other* (PE numbering is preserved)."""
        self._pe.extend(other._pe)
        self._op.extend(other._op)
        self._area.extend(other._area)
        self._addr.extend(other._addr)
        self._flags.extend(other._flags)
        self.n_pes = max(self.n_pes, other.n_pes)

    def __repr__(self) -> str:
        return f"TraceBuffer(n_pes={self.n_pes}, refs={len(self)})"
