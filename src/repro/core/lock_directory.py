"""Per-PE hardware lock directory (Section 3.1).

The lock directory is *separate* from the cache directory so that locks
are word-granular, survive the locked block being swapped out, and do
not widen every cache tag.  Each entry holds a locked word address in
state ``LCK`` (nobody waiting) or ``LWAIT`` (one or more PEs busy-wait
for the ``UL`` broadcast).

The paper argues one or two entries per directory suffice for parallel
logic programming; the model therefore allows occupancy beyond the
configured capacity but reports it (``overflows``) so the claim can be
checked rather than silently assumed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.states import LockState

# Module aliases of the members read per lock operation (an Enum class
# attribute lookup costs more than an empty call).
_EMP, _LCK, _LWAIT = LockState.EMP, LockState.LCK, LockState.LWAIT


class LockDirectory:
    """Word-granularity lock entries owned by one PE."""

    __slots__ = ("pe", "capacity", "entries", "max_occupancy", "overflows")

    def __init__(self, pe: int, capacity: int = 2):
        self.pe = pe
        self.capacity = capacity
        self.entries: Dict[int, LockState] = {}
        self.max_occupancy = 0
        self.overflows = 0

    def state(self, address: int) -> LockState:
        """Current lock state of *address* (``EMP`` when not present)."""
        return self.entries.get(address, _EMP)

    def lock(self, address: int) -> None:
        """Register *address* as locked (``LCK``) by this PE."""
        self.entries[address] = _LCK
        occupancy = len(self.entries)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        if occupancy > self.capacity:
            self.overflows += 1

    def mark_waiting(self, address: int) -> None:
        """Record that another PE is now busy-waiting on *address*."""
        if address in self.entries:
            self.entries[address] = _LWAIT

    def unlock(self, address: int) -> Optional[LockState]:
        """Release *address*; returns its prior state, or None if absent."""
        return self.entries.pop(address, None)

    def holds(self, address: int) -> bool:
        return address in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        held = ", ".join(
            f"{addr:#x}:{state.name}" for addr, state in self.entries.items()
        )
        return f"LockDirectory(pe={self.pe}, [{held}])"
