"""One PE's set-associative cache array.

Only the directory (tags + states) is architecturally required; the data
array is modelled optionally so coherence property tests can check that
every read observes the most recent write.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import CacheConfig
from repro.core.states import CacheState


class CacheLine:
    """A block frame: tag, protocol state, owning storage area, LRU tick."""

    __slots__ = ("tag", "state", "area", "lru", "data")

    def __init__(self, tag: int, state: CacheState, area: int, lru: int, data=None):
        self.tag = tag
        self.state = state
        self.area = area
        self.lru = lru
        self.data = data

    def __repr__(self) -> str:
        return f"CacheLine(tag={self.tag:#x}, state={self.state.name}, area={self.area})"


class Cache:
    """Set-associative, LRU-replacement cache directory for one PE.

    Blocks are identified by their *block number* (word address divided
    by the block size); the caller performs that division once so hot
    paths never recompute it.

    Residency lives in one ``block << pe_bits | pe -> line`` dict
    (``_resident``) that every cache of a :class:`PIMCacheSystem` shares,
    so a probe is a single dict lookup — for the handlers and for the
    generated replay kernel alike, which probes the very same dict.  A
    cache built on its own gets a private one.  Beside it, per-set
    buckets (``_sets``, ``tag -> line``) hold the same
    :class:`CacheLine` objects only to give replacement its candidate
    list and :meth:`lines` its order; :meth:`insert`/:meth:`remove`/
    :meth:`flush`/:meth:`place` keep the two in step.
    """

    __slots__ = (
        "config",
        "pe",
        "_sets",
        "_set_mask",
        "_set_shift",
        "_tick",
        "_resident",
        "_pe_bits",
    )

    def __init__(
        self,
        config: CacheConfig,
        pe: int,
        resident: Optional[Dict[int, CacheLine]] = None,
        pe_bits: Optional[int] = None,
    ):
        self.config = config
        self.pe = pe
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(config.n_sets)]
        self._set_mask = config.n_sets - 1
        self._set_shift = config.n_sets.bit_length() - 1
        self._tick = 0
        #: The residency dict, keyed ``block << _pe_bits | pe``; shared
        #: by every cache of one system (see the class docstring).
        self._resident: Dict[int, CacheLine] = {} if resident is None else resident
        self._pe_bits = pe.bit_length() if pe_bits is None else pe_bits

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the valid line holding *block*, touching LRU, else None."""
        line = self._resident.get(block << self._pe_bits | self.pe)
        if line is None:
            return None
        self._tick += 1
        line.lru = self._tick
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        """Like :meth:`lookup` but without disturbing LRU (for snooping)."""
        return self._resident.get(block << self._pe_bits | self.pe)

    def insert(
        self, block: int, state: CacheState, area: int, data=None
    ) -> Optional[Tuple[int, CacheLine]]:
        """Place *block* into its set, evicting LRU if the set is full.

        Returns ``(victim_block, victim_line)`` when a valid line had to
        be evicted, else ``None``.  The caller is responsible for any
        copyback the victim's state requires.

        Every protocol path checks for a hit before filling, so an
        insert of an already-resident block can only be a protocol bug;
        silently overwriting the line would discard its state and dirty
        data, corrupting the coherence accounting downstream.  Raises
        ``ValueError`` instead.
        """
        index = block & self._set_mask
        tag = block >> self._set_shift
        bucket = self._sets[index]
        if tag in bucket:
            raise ValueError(
                f"PE{self.pe}: block {block:#x} is already resident in "
                f"state {bucket[tag].state.name}; call sites must miss "
                "before inserting"
            )
        pe_bits = self._pe_bits
        resident = self._resident
        victim = None
        if len(bucket) >= self.config.associativity:
            # Explicit scan instead of min(key=...): no per-line lambda
            # call on what is the hottest part of every cache miss.
            victim_tag = victim_lru = None
            for t, line in bucket.items():
                if victim_lru is None or line.lru < victim_lru:
                    victim_lru = line.lru
                    victim_tag = t
            victim_line = bucket.pop(victim_tag)
            victim_block = (victim_tag << self._set_shift) | index
            del resident[victim_block << pe_bits | self.pe]
            victim = (victim_block, victim_line)
        self._tick += 1
        line = CacheLine(tag, state, area, self._tick, data)
        bucket[tag] = line
        resident[block << pe_bits | self.pe] = line
        return victim

    def place(
        self, block: int, state: CacheState, area: int, lru: int, data=None
    ) -> None:
        """Put back a line exactly as a snapshot recorded it (LRU stamp
        included, nothing evicted).  Raises ``ValueError`` when *block*
        is already resident or its set is already full: no run of the
        cache could have produced that directory."""
        index = block & self._set_mask
        tag = block >> self._set_shift
        bucket = self._sets[index]
        if tag in bucket:
            raise ValueError(f"block {block:#x} is listed twice")
        if len(bucket) >= self.config.associativity:
            raise ValueError(
                f"set {index} already holds {len(bucket)} lines, the "
                f"{self.config.associativity}-way maximum"
            )
        line = CacheLine(tag, state, area, lru, data)
        bucket[tag] = line
        self._resident[block << self._pe_bits | self.pe] = line

    def remove(self, block: int) -> Optional[CacheLine]:
        """Drop *block* (invalidate or purge).  Returns the removed line."""
        line = self._resident.pop(block << self._pe_bits | self.pe, None)
        if line is not None:
            del self._sets[block & self._set_mask][block >> self._set_shift]
        return line

    def lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Iterate ``(block_number, line)`` over every valid line."""
        for index, bucket in enumerate(self._sets):
            for tag, line in bucket.items():
                yield (tag << self._set_shift) | index, line

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(map(len, self._sets))

    def flush(self) -> None:
        """Invalidate every line (used around garbage collection)."""
        resident = self._resident
        shift = self._set_shift
        pe_bits = self._pe_bits
        pe = self.pe
        for index, bucket in enumerate(self._sets):
            for tag in bucket:
                del resident[((tag << shift) | index) << pe_bits | pe]
            bucket.clear()

    def __repr__(self) -> str:
        return (
            f"Cache(pe={self.pe}, {self.config.capacity_words} words, "
            f"{self.occupancy()}/{self.config.n_lines} lines valid)"
        )
