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

    The directory is held twice: per-set buckets (``_sets``), which give
    replacement its candidate list, and a flat ``block -> line`` map
    (``_lines``) that probes hit with a single dict lookup — no set
    index/tag arithmetic on the path taken by every reference.  The two
    views share the same :class:`CacheLine` objects and are kept in step
    by :meth:`insert`/:meth:`remove`/:meth:`flush`.
    """

    __slots__ = (
        "config",
        "pe",
        "track_data",
        "_sets",
        "_lines",
        "_set_mask",
        "_set_shift",
        "_tick",
        "_mirror",
        "_mirror_bases",
        "_mirror_remap",
    )

    def __init__(self, config: CacheConfig, pe: int, track_data: bool = False):
        self.config = config
        self.pe = pe
        self.track_data = track_data
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(config.n_sets)]
        self._lines: Dict[int, CacheLine] = {}
        self._set_mask = config.n_sets - 1
        self._set_shift = config.n_sets.bit_length() - 1
        self._tick = 0
        # While a generated replay kernel runs, ``_mirror`` points at a
        # flat cross-PE ``(kind << tag_shift | pe << pe_shift | block)
        # -> line`` table (a dense list, or a dict for huge address
        # spaces), aliased under every fast-kind tag so the kernel
        # probes packed keys unmasked.  Every residency change below is
        # mirrored under each base in ``_mirror_bases`` via
        # :meth:`_mirror_set`; ``_mirror_remap`` (optional) maps real
        # block numbers to the kernel's dense block ids.  ``None`` (the
        # resting state) keeps the bookkeeping off all other paths.
        self._mirror = None
        self._mirror_bases: Tuple[int, ...] = ()
        self._mirror_remap: Optional[Dict[int, int]] = None

    def _mirror_set(self, block: int, line: Optional[CacheLine]) -> None:
        """Mirror a residency change (``line`` or ``None`` for a drop)
        under every alias base.  A block outside the kernel's remap can
        never be probed by the running trace, so it is skipped."""
        remap = self._mirror_remap
        index = block if remap is None else remap.get(block)
        if index is not None:
            mirror = self._mirror
            for base in self._mirror_bases:
                mirror[base | index] = line

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the valid line holding *block*, touching LRU, else None."""
        line = self._lines.get(block)
        if line is None:
            return None
        self._tick += 1
        line.lru = self._tick
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        """Like :meth:`lookup` but without disturbing LRU (for snooping)."""
        return self._lines.get(block)

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
            del self._lines[victim_block]
            if self._mirror is not None:
                self._mirror_set(victim_block, None)
            victim = (victim_block, victim_line)
        self._tick += 1
        line = CacheLine(tag, state, area, self._tick, data)
        bucket[tag] = line
        self._lines[block] = line
        if self._mirror is not None:
            self._mirror_set(block, line)
        return victim

    def remove(self, block: int) -> Optional[CacheLine]:
        """Drop *block* (invalidate or purge).  Returns the removed line."""
        line = self._lines.pop(block, None)
        if line is not None:
            del self._sets[block & self._set_mask][block >> self._set_shift]
            if self._mirror is not None:
                self._mirror_set(block, None)
        return line

    def lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Iterate ``(block_number, line)`` over every valid line."""
        for index, bucket in enumerate(self._sets):
            for tag, line in bucket.items():
                yield (tag << self._set_shift) | index, line

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._lines)

    def flush(self) -> None:
        """Invalidate every line (used around garbage collection)."""
        if self._mirror is not None:
            for block in self._lines:
                self._mirror_set(block, None)
        for bucket in self._sets:
            bucket.clear()
        self._lines.clear()

    def __repr__(self) -> str:
        return (
            f"Cache(pe={self.pe}, {self.config.capacity_words} words, "
            f"{self.occupancy()}/{self.config.n_lines} lines valid)"
        )
