"""Stop-and-copy heap garbage collection.

Section 4 notes that "the system measured uses stop-and-copy GC" and
excludes collection from the measured reference stream, so this
collector performs **no instrumented memory accesses**: it rewrites the
backing store directly and records the trace position of the
collection in ``machine.gc_marks``.  Replaying the run for its cache
statistics invalidates every cache there, without charge (the
architectural effect of relocating the heap under the caches).  A trace
written to a file carries no marks: replaying it alone runs as if the
caches survived every collection.

The algorithm is a Cheney-style copying collector generalized to the
per-PE heap segments: every live cell is copied into a fresh segment
owned by the same PE, with a forwarding map in place of in-cell
forwarding tags (from- and to-space share the address range, so cells
already holding final to-space words are tracked explicitly).  Roots are

* the argument words of every allocated goal record — runnable goals on
  the goal lists, floating (suspended) goals, and goals in flight
  between PEs all live in the goal area, which is free-list managed and
  does not move; and
* the query's answer variables.

Copy units follow the pointer tag: a ``REF`` target is a single cell
(unbound and hooked variables are always standalone cells), a ``LIST``
target is a two-cell cons, and a ``STR`` target is the functor cell plus
its arguments.  ``HOOK`` contents point into the suspension area and are
preserved verbatim.

Running the collector on a machine whose cache system has
``track_data=True`` is rejected: relocation invalidates the modelled
memory image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.machine.store import SEGMENT_SHIFT, HEAP_BASE, HeapStore
from repro.machine.terms import LIST, REF, STR, Word


@dataclass
class GCStats:
    """Outcome of one collection."""

    words_before: int
    words_after: int

    @property
    def words_reclaimed(self) -> int:
        return self.words_before - self.words_after


class _Collector:
    def __init__(self, machine):
        self.machine = machine
        self.old = machine.heap
        self.cells: List[List[Word]] = [[] for _ in range(machine.n_pes)]
        #: old address of a copied object's first cell -> new address.
        self.forwarded: Dict[int, int] = {}
        #: per-PE to-space indices whose contents are already final
        #: (the unbound-variable self-reference fixups).
        self.final: List[Set[int]] = [set() for _ in range(machine.n_pes)]
        #: per-PE scan cursor into the to-space segment.
        self.scan: List[int] = [0] * machine.n_pes

    # -- copying --------------------------------------------------------

    def copy_object(self, address: int, size: int) -> int:
        """Copy the *size*-cell object at from-space *address* (once)."""
        new_address = self.forwarded.get(address)
        if new_address is not None:
            return new_address
        pe = (address >> SEGMENT_SHIFT) & 0xF
        segment = self.cells[pe]
        new_address = HEAP_BASE | (pe << SEGMENT_SHIFT) | len(segment)
        self.forwarded[address] = new_address
        for offset in range(size):
            tag, value = self.old.read(address + offset)
            if tag == REF and value == address + offset:
                # An unbound variable: keep it self-referential, and mark
                # the cell final so the scan leaves it alone.
                self.final[pe].add(len(segment))
                segment.append((REF, new_address + offset))
            else:
                segment.append((tag, value))
        return new_address

    def forward_word(self, word: Word) -> Word:
        """Translate one from-space word to its to-space equivalent."""
        tag, value = word
        if tag == REF:
            return (REF, self.copy_object(value, 1))
        if tag == LIST:
            return (LIST, self.copy_object(value, 2))
        if tag == STR:
            # From-space stays intact during collection, so the functor
            # cell is readable whether or not the object is copied yet.
            _, functor_id = self.old.read(value)
            arity = self.machine.symbols.functor_name(functor_id)[1]
            return (STR, self.copy_object(value, 1 + arity))
        return word

    # -- phases ----------------------------------------------------------

    def copy_roots(self) -> None:
        machine = self.machine
        area = machine.goal_area
        stride = area.stride
        for pe in range(machine.n_pes):
            free = set(area.free[pe])
            segment_words = len(area.words[pe])
            for start in range(0, segment_words, stride):
                record = area.base | (pe << SEGMENT_SHIFT) | start
                if record in free:
                    continue
                arity = area.read(record + 2)
                if not isinstance(arity, int) or not 0 <= arity <= stride - 3:
                    continue  # a slot that never held a full record
                for index in range(arity):
                    word = area.read(record + 3 + index)
                    if isinstance(word, tuple):
                        area.write(record + 3 + index, self.forward_word(word))
        machine.query_roots = {
            name: self.copy_object(address, 1)
            for name, address in machine.query_roots.items()
        }

    def scan_to_space(self) -> None:
        """Cheney scan: forward the contents of every copied cell."""
        progressed = True
        while progressed:
            progressed = False
            for pe, segment in enumerate(self.cells):
                index = self.scan[pe]
                final = self.final[pe]
                while index < len(segment):
                    if index not in final:
                        segment[index] = self.forward_word(segment[index])
                    index += 1
                    progressed = True
                self.scan[pe] = index


def collect(machine) -> GCStats:
    """Run one stop-and-copy collection over *machine*'s heap."""
    if machine.sim_config is not None and machine.sim_config.track_data:
        raise RuntimeError(
            "stop-and-copy GC cannot run under track_data cache simulation: "
            "relocating the heap invalidates the modelled memory image"
        )
    before = machine.heap.total_words()
    collector = _Collector(machine)
    collector.copy_roots()
    collector.scan_to_space()
    fresh = HeapStore(machine.n_pes, limit=machine.heap.limit)
    fresh.cells = collector.cells
    machine.heap = fresh
    machine.gc_marks.append(machine.port.total_refs)
    machine.gc_collections += 1
    after = fresh.total_words()
    machine.gc_words_reclaimed += before - after
    return GCStats(words_before=before, words_after=after)
