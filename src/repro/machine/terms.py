"""Term representations.

Two levels exist:

* **Source terms** (``SVar``, ``SAtom``, ``SInt``, ``SList``, ``SStruct``)
  — the parse tree produced by :mod:`repro.machine.parser` and consumed
  by the compiler.  These never exist at run time.
* **Runtime tagged words** — a ``(tag, value)`` pair, the contents of
  one heap/goal-area word and of an engine register.  ``REF`` points at
  a heap cell (an unbound variable is a ``REF`` to itself), ``HOOK``
  points at a suspension-record chain, ``LIST``/``STR`` point at heap
  cells, ``ATOM``/``INT`` are immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

# ----------------------------------------------------------------------
# Runtime tags
# ----------------------------------------------------------------------

REF = 0  #: pointer to a heap cell; self-pointing = unbound variable
ATOM = 1  #: immediate interned atom id
INT = 2  #: immediate integer
LIST = 3  #: pointer to a two-cell cons (car at addr, cdr at addr+1)
STR = 4  #: pointer to a functor cell followed by the arguments
FUNCTOR = 5  #: functor id, only ever stored at a structure's first cell
HOOK = 6  #: unbound variable with waiters; value = suspension-record addr

TAG_NAMES = ("REF", "ATOM", "INT", "LIST", "STR", "FUNCTOR", "HOOK")

#: A runtime tagged word.
Word = Tuple[int, int]


# ----------------------------------------------------------------------
# Source (parse-tree) terms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SVar:
    """A source variable.  ``_`` is anonymous: every occurrence is fresh."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SAtom:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SInt:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SList:
    """A cons cell ``[Head | Tail]``."""

    head: "STerm"
    tail: "STerm"

    def __str__(self) -> str:
        items = []
        node: STerm = self
        while isinstance(node, SList):
            items.append(str(node.head))
            node = node.tail
        if isinstance(node, SAtom) and node.name == "[]":
            return "[" + ", ".join(items) + "]"
        return "[" + ", ".join(items) + " | " + str(node) + "]"


@dataclass(frozen=True)
class SStruct:
    name: str
    args: Tuple["STerm", ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


STerm = Union[SVar, SAtom, SInt, SList, SStruct]

NIL = SAtom("[]")


def slist(*items: STerm, tail: STerm = NIL) -> STerm:
    """Build a source list from *items* (convenience for tests)."""
    result = tail
    for item in reversed(items):
        result = SList(item, result)
    return result


def source_vars(term: STerm, acc=None):
    """All variable names occurring in *term*, in first-occurrence order."""
    if acc is None:
        acc = []
    if isinstance(term, SVar):
        if term.name != "_" and term.name not in acc:
            acc.append(term.name)
    elif isinstance(term, SList):
        source_vars(term.head, acc)
        source_vars(term.tail, acc)
    elif isinstance(term, SStruct):
        for arg in term.args:
            source_vars(arg, acc)
    return acc


@dataclass(frozen=True)
class Clause:
    """One FGHC clause: ``head :- guards | body``.

    ``guards`` contains only builtin test terms (the passive part);
    ``body`` contains user goals, unifications and builtin goals (the
    active part).
    """

    head: SStruct
    guards: Tuple[STerm, ...]
    body: Tuple[STerm, ...]

    def __str__(self) -> str:
        guard_text = ", ".join(str(g) for g in self.guards) or "true"
        body_text = ", ".join(str(b) for b in self.body) or "true"
        return f"{self.head} :- {guard_text} | {body_text}."
