"""Builtin body goals (system-defined procedures).

FGHC bodies perform arithmetic through goals such as ``add(A, B, C)``
(the compiler flattens ``C := A + B`` into them).  Like any goal, a
builtin whose inputs are unbound *suspends* and is resumed when the
producer binds them — this is what makes ``X := Y + 1`` safe even when
``Y`` arrives later over a stream.

Each handler receives the machine, the engine and the argument words
and returns ``None`` on success or a list of variable addresses to
suspend on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.machine.engine import deref, unify_words
from repro.machine.errors import ProgramFailure
from repro.machine.terms import INT, REF


def _two_ints(machine, pe, args):
    """Dereference the first two arguments; returns (a, b) ints or a
    suspension list."""
    tag_a, val_a = args[0]
    if tag_a == REF:
        tag_a, val_a = deref(machine, pe, val_a)
        if tag_a == REF:
            return None, [val_a]
    tag_b, val_b = args[1]
    if tag_b == REF:
        tag_b, val_b = deref(machine, pe, val_b)
        if tag_b == REF:
            return None, [val_b]
    if tag_a != INT or tag_b != INT:
        raise ProgramFailure(
            "arithmetic on non-integer arguments "
            f"({machine.format_word((tag_a, val_a))}, "
            f"{machine.format_word((tag_b, val_b))})"
        )
    return (val_a, val_b), None


def _arith(operation):
    def handler(machine, engine, args) -> Optional[List[int]]:
        values, suspend = _two_ints(machine, engine.pe, args)
        if suspend is not None:
            return suspend
        result = operation(values[0], values[1])
        unify_words(machine, engine, args[2], (INT, result))
        return None

    return handler


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ProgramFailure("division by zero")
    return int(a / b)  # truncating division, as KL1's / on integers


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise ProgramFailure("mod by zero")
    return a - b * int(a / b)


#: name -> handler; the compiler interns these as ``name/3`` functors.
HANDLERS = {
    "add": _arith(lambda a, b: a + b),
    "sub": _arith(lambda a, b: a - b),
    "mul": _arith(lambda a, b: a * b),
    "div": _arith(_div),
    "mod": _arith(_mod),
}
