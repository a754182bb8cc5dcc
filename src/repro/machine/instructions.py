"""The abstract instruction set (KL1-B flavoured).

Each instruction occupies one word of the instruction area; executing it
costs one instruction fetch.  The passive part of a clause (head
matching and guard tests) may *fail* (try the next clause) or find an
unbound variable it would need (*suspend candidate*); only after
``commit`` does the active part run.

Instructions are generic triples ``Instr(op, a, b, c)``; the operand
meaning per opcode is documented beside the opcode sets below, and
:mod:`repro.machine.codegen` compiles each procedure's instructions
into one Python function.  Guard expressions are nested tuples with
``("reg", i)`` / ``("int", n)`` / ``("atom", id)`` leaves and
``("+", ea, eb)``-style interior nodes.
"""

from __future__ import annotations

from typing import Tuple


class Instr:
    """One instruction word: an opcode and up to three operands."""

    __slots__ = ("op", "a", "b", "c")

    def __init__(self, op: str, a=None, b=None, c=None):
        self.op = op
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:
        operands = [
            repr(value) for value in (self.a, self.b, self.c) if value is not None
        ]
        return f"{self.op}({', '.join(operands)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instr)
            and self.op == other.op
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )


#: Passive-part opcodes (head matching and guards).
PASSIVE_OPS = frozenset(
    {
        "head_var",  # a=arg register, b=destination register
        "head_val",  # a=arg register, b=register to passively unify with
        "wait_const",  # a=register, b=(tag, value)
        "wait_list",  # a=register (sets the S pointer)
        "wait_struct",  # a=register, b=functor id, c=arity
        "read_var",  # a=destination register (reads heap cell at S)
        "read_val",  # a=register to passively unify with heap cell at S
        "read_const",  # a=(tag, value)
        "guard_cmp",  # a=operator, b=left expr, c=right expr
        "guard_integer",  # a=register
        "guard_wait",  # a=register
        "commit",
    }
)

#: Active-part opcodes (body construction and goal spawning).
BODY_OPS = frozenset(
    {
        "put_atom",  # a=destination register, b=atom id
        "put_int",  # a=destination register, b=value
        "put_var",  # a=destination register (fresh heap variable)
        "put_list",  # a=destination, b=car register, c=cdr register
        "put_struct",  # a=destination, b=functor id, c=tuple of arg registers
        "body_unify",  # a, b = registers to actively unify
        "spawn",  # a=functor id, b=tuple of argument registers
        "proceed",
    }
)


class CompiledClause:
    """A clause's passive and active instruction sequences, plus the
    instruction-area addresses they are laid out at."""

    __slots__ = ("passive", "body", "passive_base", "body_base", "source")

    def __init__(self, passive, body, source: str = ""):
        self.passive: Tuple[Instr, ...] = tuple(passive)
        self.body: Tuple[Instr, ...] = tuple(body)
        self.passive_base = 0
        self.body_base = 0
        self.source = source

    def listing(self) -> str:
        lines = [f"  ; {self.source}"] if self.source else []
        for offset, instr in enumerate(self.passive):
            lines.append(f"  {self.passive_base + offset:#010x}  {instr}")
        for offset, instr in enumerate(self.body):
            lines.append(f"  {self.body_base + offset:#010x}  {instr}")
        return "\n".join(lines)


class Procedure:
    """All clauses of one ``name/arity`` predicate."""

    __slots__ = ("functor_id", "name", "arity", "clauses")

    def __init__(self, functor_id: int, name: str, arity: int):
        self.functor_id = functor_id
        self.name = name
        self.arity = arity
        self.clauses: list = []

    def __repr__(self) -> str:
        return f"Procedure({self.name}/{self.arity}, {len(self.clauses)} clauses)"
