"""FGHC procedures compiled to Python functions.

The clause compiler (:mod:`repro.machine.compiler`) lays every clause
out as abstract instructions in the instruction area.  This module
turns each procedure's clauses into one Python function, emitted as
source once per :class:`~repro.machine.compiler.Program` and
``compile()``d, once per process for each distinct text
(:func:`reducers`; :func:`source` returns the text).
The function takes ``(machine, engine, args)`` and returns ``None``
when a clause committed, or the variables to suspend the goal on:

* clause choice is control flow: each clause is a ``while True:``
  block that a failing or suspending test leaves with ``break`` (a
  suspending one leaves its variable in ``s``, noted after the block),
  and committing runs the body and returns;
* each instruction fetch is a packed constant, ``address << 24 |
  R_INSTRUCTION``, or'd with the PE and appended to the port's
  ``words``; so are the heap reads of head matching, at constant
  offsets from the structure's base, and the ``DW`` of every word of a
  spawned goal record;
* registers are locals, and a guard is inline arithmetic with tag tests
  only where an operand may not be an integer;
* a register holding a non-``REF`` word is used as it is; only a
  ``REF`` calls :func:`~repro.machine.engine.deref`.

The emitted code makes the references the instructions describe, in
their order, including the reads a guard or a passive unification
makes before it fails or suspends; ``tests/golden/trace_digests.json``
pins the streams.  A program whose code cannot run (an unknown opcode,
a passive part without ``commit``, an unknown guard expression) raises
:class:`~repro.machine.errors.MachineError` here, before anything is
emulated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.machine.engine import deref, no_clause, passive_unify, unify_words
from repro.machine.errors import MachineError
from repro.machine.instructions import BODY_OPS, PASSIVE_OPS
from repro.machine.port import code
from repro.machine.store import SEGMENT_MASK
from repro.machine.terms import ATOM, FUNCTOR, INT, LIST, REF, STR
from repro.trace.events import Area, Op

_R_INSTRUCTION = code(Op.R, Area.INSTRUCTION)
_R_HEAP = code(Op.R, Area.HEAP)
_DW_GOAL = code(Op.DW, Area.GOAL)
_WORD = 1 << 24  # one address step in a packed reference

#: Guard comparisons on two integers, as Python operators.
_COMPARE = {"<": "<", "=<": "<=", ">": ">", ">=": ">=", "=:=": "==", "=\\=": "!="}
_ARITH = ("+", "-", "*", "/", "mod")

_NAMESPACE = {
    "deref": deref,
    "passive_unify": passive_unify,
    "unify_words": unify_words,
    "no_clause": no_clause,
}


class _Clause:
    """Emits one clause's block: its passive part, then its body."""

    def __init__(self, lines: List[str]):
        self.lines = lines
        self.temps = 0
        #: Guard operand tags that may still be LIST or STR: a guard
        #: fails on one before its next reference or suspension.
        self.loose: List[str] = []

    def emit(self, text: str, depth: int = 2) -> None:
        self.lines.append("    " * depth + text)

    def fetch(self, address: int) -> None:
        self.emit(f"rec({address << 24 | _R_INSTRUCTION} | P)")

    def value(self, word: str, tag: str, value: str) -> None:
        """Dereference *word* into *tag*, *value*; suspend on a variable
        (noted in ``s``)."""
        self.settle()
        self.emit(f"{tag}, {value} = {word}")
        self.emit(f"if {tag} == {REF}:")
        self.emit(f"{tag}, {value} = deref(machine, pe, {value})", 3)
        self.emit(f"if {tag} == {REF}: s = {value}; break", 3)

    def match(self, result: str) -> None:
        """Leave the block unless a passive unification succeeded."""
        self.emit(f"s = {result}")
        self.emit("if s: break")

    def read(self, offset: int) -> str:
        """Record the read of the structure cell at *offset*; its word."""
        self.emit(f"rec(b + {offset * _WORD})" if offset else "rec(b)")
        return f"seg[i + {offset}]" if offset else "seg[i]"

    # -- passive part ------------------------------------------------------

    def passive(self, clause) -> None:
        offset = 0  # the S register, relative to the structure base
        for index, instr in enumerate(clause.passive):
            op, a, b = instr.op, instr.a, instr.b
            self.fetch(clause.passive_base + index)
            if op == "commit":
                return
            if op == "head_var":
                self.emit(f"x{b} = x{a}")
            elif op == "head_val":
                self.match(f"passive_unify(machine, pe, x{a}, x{b})")
            elif op == "read_var":
                self.emit(f"x{a} = {self.read(offset)}")
                offset += 1
            elif op == "read_val":
                self.match(f"passive_unify(machine, pe, {self.read(offset)}, x{a})")
                offset += 1
            elif op == "read_const":
                self.value(self.read(offset), "t", "v")
                self.emit(f"if t != {a[0]} or v != {a[1]!r}: break")
                offset += 1
            elif op == "guard_cmp":
                self.compare(a, b, instr.c)
            else:
                self.value(f"x{a}", "t", "v")
                if op == "wait_const":
                    self.emit(f"if t != {b[0]} or v != {b[1]!r}: break")
                elif op in ("wait_list", "wait_struct"):
                    self.emit(f"if t != {LIST if op == 'wait_list' else STR}: break")
                    self.emit(f"seg = cells[v >> 24 & 15]; i = v & {SEGMENT_MASK}; "
                              "b = v << 24 | HR")
                    offset = 0
                    if op == "wait_struct":
                        self.emit(f"if {self.read(0)}[1] != {b}: break")
                        offset = 1
                elif op == "guard_integer":
                    self.emit(f"if t != {INT}: break")

    def compare(self, operator: str, left, right) -> None:
        """A guard comparison: both sides evaluated, left first, then
        the test, as ``==``/``\\==`` on words or on two integers."""
        a_tag, a_value = self.expression(left)
        b_tag, b_value = self.expression(right)
        if operator in ("==", "\\=="):
            self.settle()
            test = f"{a_tag} == {b_tag} and {a_value} == {b_value}"
            self.emit(f"if not ({test}): break" if operator == "==" else f"if {test}: break")
        elif operator in _COMPARE:
            self.integers(a_tag, b_tag)
            self.emit(f"if not {a_value} {_COMPARE[operator]} {b_value}: break")
        else:
            raise MachineError(f"unknown comparison {operator}")

    def settle(self) -> None:
        """Fail on a loose LIST or STR operand, before anything else."""
        for tag in self.loose:
            self.emit(f"if {tag} == {LIST} or {tag} == {STR}: break")
        self.loose = []

    def integers(self, *tags: str) -> None:
        """Leave the block unless every tag is ``INT`` (which settles
        those tags)."""
        tests = [f"{tag} != {INT}" for tag in tags if tag != str(INT)]
        self.loose = [tag for tag in self.loose if tag not in tags]
        if tests:
            self.emit(f"if {' or '.join(tests)}: break")

    def expression(self, expression):
        """Emit a guard expression's evaluation; returns the Python
        expressions of its tag and value."""
        kind = expression[0]
        if kind == "int":
            return str(INT), repr(expression[1])
        if kind == "atom":
            return str(ATOM), repr(expression[1])
        self.temps += 1
        n = self.temps
        if kind == "reg":
            self.value(f"x{expression[1]}", f"t{n}", f"v{n}")
            self.loose.append(f"t{n}")
            return f"t{n}", f"v{n}"
        if kind not in _ARITH:
            raise MachineError(f"unknown guard expression {expression}")
        a_tag, a_value = self.expression(expression[1])
        b_tag, b_value = self.expression(expression[2])
        self.integers(a_tag, b_tag)
        if kind in ("/", "mod"):
            if b_value == "0" or not b_value.lstrip("-").isdigit():
                self.emit(f"if {b_value} == 0: break")
            quotient = f"int({a_value} / {b_value})"
            result = quotient if kind == "/" else f"{a_value} - {b_value} * {quotient}"
        else:
            result = f"{a_value} {kind} {b_value}"
        self.emit(f"w{n} = {result}")
        return str(INT), f"w{n}"

    # -- body ------------------------------------------------------------

    def body(self, clause) -> None:
        ops = {instr.op for instr in clause.body}
        if "spawn" in ops:
            self.emit(f"goals = machine.goal_area.words[pe]; PG = P | {_DW_GOAL}")
        if ops & {"put_list", "put_struct"}:
            self.emit("alloc = machine.heap_alloc_i")
        spawned: List[str] = []
        for index, instr in enumerate(clause.body):
            op, a, b, c = instr.op, instr.a, instr.b, instr.c
            self.fetch(clause.body_base + index)
            if op == "proceed":
                break
            if op == "put_int":
                self.emit(f"x{a} = ({INT}, {b!r})")
            elif op == "put_atom":
                self.emit(f"x{a} = ({ATOM}, {b!r})")
            elif op == "put_var":
                self.emit(f"x{a} = ({REF}, machine.heap_alloc_unbound_i(pe))")
            elif op == "put_list":
                self.emit(f"h = alloc(pe, x{b}); alloc(pe, x{c}); x{a} = ({LIST}, h)")
            elif op == "put_struct":
                cells = "".join(f"alloc(pe, x{register}); " for register in c)
                self.emit(f"h = alloc(pe, ({FUNCTOR}, {b})); {cells}x{a} = ({STR}, h)")
            elif op == "body_unify":
                self.emit(f"unify_words(machine, engine, x{a}, x{b})")
            else:  # spawn: write a runnable goal record
                record = f"g{len(spawned)}"
                spawned.append(record)
                words = ", ".join(["0", str(a), str(len(b))] + [f"x{r}" for r in b])
                self.emit(f"{record} = machine.goal_area.allocate(pe); j = {record} & {SEGMENT_MASK}")
                self.emit(f"goals[j:j + {3 + len(b)}] = ({words})")
                self.emit(f"b = {record} << 24 | PG")
                self.emit("; ".join(
                    f"rec(b + {word * _WORD})" if word else "rec(b)"
                    for word in range(3 + len(b))
                ))
        # Push in reverse so the first body goal is dequeued first
        # (depth-first, left-to-right).
        if spawned:
            self.emit(f"engine.goal_list.extendleft(({', '.join(reversed(spawned))},))")
            self.emit(f"machine.runnable += {len(spawned)}")
        self.emit("return None")


def _check(clause) -> None:
    """Refuse a clause whose instructions cannot run."""
    for part, ops in (("passive", PASSIVE_OPS), ("body", BODY_OPS)):
        for instr in getattr(clause, part):
            if instr.op not in ops:
                raise MachineError(f"unknown {part} instruction {instr}")
    if not any(instr.op == "commit" for instr in clause.passive):
        raise MachineError("passive part fell off the end without committing")


def _procedure(procedure) -> List[str]:
    """The function of one procedure, as source lines."""
    registers = "".join(f"x{index}, " for index in range(procedure.arity))
    lines = [
        f"def p{procedure.functor_id}(machine, engine, args):",
        f"    # {procedure.name}/{procedure.arity}",
        "    pe = engine.pe",
        "    P = pe << 16",
        f"    HR = P | {_R_HEAP}",
        "    rec = machine._record",
        "    cells = machine.heap.cells",
        "    sus = []",
    ]
    if registers:
        lines.append(f"    {registers}= args")
    for clause in procedure.clauses:
        _check(clause)
        emitter = _Clause(lines)
        emitter.emit("# " + (" ".join(clause.source.splitlines()) or "clause"), 1)
        emitter.emit("s = 0", 1)
        emitter.emit("while True:", 1)
        emitter.passive(clause)
        emitter.body(clause)
        emitter.emit("if s > 0 and s not in sus: sus.append(s)", 1)
    lines += [
        "    if sus:",
        "        return sus",
        f"    no_clause(machine, {procedure.name + '/' + str(procedure.arity)!r}, args)",
    ]
    return lines


def source(program) -> str:
    """The Python source emitted for *program*'s procedures."""
    return "\n\n".join(
        "\n".join(_procedure(procedure)) for procedure in program.procedures.values()
    ) + "\n"


@lru_cache(maxsize=16)
def _compiled(text: str):
    """*text* compiled, once per process for each distinct source: a
    program built again from the same FGHC text emits the same code."""
    return compile(text, "<repro-fghc>", "exec")


def reducers(program) -> Dict[int, Callable]:
    """*program*'s procedures as compiled functions keyed by functor id,
    built on first use and kept on the program.

    The functions are removed from the namespace they run in, so
    neither refers to the other: a program's code is freed with it.
    """
    if program.code is None:
        namespace = dict(_NAMESPACE)
        exec(_compiled(source(program)), namespace)
        program.code = {
            functor_id: namespace.pop(f"p{functor_id}")
            for functor_id in program.procedures
        }
    return program.code
