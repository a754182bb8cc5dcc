"""FGHC clause compiler.

Compiles parsed clauses into the abstract instruction set:

* head arguments become ``wait_*`` matching instructions with WAM-style
  read-mode sequences for nested structures (breadth-first via temporary
  registers);
* guards become ``guard_cmp`` / ``guard_integer`` / ``guard_wait``
  instructions whose expressions are evaluated against registers
  (guards are passive: they may read but never write the heap);
* body unifications build terms with ``put_*`` instructions and unify
  actively; ``:=`` arithmetic is flattened into builtin arithmetic
  *goals* (``add/3`` …) so an operand bound later simply suspends the
  arithmetic goal, as FGHC semantics require;
* every body goal is spawned as a goal record — the paper's accounting
  ("goal records are always written once and read once") is preserved
  by not short-circuiting even tail calls.

Register convention: ``X[0..arity-1]`` hold the incoming goal arguments;
clause variables and temporaries are allocated from ``X[arity]`` up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.machine.errors import CompileError
from repro.machine.instructions import CompiledClause, Instr, Procedure
from repro.machine.parser import COMPARISON_OPS, parse_program
from repro.machine.symbols import SymbolTable
from repro.machine.store import INSTR_BASE
from repro.machine.terms import (
    ATOM,
    INT,
    Clause,
    SAtom,
    SInt,
    SList,
    SStruct,
    STerm,
    SVar,
)

#: Builtin arithmetic goals ``name/3`` the ``:=`` flattener targets.
ARITH_BUILTINS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "mod": "mod"}

#: All builtin goal names (resolved before user procedures).
BUILTIN_GOALS = ("add", "sub", "mul", "div", "mod")

#: Instruction words charged per builtin goal reduction (its "microcode"
#: stub in the instruction area).
BUILTIN_STUB_WORDS = 2


class Program:
    """A compiled FGHC program, laid out in the instruction area."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        self.procedures: Dict[int, Procedure] = {}
        #: functor id -> builtin name, for goals resolved natively.
        self.builtins: Dict[int, str] = {}
        #: builtin functor id -> instruction-area stub address.
        self.builtin_stubs: Dict[int, int] = {}
        self.code_words = 0
        self.source_lines = 0
        #: functor id -> the procedure's generated function, built on
        #: first use (:func:`repro.machine.codegen.reducers`).
        self.code: Optional[Dict[int, Callable]] = None

    def procedure(self, name: str, arity: int) -> Procedure:
        functor_id = self.symbols.functor(name, arity)
        proc = self.procedures.get(functor_id)
        if proc is None:
            raise KeyError(f"no procedure {name}/{arity}")
        return proc

    def listing(self) -> str:
        """Human-readable code listing (for debugging and docs)."""
        parts = []
        for proc in self.procedures.values():
            parts.append(f"{proc.name}/{proc.arity}:")
            for clause in proc.clauses:
                parts.append(clause.listing())
        return "\n".join(parts)


class _ClauseCompiler:
    """Compiles one clause; owns its register map."""

    def __init__(self, symbols: SymbolTable, max_goal_args: int):
        self.symbols = symbols
        self.max_goal_args = max_goal_args
        self.registers: Dict[str, int] = {}
        self.next_register = 0
        self.passive: List[Instr] = []
        self.body: List[Instr] = []

    # -- registers -------------------------------------------------------

    def fresh(self) -> int:
        register = self.next_register
        self.next_register += 1
        return register

    def lookup(self, name: str) -> Optional[int]:
        return self.registers.get(name)

    def assign(self, name: str, register: int) -> int:
        self.registers[name] = register
        return register

    # -- head --------------------------------------------------------

    def compile_head(self, head: SStruct) -> None:
        arity = len(head.args)
        self.next_register = arity
        pending: List[Tuple[int, STerm]] = []
        for index, arg in enumerate(head.args):
            self._match_register(index, arg, pending)
        while pending:
            register, term = pending.pop(0)
            self._match_structure(register, term, pending)

    def _match_register(self, register: int, term: STerm, pending) -> None:
        """Match *term* against the value in *register*."""
        if isinstance(term, SVar):
            if term.name == "_":
                return
            seen = self.lookup(term.name)
            if seen is None:
                destination = self.assign(term.name, self.fresh())
                self.passive.append(Instr("head_var", register, destination))
            else:
                self.passive.append(Instr("head_val", register, seen))
        elif isinstance(term, SInt):
            self.passive.append(Instr("wait_const", register, (INT, term.value)))
        elif isinstance(term, SAtom):
            self.passive.append(
                Instr("wait_const", register, (ATOM, self.symbols.atom(term.name)))
            )
        else:
            self._match_structure(register, term, pending)

    def _match_structure(self, register: int, term: STerm, pending) -> None:
        if isinstance(term, SList):
            self.passive.append(Instr("wait_list", register))
            self._read_argument(term.head, pending)
            self._read_argument(term.tail, pending)
        elif isinstance(term, SStruct):
            functor_id = self.symbols.functor(term.name, term.arity)
            self.passive.append(
                Instr("wait_struct", register, functor_id, term.arity)
            )
            for arg in term.args:
                self._read_argument(arg, pending)
        else:  # pragma: no cover - callers dispatch on type
            raise CompileError(f"cannot match {term} structurally")

    def _read_argument(self, term: STerm, pending) -> None:
        """Emit the read-mode instruction for one subterm cell."""
        if isinstance(term, SVar):
            if term.name == "_":
                self.passive.append(Instr("read_var", self.fresh()))
                return
            seen = self.lookup(term.name)
            if seen is None:
                destination = self.assign(term.name, self.fresh())
                self.passive.append(Instr("read_var", destination))
            else:
                self.passive.append(Instr("read_val", seen))
        elif isinstance(term, SInt):
            self.passive.append(Instr("read_const", (INT, term.value)))
        elif isinstance(term, SAtom):
            self.passive.append(
                Instr("read_const", (ATOM, self.symbols.atom(term.name)))
            )
        else:
            # Nested structure: pull the cell into a temporary register
            # and match it after the current level (breadth-first).
            temporary = self.fresh()
            self.passive.append(Instr("read_var", temporary))
            pending.append((temporary, term))

    # -- guards ------------------------------------------------------

    def compile_guard(self, goal: STerm) -> None:
        if isinstance(goal, SAtom):
            if goal.name in ("true", "otherwise"):
                # ``otherwise`` is modelled as an always-true guard on the
                # final clause (DESIGN.md notes the simplification).
                return
            raise CompileError(f"unsupported guard {goal}")
        if not isinstance(goal, SStruct):
            raise CompileError(f"unsupported guard {goal}")
        if goal.name in COMPARISON_OPS and goal.arity == 2:
            left = self._guard_expr(goal.args[0])
            right = self._guard_expr(goal.args[1])
            self.passive.append(Instr("guard_cmp", goal.name, left, right))
            return
        if goal.name == "integer" and goal.arity == 1:
            self.passive.append(
                Instr("guard_integer", self._guard_register(goal.args[0]))
            )
            return
        if goal.name == "wait" and goal.arity == 1:
            self.passive.append(
                Instr("guard_wait", self._guard_register(goal.args[0]))
            )
            return
        raise CompileError(f"unsupported guard {goal}")

    def _guard_register(self, term: STerm) -> int:
        if not isinstance(term, SVar) or term.name == "_":
            raise CompileError(f"guard argument must be a named variable: {term}")
        register = self.lookup(term.name)
        if register is None:
            raise CompileError(
                f"guard variable {term.name} does not occur in the head"
            )
        return register

    def _guard_expr(self, term: STerm):
        if isinstance(term, SInt):
            return ("int", term.value)
        if isinstance(term, SAtom):
            return ("atom", self.symbols.atom(term.name))
        if isinstance(term, SVar):
            register = self.lookup(term.name)
            if register is None:
                raise CompileError(
                    f"guard variable {term.name} does not occur in the head"
                )
            return ("reg", register)
        if isinstance(term, SStruct) and term.name in ARITH_BUILTINS and term.arity == 2:
            return (
                term.name,
                self._guard_expr(term.args[0]),
                self._guard_expr(term.args[1]),
            )
        raise CompileError(f"unsupported guard expression {term}")

    # -- body ----------------------------------------------------------

    def compile_body(self, goals: Tuple[STerm, ...]) -> None:
        for goal in goals:
            self.compile_body_goal(goal)
        self.body.append(Instr("proceed"))

    def compile_body_goal(self, goal: STerm) -> None:
        if isinstance(goal, SAtom):
            goal = SStruct(goal.name, ())
        if not isinstance(goal, SStruct):
            raise CompileError(f"unsupported body goal {goal}")
        if goal.name == "=" and goal.arity == 2:
            self._compile_unification(goal.args[0], goal.args[1])
            return
        if goal.name == ":=" and goal.arity == 2:
            self._compile_assignment(goal.args[0], goal.args[1])
            return
        if goal.arity > self.max_goal_args:
            raise CompileError(
                f"goal {goal.name}/{goal.arity} exceeds the goal record's "
                f"{self.max_goal_args} argument words"
            )
        registers = tuple(self._build(arg) for arg in goal.args)
        functor_id = self.symbols.functor(goal.name, goal.arity)
        self.body.append(Instr("spawn", functor_id, registers))

    def _compile_unification(self, left: STerm, right: STerm) -> None:
        # ``X = Term`` with X not yet seen is a pure register alias.
        if isinstance(left, SVar) and left.name != "_" and self.lookup(left.name) is None:
            self.assign(left.name, self._build(right))
            return
        if (
            isinstance(right, SVar)
            and right.name != "_"
            and self.lookup(right.name) is None
        ):
            self.assign(right.name, self._build(left))
            return
        self.body.append(Instr("body_unify", self._build(left), self._build(right)))

    def _compile_assignment(self, target: STerm, expression: STerm) -> None:
        result = self._flatten_arith(expression)
        if isinstance(target, SVar) and target.name != "_" and self.lookup(target.name) is None:
            self.assign(target.name, result)
            return
        self.body.append(Instr("body_unify", self._build(target), result))

    def _flatten_arith(self, expression: STerm) -> int:
        """Flatten an arithmetic expression into builtin goals; returns
        the register holding (a variable for) the result."""
        if isinstance(expression, (SInt, SVar, SAtom)):
            return self._build(expression)
        if (
            isinstance(expression, SStruct)
            and expression.name in ARITH_BUILTINS
            and expression.arity == 2
        ):
            left = self._flatten_arith(expression.args[0])
            right = self._flatten_arith(expression.args[1])
            output = self.fresh()
            self.body.append(Instr("put_var", output))
            builtin = ARITH_BUILTINS[expression.name]
            functor_id = self.symbols.functor(builtin, 3)
            self.body.append(Instr("spawn", functor_id, (left, right, output)))
            return output
        raise CompileError(f"unsupported arithmetic expression {expression}")

    def _build(self, term: STerm) -> int:
        """Emit instructions leaving *term* in a register; returns it."""
        if isinstance(term, SVar):
            if term.name == "_":
                register = self.fresh()
                self.body.append(Instr("put_var", register))
                return register
            seen = self.lookup(term.name)
            if seen is not None:
                return seen
            register = self.assign(term.name, self.fresh())
            self.body.append(Instr("put_var", register))
            return register
        if isinstance(term, SInt):
            register = self.fresh()
            self.body.append(Instr("put_int", register, term.value))
            return register
        if isinstance(term, SAtom):
            register = self.fresh()
            self.body.append(
                Instr("put_atom", register, self.symbols.atom(term.name))
            )
            return register
        if isinstance(term, SList):
            car = self._build(term.head)
            cdr = self._build(term.tail)
            register = self.fresh()
            self.body.append(Instr("put_list", register, car, cdr))
            return register
        if isinstance(term, SStruct):
            arguments = tuple(self._build(arg) for arg in term.args)
            register = self.fresh()
            functor_id = self.symbols.functor(term.name, term.arity)
            self.body.append(Instr("put_struct", register, functor_id, arguments))
            return register
        raise CompileError(f"cannot build term {term}")  # pragma: no cover


def compile_clause(
    clause: Clause, symbols: SymbolTable, max_goal_args: int = 5
) -> CompiledClause:
    """Compile one clause."""
    if len(clause.head.args) > max_goal_args:
        raise CompileError(
            f"head {clause.head.name}/{len(clause.head.args)} exceeds the "
            f"goal record's {max_goal_args} argument words"
        )
    compiler = _ClauseCompiler(symbols, max_goal_args)
    compiler.compile_head(clause.head)
    for guard in clause.guards:
        compiler.compile_guard(guard)
    compiler.passive.append(Instr("commit"))
    compiler.compile_body(clause.body)
    return CompiledClause(compiler.passive, compiler.body, source=str(clause))


def compile_program(
    source: str, symbols: Optional[SymbolTable] = None, max_goal_args: int = 5
) -> Program:
    """Parse and compile FGHC *source* into a :class:`Program`."""
    symbols = symbols if symbols is not None else SymbolTable()
    program = Program(symbols)
    program.source_lines = sum(
        1 for line in source.splitlines() if line.strip() and not line.strip().startswith("%")
    )
    # Reserve the builtin goal functors and their code stubs first.
    cursor = INSTR_BASE
    for name in BUILTIN_GOALS:
        functor_id = symbols.functor(name, 3)
        program.builtins[functor_id] = name
        program.builtin_stubs[functor_id] = cursor
        cursor += BUILTIN_STUB_WORDS
    for clause in parse_program(source):
        functor_id = symbols.functor(clause.head.name, len(clause.head.args))
        if functor_id in program.builtins:
            raise CompileError(
                f"cannot redefine builtin {clause.head.name}/{len(clause.head.args)}"
            )
        proc = program.procedures.get(functor_id)
        if proc is None:
            proc = Procedure(functor_id, clause.head.name, len(clause.head.args))
            program.procedures[functor_id] = proc
        compiled = compile_clause(clause, symbols, max_goal_args)
        compiled.passive_base = cursor
        cursor += len(compiled.passive)
        compiled.body_base = cursor
        cursor += len(compiled.body)
        proc.clauses.append(compiled)
    program.code_words = cursor - INSTR_BASE
    return program
