"""Compiled procedures: errors at build time, and no reference cycles.

Each FGHC procedure runs as one generated Python function
(:mod:`repro.machine.codegen`); the trace digests pin what it records.
These tests pin the rest of the contract: code that cannot run is
refused when the machine is built, before anything is emulated; the
emitted source can be read; and neither the program's functions nor a
finished machine sit in a reference cycle, so both are freed as soon as
the last reference goes.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import MachineConfig
from repro.machine.codegen import reducers, source
from repro.machine.compiler import compile_program
from repro.machine.errors import MachineError
from repro.machine.instructions import Instr
from repro.machine.machine import KL1Machine
from repro.programs import get as get_benchmark

PROGRAM = """
double(X, Y) :- X > 0 | Y := X * 2.
double(X, Y) :- X =< 0 | Y = 0.
main(R) :- double(4, R).
"""


def _broken(mutate):
    program = compile_program(PROGRAM)
    mutate(program.procedure("double", 2).clauses[0])
    return program


def _set_guard(clause, **fields):
    guard = next(instr for instr in clause.passive if instr.op == "guard_cmp")
    for name, value in fields.items():
        setattr(guard, name, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda clause: setattr(
                clause, "passive", (Instr("jump", 0),) + clause.passive
            ),
            "unknown passive instruction",
        ),
        (
            lambda clause: setattr(clause, "body", (Instr("halt"),) + clause.body),
            "unknown body instruction",
        ),
        (
            lambda clause: setattr(clause, "passive", clause.passive[:-1]),
            "without committing",
        ),
        (
            lambda clause: _set_guard(clause, b=("**", ("reg", 0), ("int", 2))),
            "unknown guard expression",
        ),
        (
            lambda clause: _set_guard(clause, a="<>"),
            "unknown comparison",
        ),
    ],
    ids=["opcode", "body-opcode", "no-commit", "guard-expression", "comparison"],
)
def test_code_that_cannot_run_is_refused_at_build(mutate, message):
    program = _broken(mutate)
    with pytest.raises(MachineError, match=message):
        KL1Machine(program, MachineConfig(n_pes=2), sim_config=None)


def test_each_procedure_is_one_function():
    program = compile_program(PROGRAM)
    text = source(program)
    assert text.count("\ndef ") + text.startswith("def ") == len(program.procedures)
    assert "while True:" in text
    functions = reducers(program)
    assert reducers(program) is functions
    assert sorted(functions) == sorted(program.procedures)


def test_a_finished_machine_dies_on_return():
    """No cycle holds a machine (or its program's code) after a run: with
    the cyclic collector off, dropping the last reference frees it."""
    benchmark = get_benchmark("tri")
    gc.disable()
    try:
        machine = KL1Machine(benchmark.source, MachineConfig(n_pes=8, seed=1))
        result = machine.run(benchmark.query("tiny"))
        assert result.stats is not None
        dead_machine = weakref.ref(machine)
        dead_code = weakref.ref(next(iter(machine.reducers.values())))
        del machine
        assert dead_machine() is None
        assert dead_code() is None
    finally:
        gc.enable()
