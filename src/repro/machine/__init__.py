"""A from-scratch KL1 / FGHC abstract machine (the paper's substrate).

The paper evaluates the PIM cache by running a parallel KL1 emulator
that feeds memory references to the cache simulator.  This package is
that emulator, rebuilt from the paper's description of the architecture
(Section 2): Flat Guarded Horn Clauses are parsed
(:mod:`repro.machine.parser`), compiled to an abstract instruction set
(:mod:`repro.machine.compiler`) and from there to one Python function
per procedure (:mod:`repro.machine.codegen`), and reduced by one engine
per PE (:mod:`repro.machine.engine`) over five shared storage areas — heap,
instruction, goal, suspension and communication — with an on-demand
work-stealing scheduler (:mod:`repro.machine.scheduler`).

Every access to the five areas is issued through a
:class:`~repro.machine.port.MemoryPort`, which records it in a trace;
a run's cache statistics come from replaying that trace.
Registers, goal-queue pointers and other processor state are *not*
counted, matching the paper's "liberal correspondence" of emulator
variables to target-machine registers.
"""

from repro.machine.errors import (
    DeadlockError,
    FGHCSyntaxError,
    MachineError,
    ProgramFailure,
    UnificationFailure,
)
from repro.machine.machine import KL1Machine, MachineResult
from repro.machine.parser import parse_program, parse_goal
from repro.machine.compiler import compile_program

__all__ = [
    "DeadlockError",
    "FGHCSyntaxError",
    "KL1Machine",
    "MachineError",
    "MachineResult",
    "ProgramFailure",
    "UnificationFailure",
    "compile_program",
    "parse_goal",
    "parse_program",
]
