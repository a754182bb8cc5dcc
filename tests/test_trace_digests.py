"""The emulator records the same reference stream, byte for byte.

``tests/golden/trace_digests.json`` holds the SHA-256 of each column of
the traces the machine-golden runs record, with their instruction-fetch
counts and GC marks (``tests/golden/generate_trace_digests.py``).  The
machine goldens pin what replaying those traces reports; these pin the
traces themselves, so a change to how references are recorded must
reproduce them exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.config import MachineConfig
from repro.machine.compiler import compile_program
from repro.machine.errors import LimitExceededError
from repro.machine.instructions import BODY_OPS, PASSIVE_OPS
from repro.machine.machine import KL1Machine
from repro.machine.parser import COMPARISON_OPS
from repro.programs import get as get_benchmark
from tests.test_machine_gc import CHURN

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN_DIR / "trace_digests.json").read_text())


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_trace_digests", GOLDEN_DIR / "generate_trace_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
RUNS = dict(GEN.runs())


def test_digests_cover_every_run():
    assert sorted(DIGESTS) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_trace_matches_its_digest(key):
    assert GEN.digest_record(RUNS[key]()) == DIGESTS[key]


def _guard_kinds(expression):
    """The node kinds of a guard expression tree: operators and leaves."""
    kinds = {expression[0]}
    if expression[0] not in ("reg", "int", "atom"):
        kinds |= _guard_kinds(expression[1]) | _guard_kinds(expression[2])
    return kinds


def test_pinned_programs_use_every_instruction():
    """The digested programs together hold every opcode, guard
    comparison, guard operator and guard leaf kind, so each way a
    clause is turned into code is pinned to a recorded stream."""
    gen = GEN.load_machine_generator()
    names = set(gen.FLAT_BENCHMARKS) | set(gen.CLUSTERED_BENCHMARKS)
    sources = [get_benchmark(name).source for name in sorted(names)]
    sources += [CHURN, GEN.OPCODES_PATH.read_text()]
    ops, guards = set(), set()
    for source in sources:
        for procedure in compile_program(source).procedures.values():
            for clause in procedure.clauses:
                for instr in clause.passive + clause.body:
                    ops.add(instr.op)
                    if instr.op == "guard_cmp":
                        guards |= {instr.a} | _guard_kinds(instr.b) | _guard_kinds(instr.c)
    assert ops == PASSIVE_OPS | BODY_OPS
    assert guards == set(COMPARISON_OPS) | {
        "+", "-", "*", "/", "mod", "reg", "int", "atom"
    }


def test_a_cut_off_run_keeps_its_trace_prefix():
    benchmark = get_benchmark("pascal")
    query = benchmark.query("tiny")

    def machine():
        return KL1Machine(
            benchmark.source, MachineConfig(n_pes=8, seed=1), sim_config=None
        )

    full = machine().run(query).trace
    cut = machine()
    with pytest.raises(LimitExceededError):
        cut.run(query, max_reductions=20)
    n = len(cut.trace)
    assert 0 < n < len(full)
    assert cut.port.total_refs == n
    for prefix, whole in zip(cut.trace.columns(), full.columns()):
        assert prefix == whole[:n]
