"""Tests for the remaining machine pieces: symbols, terms, the memory
port, and machine-level configuration wiring."""

import pytest

from repro.core.config import MachineConfig
from repro.machine.machine import KL1Machine
from repro.machine.port import MemoryPort
from repro.machine.store import COMM_BASE
from repro.machine.symbols import SymbolTable
from repro.machine.terms import (
    Clause,
    NIL,
    SAtom,
    SInt,
    SList,
    SStruct,
    SVar,
    slist,
    source_vars,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.events import Area, FLAG_LOCK_CONTENDED, Op


class TestSymbolTable:
    def test_atoms_intern_stably(self):
        table = SymbolTable()
        a = table.atom("foo")
        assert table.atom("foo") == a
        assert table.atom("bar") != a
        assert table.atom_name(a) == "foo"

    def test_functors_keyed_by_name_and_arity(self):
        table = SymbolTable()
        f1 = table.functor("f", 1)
        f2 = table.functor("f", 2)
        assert f1 != f2
        assert table.functor_name(f2) == ("f", 2)
        assert table.functor_str(f1) == "f/1"

    def test_repr(self):
        table = SymbolTable()
        table.atom("x")
        assert "1 atoms" in repr(table)


class TestSourceTerms:
    def test_slist_builder(self):
        term = slist(SInt(1), SInt(2))
        assert term == SList(SInt(1), SList(SInt(2), NIL))

    def test_list_str_renders_proper_and_improper(self):
        assert str(slist(SInt(1), SInt(2))) == "[1, 2]"
        improper = SList(SInt(1), SVar("T"))
        assert str(improper) == "[1 | T]"

    def test_source_vars_first_occurrence_order(self):
        term = SStruct("f", (SVar("B"), SList(SVar("A"), SVar("B")), SVar("_")))
        assert source_vars(term) == ["B", "A"]

    def test_clause_str(self):
        clause = Clause(SStruct("p", (SVar("X"),)), (), (SAtom("q"),))
        assert str(clause) == "p(X) :- true | q."


class TestMemoryPort:
    def test_counts_refs_and_instructions(self):
        port = MemoryPort(TraceBuffer(1))
        port.issue(0, Op.R, Area.INSTRUCTION, 0)
        port.issue(0, Op.W, Area.HEAP, 1 << 28)
        assert port.total_refs == 2
        assert port.instruction_refs == 1

    def test_conflict_injection_rate(self):
        port = MemoryPort(TraceBuffer(1), conflict_rate=1.0, seed=1)
        assert port.roll_conflict(shared=True) == FLAG_LOCK_CONTENDED
        assert port.roll_conflict(shared=False) == 0
        silent = MemoryPort(TraceBuffer(1), conflict_rate=0.0)
        assert silent.roll_conflict(shared=True) == 0

    def test_helpers_pack_as_issue_does(self):
        machine = KL1Machine(
            "main(R) :- R = ok.", MachineConfig(n_pes=2), sim_config=None
        )
        comm = COMM_BASE + 5
        machine.fetch(1, 0x1234)
        machine.comm_unlock_i(1, comm, FLAG_LOCK_CONTENDED)
        port = MemoryPort(TraceBuffer(2))
        port.issue(1, Op.R, Area.INSTRUCTION, 0x1234)
        port.issue(1, Op.U, Area.COMMUNICATION, comm, FLAG_LOCK_CONTENDED)
        assert machine.port.words == port.words
        machine.port.flush()
        assert list(machine.trace) == [
            (1, Op.R, Area.INSTRUCTION, 0x1234, 0),
            (1, Op.U, Area.COMMUNICATION, comm, FLAG_LOCK_CONTENDED),
        ]
        assert not machine.port.words

    @pytest.mark.parametrize(
        "pe, op, area, address, flags",
        [
            (128, Op.R, Area.HEAP, 0, 0),
            (-1, Op.R, Area.HEAP, 0, 0),
            (0, Op.R, Area.HEAP, 0, 128),
            (0, 9, Area.HEAP, 0, 0),
            (0, Op.R, 5, 0, 0),
            (0, Op.R, Area.HEAP, -1, 0),
            (0, Op.R, Area.HEAP, 1 << 39, 0),
        ],
    )
    def test_issue_rejects_fields_out_of_range(self, pe, op, area, address, flags):
        port = MemoryPort(TraceBuffer(1))
        with pytest.raises(ValueError):
            port.issue(pe, op, area, address, flags)
        assert port.total_refs == 0

    @pytest.mark.parametrize(
        "word",
        [200 << 16, 200, -1 << 24],
        ids=["pe", "flags", "address"],
    )
    def test_flush_rejects_a_field_its_column_cannot_hold(self, word):
        port = MemoryPort(TraceBuffer(1))
        port.issue(0, Op.R, Area.HEAP, 7)
        port.flush()
        port.words.append(word)
        with pytest.raises(ValueError, match="out of range"):
            port.flush()
        assert list(port.trace) == [(0, Op.R, Area.HEAP, 7, 0)]
        assert port.total_refs == 1

    def test_rejects_more_pes_than_a_column_holds(self):
        with pytest.raises(ValueError, match="at most 128 PEs"):
            MemoryPort(TraceBuffer(129))


class TestMachineWiring:
    def test_runs_without_cache_system(self):
        machine = KL1Machine(
            "main(R) :- R = ok.", MachineConfig(n_pes=1), sim_config=None
        )
        result = machine.run("main(R)")
        assert result.answer["R"] == "ok"
        assert result.stats is None
        assert result.trace is not None

    def test_injected_conflicts_show_in_stats(self):
        source = """
        bounce(0, X) :- X = done.
        bounce(N, X) :- N > 0 | N1 := N - 1, relay(N1, X).
        relay(N, X) :- bounce(N, X).
        main(X) :- bounce(40, X).
        """
        machine = KL1Machine(
            source, MachineConfig(n_pes=4, seed=1, lock_conflict_rate=1.0)
        )
        result = machine.run("main(X)")
        assert result.answer["X"] == "done"
        # Cross-PE lock pairs were marked contended: LH charged, UL sent.
        if result.stats.unlocks_with_waiter:
            assert result.stats.lh_responses > 0

    def test_query_with_structured_arguments(self):
        source = """
        sum([], A, R) :- R = A.
        sum([X|Xs], A, R) :- A1 := A + X, sum(Xs, A1, R).
        """
        machine = KL1Machine(source, MachineConfig(n_pes=2))
        result = machine.run("sum([5, 6, 7], 0, R)")
        assert result.answer["R"] == 18

    def test_bigger_goal_records_allow_wider_goals(self):
        source = "wide(A, B, C, D, E, F, R) :- R := A + B + C + D + E + F."
        machine = KL1Machine(
            source, MachineConfig(n_pes=2, goal_record_words=12)
        )
        result = machine.run("wide(1, 2, 3, 4, 5, 6, R)")
        assert result.answer["R"] == 21

    def test_machine_repr(self):
        machine = KL1Machine("main(R) :- R = 1.", MachineConfig(n_pes=2))
        assert "n_pes=2" in repr(machine)
