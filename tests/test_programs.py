"""The four paper benchmarks: correctness against their Python oracles
and the workload signatures the paper attributes to each."""

import pytest

from repro.core.config import MachineConfig
from repro.machine.machine import KL1Machine
from repro.programs import Benchmark, get, names
from repro.programs import pascal, puzzle, semi, tri
from repro.trace.events import Area


def run_tiny(name, n_pes=4):
    benchmark = get(name)
    machine = KL1Machine(benchmark.source, MachineConfig(n_pes=n_pes, seed=1))
    result = machine.run(benchmark.query("tiny"))
    return benchmark, result


def test_registry_lists_the_papers_benchmarks():
    assert names() == ("tri", "semi", "puzzle", "pascal")
    for name in names():
        assert isinstance(get(name), Benchmark)
    with pytest.raises(KeyError):
        get("quicksort")


def test_unknown_scale_rejected():
    with pytest.raises(KeyError):
        get("tri").query("enormous")


@pytest.mark.parametrize("name", names())
def test_tiny_answers_match_oracle(name):
    benchmark, result = run_tiny(name)
    assert result.answer[benchmark.answer_var] == benchmark.expected["tiny"]


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize("n_pes", [1, 2, 8])
def test_answers_independent_of_pe_count(name, n_pes):
    benchmark = get(name)
    machine = KL1Machine(benchmark.source, MachineConfig(n_pes=n_pes, seed=2))
    result = machine.run(benchmark.query("tiny"))
    assert result.answer[benchmark.answer_var] == benchmark.expected["tiny"]


class TestTri:
    def test_thirty_six_jump_lines(self):
        assert len(tri.moves()) == 36

    def test_moves_are_valid_triples(self):
        for origin, over, target in tri.moves():
            assert {origin, over, target} <= set(range(15))
            assert len({origin, over, target}) == 3

    def test_full_game_reference_spot_check(self):
        # Two opening jumps exist from the hole-at-corner position.
        assert tri.reference(13) == 2

    def test_search_is_fanout_heavy(self):
        _, result = run_tiny("tri")
        # Many small tasks spread over the PEs (the paper's load story).
        assert sum(1 for count in result.pe_reductions if count > 0) >= 3


class TestSemi:
    def test_reference_closure(self):
        # {2,3} under multiplication mod 23 closes over 11 elements
        # within two rounds (the tiny preset).
        assert semi.reference(23, 2) == 11

    def test_closure_eventually_fixpoints(self):
        assert semi.reference(23, 10) == semi.reference(23, 6)

    def test_read_heavy_signature(self):
        _, result = run_tiny("semi")
        mix = result.stats.op_ref_percentages(data_only=True)
        assert mix["R"] > mix["W"]  # Semi is the read-heavy benchmark

    def test_suspension_heavy(self):
        _, result = run_tiny("semi")
        assert result.suspensions > 0


class TestPuzzle:
    def test_reference_tilings(self):
        assert puzzle.reference(2, 2) == 2
        assert puzzle.reference(3, 4) == 11
        assert puzzle.reference(4, 4) == 36

    def test_odd_board_has_no_tilings(self):
        assert puzzle.reference(3, 3) == 0

    def test_heap_heavy_signature(self):
        # The full heap-dominance claim (81 % of bus cycles in the paper,
        # ~88 % here) is the report's claim table2.puzzle_heap_bus; the
        # tiny board still shows substantial structure-copy traffic.
        _, result = run_tiny("puzzle")
        shares = result.stats.area_ref_percentages()
        assert shares[Area.HEAP] > 20
        assert shares[Area.HEAP] > shares[Area.SUSPENSION]
        assert shares[Area.HEAP] > shares[Area.COMMUNICATION]


class TestPascal:
    def test_reference_is_power_of_two(self):
        assert pascal.reference(12) == 2**11

    def test_pipeline_suspends(self):
        _, result = run_tiny("pascal")
        assert result.suspensions > 0

    def test_big_integers_supported(self):
        benchmark = get("pascal")
        machine = KL1Machine(benchmark.source, MachineConfig(n_pes=2, seed=1))
        result = machine.run("main(70, Sum)")
        assert result.answer["Sum"] == 2**69  # exceeds 64-bit
