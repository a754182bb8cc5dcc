"""Stop-and-copy garbage collector tests.

The collector must preserve program semantics exactly — including live
suspensions hooked to heap variables — while reclaiming dead structure,
performing zero instrumented memory references, and marking where
replay must invalidate the caches it relocated the heap under.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import MachineConfig, SimulationConfig
from repro.core.replay import replay
from repro.machine.machine import KL1Machine

GOLDEN_PATH = Path(__file__).parent / "golden" / "machine_stats.json"

CHURN = """
% Builds and discards a K-element list N times, keeping only the sums:
% nearly the whole heap is garbage at any collection point.
churn(0, K, Acc, R) :- R = Acc.
churn(N, K, Acc, R) :- N > 0 |
    build(K, L),
    sum(L, 0, S),
    Acc2 := Acc + S,
    N1 := N - 1,
    churn(N1, K, Acc2, R).

build(0, L) :- L = [].
build(K, L) :- K > 0 | L = [K|T], K1 := K - 1, build(K1, T).

sum([], Acc, R) :- R = Acc.
sum([X|Xs], Acc, R) :- A := Acc + X, sum(Xs, A, R).

main(N, K, R) :- churn(N, K, 0, R).
"""


def run_churn(gc_threshold, n_pes=2, n=30, k=40):
    machine = KL1Machine(
        CHURN,
        MachineConfig(n_pes=n_pes, seed=1, gc_threshold_words=gc_threshold),
    )
    result = machine.run(f"main({n}, {k}, R)")
    return machine, result


def test_answer_survives_collections():
    expected = 30 * (40 * 41 // 2)
    machine, result = run_churn(gc_threshold=2000)
    assert result.answer["R"] == expected
    assert result.gc_collections > 0
    assert result.gc_words_reclaimed > 0


def test_gc_matches_no_gc_semantics():
    _, with_gc = run_churn(gc_threshold=2000)
    _, without_gc = run_churn(gc_threshold=None)
    assert with_gc.answer == without_gc.answer
    assert with_gc.reductions == without_gc.reductions
    assert without_gc.gc_collections == 0


def test_heap_shrinks_after_collection():
    machine, result = run_churn(gc_threshold=2000)
    # The final heap holds only live data, far below total allocation.
    total_allocated = result.heap_words + result.gc_words_reclaimed
    assert result.heap_words < total_allocated / 2


def test_collection_emits_no_memory_references():
    machine = KL1Machine(
        CHURN, MachineConfig(n_pes=2, seed=1, gc_threshold_words=None)
    )
    machine.run("main(5, 20, R)")
    refs_before = machine.port.total_refs
    stats = machine.collect()
    assert machine.port.total_refs == refs_before
    assert stats.words_before >= stats.words_after


def test_collection_invalidates_caches():
    """The run's stats flush every cache at each collection: they match
    the golden recorded while the machine drove its caches live, and
    differ from a replay of the same trace that never flushes."""
    golden = json.loads(GOLDEN_PATH.read_text())["gc/churn2000"]["stats"]
    _, result = run_churn(gc_threshold=2000)
    assert result.gc_marks and len(result.gc_marks) == result.gc_collections
    assert result.stats.as_dict() == golden
    assert replay(result.trace, SimulationConfig()).as_dict() != golden


def test_gc_preserves_suspended_goals():
    """A floating goal's argument terms are roots: collection must keep
    the consumer resumable with its stream intact."""
    source = """
    consume([], Acc, R) :- R = Acc.
    consume([X|Xs], Acc, R) :- A := Acc + X, consume(Xs, A, R).
    junk(0) :- true.
    junk(N) :- N > 0 | build(30, L), len(L, Z), N1 := N - 1, junk(N1).
    build(0, L) :- L = [].
    build(K, L) :- K > 0 | L = [K|T], K1 := K - 1, build(K1, T).
    len([], R) :- R = 0.
    len([X|Xs], R) :- len(Xs, R1), R := R1 + 1.
    produce(S) :- S = [1, 2, 3].
    main(R) :- consume(S, 0, R), junk(40), produce(S).
    """
    machine = KL1Machine(
        source, MachineConfig(n_pes=1, seed=1, gc_threshold_words=600)
    )
    result = machine.run("main(R)")
    assert result.answer["R"] == 6
    assert result.gc_collections > 0
    assert result.suspensions > 0


def test_gc_rejected_under_track_data():
    machine = KL1Machine(
        "main(R) :- R = 1.",
        MachineConfig(n_pes=1, seed=1),
        SimulationConfig(track_data=True),
    )
    machine.run("main(R)")
    with pytest.raises(RuntimeError):
        machine.collect()


def test_benchmarks_survive_gc():
    """The paper benchmarks still verify when collecting aggressively."""
    from repro.programs import get

    benchmark = get("puzzle")
    machine = KL1Machine(
        benchmark.source,
        MachineConfig(n_pes=4, seed=1, gc_threshold_words=500),
    )
    result = machine.run(benchmark.query("tiny"))
    assert result.answer[benchmark.answer_var] == benchmark.expected["tiny"]
    assert result.gc_collections > 0
