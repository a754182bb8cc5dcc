"""Tests for trace-driven replay, including execution-vs-replay parity."""

import pytest

from repro.core.config import MachineConfig, OptimizationConfig, SimulationConfig
from repro.core.replay import replay, replay_many
from repro.core.speculative import plan_batches
from repro.core.system import PIMCacheSystem
from repro.machine.machine import KL1Machine
from repro.trace.buffer import TraceBuffer
from repro.trace.events import Area, Op
from repro.trace.synthetic import (
    AuroraTraceConfig,
    generate_aurora_trace,
    generate_contract_trace,
)
from tests.replay_loops import LOOPS, replay_through

SRC = """
nrev([], R) :- R = [].
nrev([X|Xs], R) :- nrev(Xs, T), app(T, [X], R).
app([], Ys, Z) :- Z = Ys.
app([X|Xs], Ys, Z) :- Z = [X|Z2], app(Xs, Ys, Z2).
main(R) :- nrev([1,2,3,4,5,6,7,8], R).
"""


def test_replay_default_config():
    trace = generate_aurora_trace(AuroraTraceConfig(n_pes=2, steps_per_pe=50))
    stats = replay(trace)
    assert stats.total_refs == len(trace)
    assert stats.bus_cycles_total > 0


def test_replay_many_matches_individual_replays():
    trace = generate_aurora_trace(AuroraTraceConfig(n_pes=2, steps_per_pe=50))
    configs = [
        SimulationConfig(opts=OptimizationConfig.all()),
        SimulationConfig(opts=OptimizationConfig.none()),
    ]
    many = replay_many(trace, configs)
    assert [s.bus_cycles_total for s in many] == [
        replay(trace, c).bus_cycles_total for c in configs
    ]


def test_replay_blocked_trace_raises():
    trace = TraceBuffer(n_pes=2)
    trace.append(0, Op.LR, Area.HEAP, 1 << 28)
    trace.append(1, Op.R, Area.HEAP, 1 << 28)  # conflicts while locked
    with pytest.raises(RuntimeError):
        replay(trace)


@pytest.mark.parametrize("loop", LOOPS + ("lazypim",))
def test_ranges_compose_into_the_whole_run(loop):
    """Replaying ``[0, b)`` then ``[b, n)`` of one buffer into one
    system equals replaying ``[0, n)``; for lazypim ``b`` must be a
    batch boundary, so every loop splits at one."""
    trace = generate_contract_trace(2_000, n_pes=4, seed=21)
    config = SimulationConfig()

    def run(system, start=0, stop=None):
        if loop == "lazypim":
            return replay(
                trace, system=system, mode="lazypim", batch_refs=64,
                start=start, stop=stop,
            )
        return replay_through(loop, trace, system=system, start=start, stop=stop)

    whole = run(PIMCacheSystem(config, 4)).as_dict()
    spans = plan_batches(trace, 64)
    split = spans[len(spans) // 2][0]
    system = PIMCacheSystem(config, 4)
    run(system, stop=split)
    assert run(system, start=split).as_dict() == whole
    if loop == "lazypim":
        assert whole["batch_commits"] and whole["batch_rollbacks"]


def test_execution_and_replay_agree_exactly():
    """The paper's execution-driven setup and our trace replay must
    produce identical protocol statistics on the same stream and config."""
    machine = KL1Machine(SRC, MachineConfig(n_pes=2, seed=3))
    result = machine.run("main(R)")
    assert result.stats is not None and result.trace is not None
    replayed = replay(result.trace, SimulationConfig())
    live = result.stats
    assert replayed.total_refs == live.total_refs
    assert replayed.bus_cycles_total == live.bus_cycles_total
    assert replayed.refs == live.refs
    assert replayed.hits == live.hits
    assert replayed.pattern_counts == live.pattern_counts
    assert replayed.dw_allocations == live.dw_allocations
    assert replayed.purges_dirty == live.purges_dirty
    assert replayed.lr_no_bus == live.lr_no_bus


def test_replay_against_different_geometry_differs():
    machine = KL1Machine(SRC, MachineConfig(n_pes=2, seed=3))
    result = machine.run("main(R)")
    from repro.core.config import CacheConfig

    small = replay(
        result.trace,
        SimulationConfig(cache=CacheConfig(block_words=4, n_sets=2, associativity=1)),
    )
    base = replay(result.trace, SimulationConfig())
    assert small.miss_ratio >= base.miss_ratio
