"""The differential fuzzing oracle (repro.verify.oracle / shrink).

The flat word-granularity memory is the trivially correct reference; a
fuzz case runs one contract trace through every execution path (system,
fast kernel, checked replay, sharded + interleaved cluster replay) and
demands value and counter agreement.  The negative test registers the
deliberately broken demo spec and checks the fuzzer finds *and shrinks*
the divergence end to end.
"""

import pytest

from repro.core.config import CacheConfig, SimulationConfig
from repro.core.protocol import temporarily_register
from repro.trace.buffer import TraceBuffer
from repro.trace.events import Area, Op
from repro.trace.synthetic import generate_contract_trace
from repro.verify import (
    Divergence,
    FlatMemory,
    run_case,
    run_fuzz,
    shrink_trace,
    subset,
    value_for,
)
from repro.verify.model import broken_demo_spec


# ---------------------------------------------------------------------------
# The flat reference model.


def test_flat_memory_defaults_to_zero():
    memory = FlatMemory()
    assert memory.read(0x123) == 0
    memory.write(0x123, 7)
    assert memory.read(0x123) == 7
    assert len(memory) == 1


def test_value_for_is_distinct_and_nonzero():
    values = [value_for(i) for i in range(100)]
    assert 0 not in values
    assert len(set(values)) == len(values)


# ---------------------------------------------------------------------------
# The contract trace generator keeps the software contracts.


def test_contract_trace_lock_consistency():
    trace = generate_contract_trace(4_000, n_pes=4, seed=3)
    held = {}  # address -> pe
    for pe, op, area, addr, flags in trace:
        if op == Op.LR:
            assert addr not in held, "LR on an already-held lock"
            held[addr] = pe
        elif op in (Op.UW, Op.U):
            assert held.get(addr) == pe, "unlock of a lock not held"
            del held[addr]
    assert not held, "trace ended with locks still held"


def test_contract_trace_is_deterministic():
    a = generate_contract_trace(1_000, n_pes=4, seed=9)
    b = generate_contract_trace(1_000, n_pes=4, seed=9)
    assert list(a) == list(b)
    c = generate_contract_trace(1_000, n_pes=4, seed=10)
    assert list(a) != list(c)


def test_contract_trace_never_rereads_purged_blocks():
    from repro.core.config import OptimizationConfig

    opts = OptimizationConfig.all()
    block_words = 4
    trace = generate_contract_trace(
        4_000, n_pes=4, seed=5, block_words=block_words, opts=opts
    )
    dead = set()
    for pe, op, area, addr, flags in trace:
        block = addr // block_words
        assert block not in dead, "reference to a retired (purged) block"
        if opts.honours(op, area) and (
            op == Op.RP
            or (op == Op.ER and addr % block_words == block_words - 1)
        ):
            dead.add(block)


# ---------------------------------------------------------------------------
# run_case: all paths agree on a healthy protocol.


def _flat_paths() -> int:
    """Value pass + generated kernel + checkpointed resume + checked
    replay."""
    return 4


def test_run_case_counts_every_path():
    trace = generate_contract_trace(600, n_pes=4, seed=1)
    config = SimulationConfig()
    refs = run_case(trace, config, n_pes=4, cluster_counts=(1, 2))
    # Paths: the flat paths, K=1 sharded + interleaved (2x), K=2
    # sharded + interleaved + value pass (3x).
    assert refs == (_flat_paths() + 5) * len(trace)


def test_run_case_skips_indivisible_cluster_counts():
    trace = generate_contract_trace(300, n_pes=4, seed=2)
    refs = run_case(trace, SimulationConfig(), n_pes=4, cluster_counts=(3,))
    # 4 PEs don't shard into 3 clusters: only the flat paths run.
    assert refs == _flat_paths() * len(trace)


def test_divergence_message_carries_kind_and_index():
    divergence = Divergence("value", "mismatch", index=41)
    assert "[value]" in str(divergence)
    assert "41" in str(divergence)


# ---------------------------------------------------------------------------
# Trace shrinking.


def _trace_with_addresses(addresses):
    buffer = TraceBuffer(n_pes=2)
    for i, addr in enumerate(addresses):
        buffer.append(i % 2, Op.R, Area.HEAP, addr)
    return buffer


def test_subset_picks_rows():
    buffer = _trace_with_addresses(range(10))
    picked = subset(buffer, [2, 5, 7])
    assert len(picked) == 3
    assert [row[3] for row in picked] == [2, 5, 7]
    assert picked.n_pes == buffer.n_pes


def test_shrink_reduces_to_the_failing_pair():
    # Synthetic failure: the trace "fails" iff it still contains both
    # address 17 and address 91 — ddmin must reduce 200 references to
    # exactly those two.
    addresses = list(range(200))
    addresses[60] = 17
    addresses[140] = 91
    buffer = _trace_with_addresses(addresses)

    def still_fails(candidate):
        seen = {row[3] for row in candidate}
        return 17 in seen and 91 in seen

    reduced = shrink_trace(buffer, still_fails)
    assert sorted(row[3] for row in reduced) == [17, 91]


def test_shrink_respects_eval_budget():
    buffer = _trace_with_addresses(range(64))
    evals = []

    def still_fails(candidate):
        evals.append(len(candidate))
        return 63 in {row[3] for row in candidate}

    shrink_trace(buffer, still_fails, max_evals=5)
    assert len(evals) <= 5


def test_shrink_returns_original_when_nothing_reproduces():
    buffer = _trace_with_addresses(range(8))
    reduced = shrink_trace(buffer, lambda candidate: False, max_evals=32)
    assert list(reduced) == list(buffer)


# ---------------------------------------------------------------------------
# The fuzz driver.


def test_fixed_seed_fuzz_is_clean():
    report = run_fuzz(seed=0, budget=4_000, refs_per_case=1_000)
    assert report.clean, report.render()
    assert report.refs_total >= 4_000
    assert all(case.ok for case in report.cases)
    assert "clean" in report.render()
    record = report.as_dict()
    assert record["clean"] is True
    assert record["refs_total"] == report.refs_total


def test_fuzz_is_reproducible():
    a = run_fuzz(seed=7, budget=2_000, refs_per_case=500)
    b = run_fuzz(seed=7, budget=2_000, refs_per_case=500)
    assert a.as_dict() == b.as_dict()


@pytest.mark.slow
def test_fuzzer_catches_and_shrinks_broken_protocol():
    # End to end: the broken demo spec survives until its dirty copy is
    # evicted unsynchronized — the small-cache variant makes that
    # constant, the flat model sees the stale value, and the shrinker
    # cuts the trace to a screenful.
    spec = broken_demo_spec(name="pim_broken_fuzz")
    with temporarily_register(spec):
        report = run_fuzz(
            seed=0,
            budget=6_000,
            refs_per_case=2_000,
            protocols=["pim_broken_fuzz"],
            max_shrink_evals=96,
        )
    assert not report.clean
    bad = report.divergences[0]
    assert bad.kind in ("value", "kernel-stats", "checked-stats")
    assert bad.detail
    assert bad.shrunk_refs, "divergent case was not shrunk"
    assert len(bad.shrunk_refs) < 100
    rendered = report.render()
    assert "DIVERGED" in rendered


@pytest.mark.slow
def test_run_case_raises_divergence_on_broken_protocol():
    spec = broken_demo_spec(name="pim_broken_case")
    with temporarily_register(spec):
        config = SimulationConfig(
            protocol="pim_broken_case",
            cache=CacheConfig(block_words=4, n_sets=4, associativity=1),
        )
        trace = generate_contract_trace(
            2_000, n_pes=4, seed=7919, opts=config.opts
        )
        with pytest.raises(Divergence):
            run_case(trace, config, n_pes=4)

# ---------------------------------------------------------------------------
# The speculative (lazypim) oracle rotation.


def test_lazypim_fuzz_rotation_leads_with_a_forced_conflict():
    from repro.verify import run_fuzz as fuzz

    report = fuzz(
        seed=0,
        budget=2_000,
        refs_per_case=1_000,
        protocols=["pim"],
        modes=("lazypim",),
    )
    assert report.clean, report.render()
    # The conflict variant is ordered first so ANY budget exercises at
    # least one real rollback (run_lazypim_case enforces it happened).
    first = report.cases[0]
    assert first.mode == "lazypim"
    assert first.variant == "conflict"
    assert "lazypim-conflict" in report.render()
    assert report.as_dict()["cases"][0]["mode"] == "lazypim"


def test_lazypim_fuzz_is_reproducible():
    from repro.verify import run_fuzz as fuzz

    a = fuzz(seed=5, budget=2_000, refs_per_case=500,
             protocols=["pim"], modes=("lazypim",))
    b = fuzz(seed=5, budget=2_000, refs_per_case=500,
             protocols=["pim"], modes=("lazypim",))
    assert a.as_dict() == b.as_dict()


def test_run_lazypim_case_no_rollback_diverges_when_required():
    from repro.verify import Divergence as Div, run_lazypim_case

    # Per-PE private blocks: every batch commits, so demanding a
    # rollback must fail loudly — the gate that keeps the
    # forced-conflict trace generator honest.
    trace = TraceBuffer(n_pes=2)
    for i in range(64):
        pe = i % 2
        trace.append(pe, Op.W if i % 4 == 0 else Op.R, Area.HEAP,
                     0x10000000 + pe * 256 + (i // 2) % 32)
    with pytest.raises(Div, match="no-rollback"):
        run_lazypim_case(
            trace,
            SimulationConfig(),
            n_pes=2,
            cluster_counts=(1,),
            require_rollback=True,
        )


def test_fuzz_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_fuzz(seed=0, budget=500, refs_per_case=500, modes=("eager",))
