"""Speculative batch coherence (LazyPIM mode): units and identities.

The engine's contract (docs/SPECULATIVE.md) is tested from four sides:

* **planning** — lock operations and contended references force early
  batch commits (they run as non-speculative singletons), everything
  else chops into ``batch_refs``-sized spans, and the driver's one-pass
  numpy plan matches the per-batch reference verdicts (hypothesis), and
  one kernel session walks it, one send per invariant period, folding
  once;
* **signatures** — the commit test fires exactly on cross-PE write
  intersections, and its false-positive rate is monotone in the
  signature width (hypothesis);
* **identities** — batch size 1 is counter-identical to the pessimistic
  path for every registered protocol, commit/rollback counters are
  deterministic across the two replay loops, the cycle-ledger
  exact-sum invariant survives bulk settlement, and streamed execution
  reproduces the monolithic run;
* **rollback** — conflicting batches roll back invisibly (final memory
  equals the pessimistic run), including across a persisted checkpoint
  boundary, and the checkpoint snapshot never aliases live cache-line
  data (the regression that once leaked a future write backward
  through a rollback).
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    MODES,
    OptimizationConfig,
    SimulationConfig,
    SpeculationConfig,
)
from repro.core import speculative
from repro.core.protocol import codegen, protocol_names
from repro.core.replay import ReplayBlockedError, replay
from repro.core.speculative import (
    batch_signatures,
    plan_batches,
    replay_speculative,
    signatures_conflict,
)
from repro.core.system import PIMCacheSystem
from repro.obs.metrics import cycle_ledger
from repro.serve.checkpoint import restore, restore_into, snapshot
from repro.serve.stream import replay_stream
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, FLAG_LOCK_CONTENDED, Area, Op
from repro.trace.synthetic import (
    generate_contract_trace,
    generate_false_sharing_trace,
)
from tests.replay_loops import LOOPS

HEAP = AREA_BASE[Area.HEAP]


def _lazy(config=None, **knobs) -> SimulationConfig:
    """*config* (default: the base model) in LazyPIM mode with *knobs*."""
    config = config if config is not None else SimulationConfig()
    return replace(config, speculation=SpeculationConfig("lazypim", **knobs))

SPECULATIVE_COUNTERS = {
    "batch_commits",
    "batch_rollbacks",
    "signature_settles",
    "batch_elided_invalidations",
}


def _strip(stats_dict):
    return {
        key: value
        for key, value in stats_dict.items()
        if key not in SPECULATIVE_COUNTERS
    }


# ---------------------------------------------------------------------------
# Batch planning.


def test_plan_batches_chops_and_isolates_locks():
    trace = TraceBuffer(n_pes=2)
    for i in range(10):
        trace.append(i % 2, Op.R, Area.HEAP, HEAP + 4 * i)
    trace.append(0, Op.LR, Area.HEAP, HEAP + 4096)
    for i in range(5):
        trace.append(i % 2, Op.W, Area.HEAP, HEAP + 4 * i)
    assert plan_batches(trace, 4) == [
        (0, 4, True),
        (4, 8, True),
        (8, 10, True),
        (10, 11, False),
        (11, 15, True),
        (15, 16, True),
    ]


def test_plan_batches_contended_flag_is_a_barrier():
    trace = TraceBuffer(n_pes=2)
    trace.append(0, Op.R, Area.HEAP, HEAP)
    trace.append(1, Op.R, Area.HEAP, HEAP + 4, flags=FLAG_LOCK_CONTENDED)
    trace.append(0, Op.R, Area.HEAP, HEAP + 8)
    assert plan_batches(trace, 8) == [
        (0, 1, True),
        (1, 2, False),
        (2, 3, True),
    ]


def test_plan_batches_empty_and_window():
    assert plan_batches(TraceBuffer(n_pes=2), 4) == []
    trace = TraceBuffer(n_pes=2)
    for i in range(6):
        trace.append(0, Op.R, Area.HEAP, HEAP + 4 * i)
    assert plan_batches(trace, 4, start=2, stop=5) == [(2, 5, True)]


# ---------------------------------------------------------------------------
# Signatures and the conflict verdict.


def test_signatures_split_reads_from_writes():
    trace = TraceBuffer(n_pes=2)
    trace.append(0, Op.W, Area.HEAP, HEAP)
    trace.append(0, Op.DW, Area.HEAP, HEAP + 4)
    trace.append(1, Op.R, Area.HEAP, HEAP + 64)
    reads, writes = batch_signatures(trace, 0, 3, 2, 2, 256)
    assert writes[0] and not reads[0]
    assert reads[1] and not writes[1]
    assert not signatures_conflict(reads, writes)


def test_conflict_fires_on_cross_pe_write_intersection():
    trace = TraceBuffer(n_pes=2)
    trace.append(0, Op.W, Area.HEAP, HEAP)
    trace.append(1, Op.R, Area.HEAP, HEAP + 1)  # same block, other PE
    reads, writes = batch_signatures(trace, 0, 2, 2, 2, 256)
    assert signatures_conflict(reads, writes)
    # A PE never conflicts with itself.
    trace = TraceBuffer(n_pes=2)
    trace.append(0, Op.W, Area.HEAP, HEAP)
    trace.append(0, Op.R, Area.HEAP, HEAP + 1)
    reads, writes = batch_signatures(trace, 0, 2, 2, 2, 256)
    assert not signatures_conflict(reads, writes)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),       # pe
            st.booleans(),           # write?
            st.integers(0, 1 << 14)  # block
        ),
        min_size=1,
        max_size=64,
    )
)
def test_conflict_verdict_monotone_in_signature_width(refs):
    """A conflict at width 2w is also a conflict at width w: truncating
    the hash can only merge bits, never separate them, so the
    false-positive rate is monotone non-increasing in the width."""
    trace = TraceBuffer(n_pes=4)
    for pe, is_write, block in refs:
        trace.append(pe, Op.W if is_write else Op.R, Area.HEAP,
                     HEAP + block * 4)
    verdicts = []
    for width in (4, 8, 16, 32, 64, 128, 256):
        reads, writes = batch_signatures(trace, 0, len(trace), 4, 2, width)
        verdicts.append(signatures_conflict(reads, writes))
    for narrow, wide in zip(verdicts, verdicts[1:]):
        assert narrow or not wide


def _reference_plan(trace, batch_refs, signature_bits, start, stop):
    """The driver's plan from the per-batch definitions: each batch of
    ``plan_batches`` is clean unless it is a barrier or its signatures
    conflict."""
    clean, rollbacks = [], 0
    for lo, hi, speculative_span in plan_batches(
        trace, batch_refs, start, stop
    ):
        commit = speculative_span and not signatures_conflict(
            *batch_signatures(trace, lo, hi, trace.n_pes, 2, signature_bits)
        )
        rollbacks += speculative_span and not commit
        if commit:
            clean.append((lo, hi))
    return clean, rollbacks


_PLAN_OPS = [Op.R, Op.R, Op.W, Op.DW, Op.ER, Op.RP, Op.RI, Op.LR, Op.UW, Op.U]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),                  # pe
            st.sampled_from(_PLAN_OPS),         # op
            st.integers(0, 255),                # word
            st.integers(0, 15),                 # 0 = contended flag
        ),
        max_size=400,
    ),
    st.integers(1, 300),
    st.sampled_from([1 << k for k in range(1, 11)]),
    st.integers(0, 420),
    st.integers(0, 420),
)
def test_one_pass_plan_matches_per_batch_reference(
    refs, batch_refs, signature_bits, a, b
):
    trace = TraceBuffer(n_pes=4)
    for pe, op, word, flag in refs:
        trace.append(pe, op, Area.HEAP, HEAP + word,
                     flags=FLAG_LOCK_CONTENDED if flag == 0 else 0)
    start, stop = sorted((min(a, len(trace)), min(b, len(trace))))
    assert speculative._plan(
        trace, batch_refs, signature_bits, 2, start, stop
    ) == _reference_plan(trace, batch_refs, signature_bits, start, stop)


@pytest.mark.parametrize("signature_bits", [1 << 62, 1 << 63, 1 << 64])
def test_one_pass_plan_with_signatures_wider_than_a_word(signature_bits):
    # Low addresses keep the reference's one-bit-per-block ints small.
    trace = TraceBuffer(n_pes=4)
    for i in range(600):
        op = Op.LR if i % 50 == 0 else (Op.R, Op.W)[i * 7 % 3 == 0]
        trace.append(i % 4, op, Area.INSTRUCTION, i * 37 % 101)
    clean, rollbacks = _reference_plan(trace, 16, signature_bits, 0, 600)
    assert rollbacks and clean
    assert speculative._plan(trace, 16, signature_bits, 2, 0, 600) == (
        clean, rollbacks
    )


def test_lazypim_runs_each_span_once_and_folds_once(monkeypatch):
    # One kernel session walks the whole plan: one send per invariant
    # period (one in all with the checks off), carrying that period's
    # clean batches, and one fold.  The kernel defers and settles the
    # batches itself: the per-span driver functions never run.
    trace = generate_contract_trace(3_000, n_pes=4, seed=7)
    clean, rollbacks = _reference_plan(trace, 64, 256, 0, len(trace))
    assert clean and rollbacks
    calls = Counter()
    sent = []
    opened = []

    class Counting:
        def __init__(self, session):
            self._session = session

        def __getattr__(self, name):
            method = getattr(self._session, name)

            def counted(*args):
                calls[name] += 1
                if name == "advance":
                    sent.append(args)
                return method(*args)

            return counted

    real = speculative.replay_ranges

    @contextmanager
    def spy(*args, **kwargs):
        with real(*args, **kwargs) as session:
            opened.append(session)
            yield Counting(session)

    def per_span(*args):
        raise AssertionError("a per-span driver function ran")

    monkeypatch.setattr(speculative, "replay_ranges", spy)
    monkeypatch.setattr(speculative, "_attempt", per_span)
    monkeypatch.setattr(speculative, "_settle", per_span)
    # Batches of 64 never hold two multiples of 512, so every multiple
    # ends a period.
    for every, periods in ((0, 1), (512, len(trace) // 512 + 1)):
        calls.clear()
        sent.clear()
        opened.clear()
        stats = replay_speculative(
            trace, _lazy(batch_refs=64), check_invariants_every=every
        )
        assert (stats.batch_commits, stats.batch_rollbacks) == (
            len(clean), rollbacks
        )
        assert len(opened) == 1
        assert isinstance(opened[0], codegen.KernelSession)
        assert calls == {"advance": periods, "fold": 1}
        # The sends cover the range in order and carry every clean batch.
        bounds = [lo for lo, _, _ in sent] + [sent[-1][1]]
        assert bounds == [0] + [hi for _, hi, _ in sent]
        assert bounds[-1] == len(trace)
        assert [batch for _, _, part in sent for batch in part] == clean


# ---------------------------------------------------------------------------
# Degenerate batch: size 1 IS the pessimistic protocol.


@pytest.mark.parametrize("protocol", list(protocol_names()))
def test_batch_one_counter_identical_per_protocol(protocol):
    trace = generate_contract_trace(2_500, n_pes=4, seed=11)
    config = SimulationConfig(protocol=protocol)
    base = replay(trace, config).as_dict()
    lazy = replay(trace, _lazy(config, batch_refs=1)).as_dict()
    assert lazy == base  # speculative counters included: all zero


def test_forced_batch_one_differs_only_in_speculative_counters():
    """force_speculation runs the full defer/settle machinery per
    reference; deferral plus immediate settlement must price exactly
    like live charging."""
    trace = generate_contract_trace(2_000, n_pes=4, seed=3)
    base = replay(trace, SimulationConfig()).as_dict()
    forced = replay_speculative(
        trace, _lazy(batch_refs=1), force_speculation=True
    ).as_dict()
    assert _strip(forced) == _strip(base)
    assert forced["batch_rollbacks"] == 0
    assert forced["batch_commits"] > 0


# ---------------------------------------------------------------------------
# Determinism across the two replay loops.


def _lazypim(loop, trace, config, **knobs):
    """LazyPIM replay with *loop* (see ``tests/replay_loops.py``)
    driving the batches: an ``on_result`` observer makes the driver run
    the per-access loop."""
    config = _lazy(config, **knobs)
    if loop == "generated":
        return replay(trace, config)
    return replay_speculative(trace, config, on_result=lambda *_: None)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1 << 10))
def test_commit_rollback_counters_deterministic(seed):
    trace = generate_false_sharing_trace(1_200, n_pes=4, seed=seed)
    config = SimulationConfig()
    generated, interpreted = (
        _lazypim(loop, trace, config, batch_refs=64).as_dict()
        for loop in ("generated", "interpreted")
    )
    assert generated == interpreted


def test_lazypim_traffic_between_unoptimized_and_commands(tiny_workloads):
    """Speculation defers pricing, never semantics: it may only elide
    coherence control, so on a real benchmark it sits between doing
    nothing and the paper's data-movement-killing commands."""
    trace = tiny_workloads.trace("tri", n_pes=4)
    unoptimized = SimulationConfig(opts=OptimizationConfig.none())
    unopt = replay(trace, unoptimized)
    commands = replay(trace, SimulationConfig())
    lazy = replay(trace, _lazy(unoptimized))
    assert lazy.batch_commits > 0
    assert commands.bus_cycles_total < unopt.bus_cycles_total
    assert lazy.bus_cycles_total <= unopt.bus_cycles_total


def test_lazypim_rolls_back_on_false_sharing():
    trace = generate_false_sharing_trace(2_000, n_pes=4, seed=2)
    stats = replay(trace, _lazy(batch_refs=64))
    assert stats.batch_rollbacks > 0
    assert stats.total_refs == len(trace)


# ---------------------------------------------------------------------------
# Cycle-ledger exact-sum identity under bulk settlement.


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("interconnect", ["bus", "directory"])
def test_cycle_ledger_exact_under_lazypim(kernel, interconnect):
    trace = generate_contract_trace(3_000, n_pes=4, seed=7)
    stats = _lazypim(
        kernel, trace, SimulationConfig(interconnect=interconnect)
    )
    ledger = cycle_ledger(stats)  # verify=True raises on any mismatch
    assert ledger.attributed_total == ledger.pe_cycles_total
    assert stats.batch_commits > 0


def test_cycle_ledger_exact_under_rollback_storm():
    trace = generate_false_sharing_trace(2_000, n_pes=4, seed=5)
    stats = replay(trace, _lazy(batch_refs=64))
    assert stats.batch_rollbacks > 0
    cycle_ledger(stats)
    # A conflicting batch skips its attempt and runs pessimistically,
    # so a storm of them lands exactly on pessimistic traffic.
    pessimistic = replay(trace, SimulationConfig())
    assert stats.bus_cycles_total == pessimistic.bus_cycles_total


# ---------------------------------------------------------------------------
# Locks force early commits.


def test_lock_access_forces_early_batch_commit():
    trace = TraceBuffer(n_pes=2)
    for i in range(6):
        pe = i % 2
        trace.append(pe, Op.R, Area.HEAP, HEAP + pe * 64 + 4 * (i // 2))
    trace.append(0, Op.LR, Area.HEAP, HEAP + 4096)
    trace.append(0, Op.UW, Area.HEAP, HEAP + 4096)
    for i in range(6):
        pe = i % 2
        trace.append(pe, Op.W, Area.HEAP, HEAP + 512 + pe * 64 + 4 * (i // 2))
    stats = replay(trace, _lazy(batch_refs=256))
    # 14 references fit one batch, but the adjacent LH/UL pair splits
    # the stream into two speculative spans around two pessimistic
    # singletons — one commit more than the lock-free stream.
    assert stats.batch_commits == 2
    assert stats.batch_rollbacks == 0
    assert stats.total_refs == len(trace)

    lock_free = TraceBuffer(n_pes=2)
    for pe, op, area, addr, flags in trace:
        if op not in (Op.LR, Op.UW):
            lock_free.append(pe, op, area, addr, flags)
    baseline = replay(lock_free, _lazy(batch_refs=256))
    assert baseline.batch_commits == 1


# ---------------------------------------------------------------------------
# Rollback correctness.


def test_rollbacks_invisible_in_final_memory():
    trace = generate_false_sharing_trace(2_000, n_pes=4, seed=2)
    config = SimulationConfig(track_data=True)
    speculative = PIMCacheSystem(_lazy(config, batch_refs=64), 4)
    stats = replay_speculative(trace, system=speculative)
    assert stats.batch_rollbacks > 0
    pessimistic = PIMCacheSystem(config, 4)
    replay(trace, system=pessimistic)
    speculative.flush_all(silent=True)
    pessimistic.flush_all(silent=True)
    assert speculative.memory == pessimistic.memory


def test_rollback_spans_checkpoint_boundary():
    """Snapshot at a batch boundary mid-run, continue through batches
    that roll back; a resume from the persisted (JSON round-tripped)
    checkpoint must reproduce the undisturbed continuation bit-for-bit."""
    trace = generate_false_sharing_trace(1_600, n_pes=4, seed=4)
    spans = plan_batches(trace, 64)
    boundary = spans[len(spans) // 2][0]
    live = PIMCacheSystem(_lazy(batch_refs=64), 4)
    replay_speculative(trace, system=live, stop=boundary)
    checkpoint = json.loads(json.dumps(snapshot(live)))
    reference = replay_speculative(
        trace, system=live, start=boundary
    ).as_dict()
    assert reference["batch_rollbacks"] > 0

    # The checkpoint's config carries the batch knobs.
    resumed = replay_speculative(
        trace, system=restore(checkpoint), start=boundary
    )
    assert resumed.as_dict() == reference


def test_snapshot_does_not_alias_cached_line_data():
    """Regression: cache-line data lists are mutated in place by the
    system, so an aliasing snapshot decays as the run continues — the
    bug once let a rolled-back batch's future write leak backward."""
    config = SimulationConfig(track_data=True)
    system = PIMCacheSystem(config, 2)
    system.access(0, Op.W, Area.HEAP, HEAP, 7)
    state = snapshot(system)
    frozen = json.dumps(state, sort_keys=True)
    system.access(0, Op.W, Area.HEAP, HEAP, 99)  # in-place line mutation
    assert json.dumps(state, sort_keys=True) == frozen
    restore_into(system, state)
    assert system.access(0, Op.R, Area.HEAP, HEAP)[2] == 7


# ---------------------------------------------------------------------------
# Chunked and streamed execution.


def test_replay_stream_lazypim_matches_monolithic_when_aligned():
    # chunk_refs a multiple of batch_refs and a barrier-free trace:
    # the documented condition for streamed == monolithic counters.
    trace = generate_false_sharing_trace(1_024, n_pes=4, seed=9)
    config = _lazy(batch_refs=64)
    streamed = replay_stream(trace, config, chunk_refs=256).as_dict()
    mono = replay(trace, config).as_dict()
    assert streamed == mono
    assert streamed["batch_rollbacks"] > 0


def test_invariants_checked_at_batch_boundaries_on_directory():
    trace = generate_false_sharing_trace(1_500, n_pes=4, seed=3)
    stats = replay_speculative(
        trace,
        _lazy(SimulationConfig(interconnect="directory"), batch_refs=64),
        check_invariants_every=128,
    )
    assert stats.batch_rollbacks > 0


# ---------------------------------------------------------------------------
# One kernel session drives every span of a lazypim replay.


@pytest.mark.parametrize("protocol", protocol_names())
def test_singletons_between_batches_match_per_access_loop(protocol):
    # Lock operations and a flagged plain read run as pessimistic
    # singletons between batches.  The flagged read is a fast kind, and
    # the same PE's next slow reference, in a batch that conflicts and
    # so runs pessimistically, starts a bus transaction from its clock:
    # the singletons must pass through the session's clock accounting,
    # not around it.
    trace = TraceBuffer(n_pes=2)
    lock = HEAP + 4096
    for round_ in range(3):
        for i in range(5):
            trace.append(0, Op.R, Area.HEAP, HEAP + 4 * i)
            trace.append(1, Op.R, Area.HEAP, HEAP + 256 + 4 * i)
        trace.append(0, Op.LR, Area.HEAP, lock)
        trace.append(0, Op.R, Area.HEAP, HEAP, FLAG_LOCK_CONTENDED)
        shared = HEAP + 512 + 4 * round_
        trace.append(0, Op.W, Area.HEAP, shared)
        trace.append(1, Op.R, Area.HEAP, shared)
        trace.append(0, Op.UW, Area.HEAP, lock)
    config = SimulationConfig(protocol=protocol)
    generated, interpreted = (
        _lazypim(loop, trace, config, batch_refs=4).as_dict()
        for loop in ("generated", "interpreted")
    )
    assert generated == interpreted
    assert generated["batch_commits"] > 0
    assert generated["batch_rollbacks"] == 3


@pytest.mark.parametrize("interconnect", ["bus", "directory"])
def test_contract_trace_singletons_match_per_access_loop(interconnect):
    trace = generate_contract_trace(3_000, n_pes=4, seed=11)
    config = SimulationConfig(interconnect=interconnect)
    generated, interpreted = (
        _lazypim(loop, trace, config, batch_refs=32).as_dict()
        for loop in ("generated", "interpreted")
    )
    assert generated == interpreted


def test_boundaries_passed_by_hits_are_handled_at_one_slow_reference():
    # Batches of 8 on disjoint blocks.  The first ends with hits after
    # each PE's misses, so its settlement needs the clocks credited up
    # to its end; the second only re-reads (hits: the kernel meets no
    # slow reference in it); the third opens with a miss.  The kernel
    # handles the ends of the first two batches together, at that miss,
    # and must price them as if each had been handled on time.
    a0, a1, b0 = HEAP, HEAP + 16, HEAP + 1024
    trace = TraceBuffer(n_pes=2)
    for pe, address in (
        (0, a0), (0, a1), (0, a0), (0, a1), (1, b0), (0, a0), (0, a1),
        (1, b0),
        (0, a0), (0, a1), (0, a0), (0, a1), (0, a0), (0, a1), (0, a0),
        (0, a1),
        (1, b0 + 16), (0, a0 + 32), (1, b0), (0, a1),
    ):
        trace.append(pe, Op.R, Area.HEAP, address)
    generated, interpreted = (
        _lazypim(loop, trace, SimulationConfig(), batch_refs=8).as_dict()
        for loop in ("generated", "interpreted")
    )
    assert generated == interpreted
    assert generated["batch_commits"] == 3
    assert generated["hits"]["heap"]["R"] == 5 + 8 + 2
    assert generated["bus_wait_cycles"] > 0


def test_hits_that_pass_a_pending_boundary_on_the_directory():
    # Directory backend, batches of 8.  A purge hit (it notes its drop to
    # the directory) is the first reference after the first clean batch
    # ends, and a silent store hit (it changes a line state the
    # settlement's resync reads) the first after the second; then a
    # batch conflicts on another block.  The directory entries, not only
    # the counters, must agree with the per-access loop's.
    goal = AREA_BASE[Area.GOAL]
    block_x, block_y = HEAP + 64, HEAP + 512
    trace = TraceBuffer(n_pes=2)
    refs = [(0, Op.R, Area.GOAL, goal), (1, Op.R, Area.HEAP, block_x)]
    refs += [(i % 2, Op.R, Area.HEAP, HEAP + 256 + 16 * i) for i in range(6)]
    refs += [(0, Op.RP, Area.GOAL, goal)] + refs[1:]
    refs += [(1, Op.W, Area.HEAP, block_x), (0, Op.R, Area.HEAP, block_y)]
    refs += [(1, Op.R, Area.HEAP, block_y), (0, Op.W, Area.HEAP, block_y)]
    refs += [(i % 2, Op.R, Area.HEAP, HEAP + 1024 + 16 * i) for i in range(4)]
    for pe, op, area, address in refs:
        trace.append(pe, op, area, address)
    config = _lazy(SimulationConfig(interconnect="directory"), batch_refs=8)
    # The premises: the first two batches commit, the stored line was
    # exclusive-clean, and the third batch conflicts.
    assert speculative._plan(trace, 8, 256, 2, 0, 16)[0] == [(0, 8), (8, 16)]
    probe = PIMCacheSystem(config.with_mode("pessimistic"), 2)
    replay(trace, system=probe, stop=16)
    line = probe.caches[1].lookup(block_x >> 2)
    assert line.state.name == "EC"
    results = {}
    for loop in ("generated", "interpreted"):
        system = PIMCacheSystem(config, 2)
        if loop == "generated":
            replay(trace, system=system)
        else:
            replay_speculative(
                trace, system=system, on_result=lambda *_: None
            )
        system.interconnect.check()
        entries = system.interconnect.entries
        results[loop] = system.stats.as_dict(), {
            block: (entry.state, entry.owner, entry.sharers)
            for block, entry in entries.items()
        }
    assert results["generated"] == results["interpreted"]
    results = {loop: stats for loop, (stats, _) in results.items()}
    assert results["generated"]["batch_commits"] == 2
    assert results["generated"]["batch_rollbacks"] == 1
    assert results["generated"]["purges_clean"] == 1


@pytest.mark.parametrize("interconnect", ["bus", "directory"])
def test_lazypim_counters_unchanged_by_invariant_checks(
    monkeypatch, interconnect
):
    # With the checks on, the kernel walks the plan one invariant period
    # per send; the counters must not notice.
    trace = generate_contract_trace(9_000, n_pes=4, seed=5)
    config = _lazy(SimulationConfig(interconnect=interconnect), batch_refs=64)
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    plain = replay(trace, config).as_dict()
    assert plain["batch_commits"] and plain["batch_rollbacks"]
    for toggle in ("1", "777"):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", toggle)
        assert replay(trace, config).as_dict() == plain


def test_conflict_free_run_across_a_batch_boundary_matches():
    # One PE re-reads a block 20 times: the run's tail collapses, and
    # batches of 8 start inside it.
    trace = TraceBuffer(n_pes=2)
    for _ in range(20):
        trace.append(0, Op.R, Area.HEAP, HEAP)
    trace.append(1, Op.R, Area.HEAP, HEAP + 64)
    config = SimulationConfig()
    generated, interpreted = (
        _lazypim(loop, trace, config, batch_refs=8).as_dict()
        for loop in ("generated", "interpreted")
    )
    assert generated == interpreted
    assert generated["batch_commits"] == 3
    # All batches ran as ranges of one session, prepared once.
    assert codegen._PREP_CACHE[1] == (0, len(trace))


def test_blocked_reference_mid_session_leaves_caches_consistent():
    # Disjoint working sets commit; the blocked read heads the last,
    # speculative, batch.
    trace = TraceBuffer(n_pes=2)
    for i in range(600):
        trace.append(i % 2, Op.R, Area.HEAP, HEAP + 1024 * (i % 2) + i // 2)
    address = HEAP + 8192
    trace.append(0, Op.LR, Area.HEAP, address)
    trace.append(1, Op.R, Area.HEAP, address)
    trace.append(1, Op.R, Area.HEAP, HEAP)
    system = PIMCacheSystem(_lazy(batch_refs=64), 2)
    bus = system._bus
    with pytest.raises(ReplayBlockedError) as info:
        replay(trace, system=system)
    assert info.value.index == 601
    assert system.stats.batch_commits > 0
    assert system._bus == bus
    system.check_invariants()


# ---------------------------------------------------------------------------
# Argument validation.


def test_unknown_mode_rejected():
    trace = generate_false_sharing_trace(16, n_pes=2, seed=0)
    with pytest.raises(ValueError, match="unknown replay mode"):
        replay(trace, SimulationConfig(), mode="eager")


def test_driver_rejects_bad_knobs():
    # The knobs are validated where they live, in the config, in either
    # mode: no bad knob reaches a driver or silently runs pessimistically.
    for knobs, match in (
        ({"batch_refs": 0}, "batch_refs"),
        ({"batch_refs": -5}, "batch_refs"),
        ({"batch_refs": 1, "signature_bits": 3}, "signature_bits"),
        ({"signature_bits": 1}, "signature_bits"),
    ):
        for mode in MODES:
            with pytest.raises(ValueError, match=match):
                SpeculationConfig(mode, **knobs)
    with pytest.raises(ValueError, match="unknown replay mode"):
        SpeculationConfig("eager")


def test_driver_rejects_clustered_systems():
    from repro.cluster.system import ClusteredSystem

    trace = generate_false_sharing_trace(16, n_pes=4, seed=0)
    clustered = ClusteredSystem(SimulationConfig().with_clusters(2), 4)
    with pytest.raises(TypeError, match="single-bus system"):
        replay_speculative(trace, system=clustered)
