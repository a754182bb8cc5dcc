"""The generated replay kernels (repro.core.protocol.codegen).

The heavy identity artillery — goldens and the hypothesis cross-path
property, both parametrized over the two replay loops — lives in
``test_protocol_identity.py``.  This file covers the codegen machinery
itself: source emission and caching, the envelope/fallback contract,
small and wide residency-key spaces, run collapsing, warm-system reuse,
and error parity with the per-access loop (the ``interpreted`` loop of
``tests/replay_loops.py``).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.core.config import SimulationConfig
from repro.core.protocol import codegen, get_protocol, protocol_names
from repro.core.replay import ReplayBlockedError, replay
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, Area, Op
from repro.trace.synthetic import generate_random_trace
from tests.replay_loops import replay_through


# ---------------------------------------------------------------------------
# Source emission and the compile cache.


class TestKernelSource:
    def test_silent_store_chain_is_compiled_in(self):
        source = codegen.kernel_source(get_protocol("pim"))
        # PIM stores silently on EC/EM: both states appear as is-tests
        # in the write branch, and the branch itself exists.
        assert f"elif kind < {codegen.KIND_PURGE}:" in source
        assert "if st is _EM:" in source
        assert "if st is _EC:" in source

    def test_write_through_family_has_no_write_fast_path(self):
        # No silent stores -> every store needs the bus -> a W/DW hit
        # passes straight to the slow path (its store shape) and no
        # silent-store chain is emitted at all.
        for name in ("write_through", "write_update"):
            source = codegen.kernel_source(get_protocol(name))
            assert re.search(
                rf"elif kind < {codegen.KIND_PURGE}:\n +pass\n", source
            )
            assert "st = line.state" not in source

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_source_compiles_standalone(self, protocol):
        source = codegen.kernel_source(get_protocol(protocol))
        compile(source, "<test>", "exec")  # must not raise

    def test_variants_carry_only_what_the_system_uses(self):
        # A flat bus system compiles neither the inline directory
        # transaction nor the network charge; the full variant has both.
        spec = get_protocol("pim")
        flat = codegen._kernel_source(spec, False, False)
        assert "dir_entries.get(" not in flat and "net_forward(" not in flat
        assert "_net_settle" not in codegen._bind_source(spec, False)
        full = codegen.kernel_source(spec)
        assert "dir_entries.get(" in full and "net_forward(" in full
        assert "_net_settle(" in full

    def test_kernel_cached_by_spec_identity(self):
        spec = get_protocol("pim")
        namespace = codegen._compiled(spec)
        assert codegen._compiled(spec) is namespace
        # A structurally equal but distinct spec object (a re-registered
        # or temporarily shadowed protocol) must recompile, not reuse.
        clone = dataclasses.replace(spec)
        assert codegen._compiled(clone) is not namespace


# ---------------------------------------------------------------------------
# Envelope: out-of-envelope (system, trace) pairs decline, and the
# replay() caller falls back to the per-access loop.


class TestEnvelope:
    def test_track_data_declines(self):
        config = SimulationConfig(track_data=True)
        system = PIMCacheSystem(config, 2)
        buffer = generate_random_trace(50, n_pes=2, seed=1)
        assert codegen.open_session(system, buffer, 0, len(buffer)) is None

    def test_track_data_replay_falls_back_and_matches(self):
        buffer = generate_random_trace(800, n_pes=2, seed=2)
        tracked = SimulationConfig(track_data=True)
        plain = SimulationConfig()
        generated = replay(buffer, tracked, n_pes=2)
        interpreted = replay_through("interpreted", buffer, plain, n_pes=2)
        assert generated.as_dict() == interpreted.as_dict()

    def test_negative_address_declines_but_replay_agrees(self):
        buffer = generate_random_trace(400, n_pes=2, seed=3)
        buffer._addr[7] = -buffer._addr[7]
        system = PIMCacheSystem(SimulationConfig(), 2)
        assert codegen.open_session(system, buffer, 0, len(buffer)) is None
        generated = replay(buffer, SimulationConfig(), n_pes=2)
        interpreted = replay_through(
            "interpreted", buffer, SimulationConfig(), n_pes=2
        )
        assert generated.as_dict() == interpreted.as_dict()

    def test_key_beyond_max_key_bits_declines_but_replay_agrees(self):
        # 64 PEs and an address near 2**62: its residency key needs more
        # than MAX_KEY_BITS, so the kernel declines and replay() runs
        # the per-access loop.
        n_pes = 64
        buffer = TraceBuffer(n_pes=n_pes)
        base = AREA_BASE[Area.HEAP]
        for i in range(8_192):
            buffer.append(i % n_pes, Op.R, Area.HEAP, base + 4 * i)
        far = (1 << 62) - 4
        buffer.append(0, Op.W, Area.HEAP, far)
        buffer.append(0, Op.R, Area.HEAP, far)
        buffer.append(1, Op.R, Area.HEAP, far)
        config = SimulationConfig()
        system = PIMCacheSystem(config, n_pes)
        pe_bits = (n_pes - 1).bit_length()
        assert (far >> system._block_shift).bit_length() + pe_bits \
            > codegen.MAX_KEY_BITS
        assert codegen.open_session(system, buffer, 0, len(buffer)) is None
        generated = replay(buffer, config, n_pes=n_pes)
        interpreted = replay_through(
            "interpreted", buffer, config, n_pes=n_pes
        )
        assert generated.as_dict() == interpreted.as_dict()

    def test_out_of_range_op_raises_like_interpreted(self):
        buffer = generate_random_trace(100, n_pes=2, seed=4)
        buffer._op[3] = 10  # >= N_OPS
        with pytest.raises(ValueError, match="out-of-range op or area"):
            replay(buffer, SimulationConfig(), n_pes=2)
        with pytest.raises(ValueError, match="out-of-range op or area"):
            replay_through("interpreted", buffer, SimulationConfig(), n_pes=2)

    def test_empty_trace_returns_zero_stats(self):
        stats = replay(TraceBuffer(2), SimulationConfig(), n_pes=2)
        assert stats.total_refs == 0


# ---------------------------------------------------------------------------
# Behavior details: mirror schemes, run collapsing, warm systems,
# blocked references.


class TestGeneratedBehavior:
    @pytest.mark.parametrize("n_pes, n_blocks", [(4, None), (64, 8_192)],
                             ids=["small", "wide"])
    def test_key_spaces_match_interpreted(self, n_pes, n_blocks):
        # A random trace over a small working set, and enough PEs and
        # distinct blocks that every residency key differs (the second
        # pass re-reads, so it hits through the index).
        if n_blocks is None:
            buffer = generate_random_trace(5_000, n_pes=n_pes, seed=5)
        else:
            buffer = TraceBuffer(n_pes=n_pes)
            base = AREA_BASE[Area.HEAP]
            for sweep in range(2):
                for i in range(n_blocks):
                    buffer.append(i % n_pes, Op.R, Area.HEAP, base + 4 * i)
        config = SimulationConfig()
        system = PIMCacheSystem(config, n_pes)
        generated = replay(buffer, system=system)
        assert codegen._PREP_CACHE[0] is buffer  # the kernel ran
        system.check_invariants()
        interpreted = replay_through(
            "interpreted", buffer, config, n_pes=n_pes
        )
        assert generated.as_dict() == interpreted.as_dict()

    def test_conflict_free_runs_collapse_and_match(self):
        # One PE hammering one block: the tails must collapse to DUP
        # keys, and the bulk-folded counters must equal the per-access
        # reference exactly.
        buffer = TraceBuffer(n_pes=2)
        base = AREA_BASE[Area.HEAP]
        for block in range(6):
            for _ in range(50):
                buffer.append(0, Op.R, Area.HEAP, base + 4 * block)
        buffer.append(1, Op.W, Area.HEAP, base)  # break the last run
        config = SimulationConfig()
        generated = replay(buffer, config, n_pes=2)
        prep = codegen._PREP_CACHE[3]
        assert prep.kinds.count(codegen.KIND_DUP) > 200
        interpreted = replay_through("interpreted", buffer, config, n_pes=2)
        assert generated.as_dict() == interpreted.as_dict()

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_warm_system_mirror_stays_consistent(self, protocol):
        # Replay two different traces back to back into one system: the
        # second run must probe the survivors of the first (warm lines)
        # correctly under every protocol.
        config = SimulationConfig(protocol=protocol)
        first = generate_random_trace(1_500, n_pes=3, seed=6)
        second = generate_random_trace(1_500, n_pes=3, seed=7)

        def run(loop):
            system = PIMCacheSystem(config, 3)
            replay_through(loop, first, system=system)
            return replay_through(loop, second, system=system)

        assert run("generated").as_dict() == run("interpreted").as_dict()

    def test_residency_index_consistent_after_replay(self):
        system = PIMCacheSystem(SimulationConfig(), 2)
        replay(generate_random_trace(300, n_pes=2, seed=8), system=system)
        system.check_invariants()

    def test_blocked_reference_raises_with_position(self):
        buffer = TraceBuffer(n_pes=2)
        address = AREA_BASE[Area.HEAP]
        buffer.append(0, Op.LR, Area.HEAP, address)
        buffer.append(1, Op.R, Area.HEAP, address)
        with pytest.raises(ReplayBlockedError) as info:
            replay(buffer, SimulationConfig())
        assert info.value.index == 1
        assert info.value.pe == 1


# ---------------------------------------------------------------------------
# Sessions: one preparation, many consecutive ranges.


class TestSession:
    def _open(self, buffer, n_pes=2):
        system = PIMCacheSystem(SimulationConfig(), n_pes)
        return system, codegen.open_session(system, buffer, 0, len(buffer))

    def test_ranges_match_one_replay_and_prepare_once(self):
        buffer = generate_random_trace(3_000, n_pes=4, seed=9)
        whole = replay(buffer, SimulationConfig(), n_pes=4)
        system, session = self._open(buffer, n_pes=4)
        with session:
            for lo in range(0, len(buffer), 7):
                session.run(lo, min(lo + 7, len(buffer)))
        assert system.stats.as_dict() == whole.as_dict()
        assert codegen._PREP_CACHE[1] == (0, len(buffer))
        system.check_invariants()

    def test_run_that_skips_positions_raises(self):
        buffer = generate_random_trace(200, n_pes=2, seed=10)
        _, session = self._open(buffer)
        with session:
            session.run(0, 50)
            with pytest.raises(ValueError, match="next position is 50"):
                session.run(60, 80)
            with pytest.raises(ValueError, match="next position is 50"):
                session.run(50, 201)
            session.run(50, 200)
        with pytest.raises(ValueError, match="closed or a run failed"):
            session.run(200, 200)

    def test_run_tail_heading_a_range_replays_its_real_key(self):
        # A conflict-free run collapses its tail to KIND_DUP no-ops.
        # When a range starts inside the run and the caches change
        # between ranges, the range's first reference must replay as
        # itself (here: a miss), not as a collapsed no-op.
        buffer = TraceBuffer(n_pes=2)
        base = AREA_BASE[Area.HEAP]
        for _ in range(8):
            buffer.append(0, Op.R, Area.HEAP, base)
        buffer.append(1, Op.R, Area.HEAP, base + 64)
        split = 4

        def run(loop):
            system = PIMCacheSystem(SimulationConfig(), 2)
            replay_through(loop, buffer, system=system, stop=split)
            system.flush_all(silent=True)
            replay_through(loop, buffer, system=system, start=split)
            return system.stats

        expected = run("interpreted")
        assert expected.total_refs - expected.total_hits == 3
        system, session = self._open(buffer)
        with session:
            session.run(0, split)
            system.flush_all(silent=True)
            session.run(split, len(buffer))
        assert system.stats.as_dict() == expected.as_dict()
