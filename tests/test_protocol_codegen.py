"""The generated replay kernels (repro.core.protocol.codegen).

The heavy identity artillery — goldens and the hypothesis cross-path
property, both parametrized over the two replay loops — lives in
``test_protocol_identity.py``.  This file covers the codegen machinery
itself: source emission and caching, the envelope/fallback contract,
both mirror schemes (dense list and raw-key dict), run collapsing,
warm-system reuse, and error parity with the per-access loop (the
``interpreted`` loop of ``tests/replay_loops.py``).
"""

from __future__ import annotations

import dataclasses

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
        assert "elif k < PURGE_TAG:" in source
        assert "if st is _EM:" in source
        assert "if st is _EC:" in source

    def test_write_through_family_has_no_write_fast_path(self):
        # No silent stores -> every store needs the bus -> W/DW cells
        # classify slow and no write branch is emitted at all.
        for name in ("write_through", "write_update"):
            source = codegen.kernel_source(get_protocol(name))
            assert "write_h = dw_h = None" in source
            assert "st = line.state" not in source

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_source_compiles_standalone(self, protocol):
        source = codegen.kernel_source(get_protocol(protocol))
        compile(source, "<test>", "exec")  # must not raise

    def test_kernel_cached_by_spec_identity(self):
        spec = get_protocol("pim")
        kernel = codegen.get_kernel(spec)
        assert codegen.get_kernel(spec) is kernel
        # A structurally equal but distinct spec object (a re-registered
        # or temporarily shadowed protocol) must recompile, not reuse.
        clone = dataclasses.replace(spec)
        assert codegen.get_kernel(clone) is not kernel


# ---------------------------------------------------------------------------
# Envelope: out-of-envelope (system, trace) pairs decline, and the
# replay() caller falls back to the per-access loop.


class TestEnvelope:
    def test_track_data_declines(self):
        config = SimulationConfig(track_data=True)
        system = PIMCacheSystem(config, 2)
        kernel = codegen.get_kernel(system.protocol_spec)
        buffer = generate_random_trace(50, n_pes=2, seed=1)
        assert kernel(system, buffer, 0, len(buffer)) is None

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
        kernel = codegen.get_kernel(system.protocol_spec)
        assert kernel(system, buffer, 0, len(buffer)) is None
        generated = replay(buffer, SimulationConfig(), n_pes=2)
        interpreted = replay_through(
            "interpreted", buffer, SimulationConfig(), n_pes=2
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
    def test_dense_scheme_matches_interpreted(self):
        buffer = generate_random_trace(5_000, n_pes=4, seed=5)
        config = SimulationConfig()
        generated = replay(buffer, config, n_pes=4)
        interpreted = replay_through("interpreted", buffer, config, n_pes=4)
        assert generated.as_dict() == interpreted.as_dict()
        # The random trace's working set is small: preprocessing must
        # have taken the dense-renumbered flat-list mirror.
        assert codegen._PREP_CACHE is not None
        assert codegen._PREP_CACHE[3][9] is not None  # flat_size

    def test_dict_scheme_matches_interpreted(self):
        # Enough PEs and distinct blocks to push the dense key space
        # past MAX_FLAT_LIST, forcing the raw-key dict mirror.
        n_pes, n_blocks = 64, 8_192
        buffer = TraceBuffer(n_pes=n_pes)
        base = AREA_BASE[Area.HEAP]
        for sweep in range(2):  # second pass re-reads: hits via the dict
            for i in range(n_blocks):
                buffer.append(i % n_pes, Op.R, Area.HEAP, base + 4 * i)
        config = SimulationConfig()
        generated = replay(buffer, config, n_pes=n_pes)
        assert codegen._PREP_CACHE is not None
        assert codegen._PREP_CACHE[3][9] is None  # dict scheme took over
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
        payload = codegen._PREP_CACHE[3]
        keys, tag_shift = payload[0], payload[6]
        dup_tag = codegen.KIND_DUP << tag_shift
        assert sum(1 for k in keys if k >= dup_tag) > 200
        interpreted = replay_through("interpreted", buffer, config, n_pes=2)
        assert generated.as_dict() == interpreted.as_dict()

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_warm_system_mirror_stays_consistent(self, protocol):
        # Replay two different traces back to back into one system: the
        # second run must mirror the survivors of the first (warm lines)
        # correctly under every protocol.
        config = SimulationConfig(protocol=protocol)
        first = generate_random_trace(1_500, n_pes=3, seed=6)
        second = generate_random_trace(1_500, n_pes=3, seed=7)

        def run(loop):
            system = PIMCacheSystem(config, 3)
            replay_through(loop, first, system=system)
            return replay_through(loop, second, system=system)

        assert run("generated").as_dict() == run("interpreted").as_dict()

    def test_mirror_detached_after_replay(self):
        system = PIMCacheSystem(SimulationConfig(), 2)
        replay(generate_random_trace(300, n_pes=2, seed=8), system=system)
        for cache in system.caches:
            assert cache._mirror is None
            assert cache._mirror_remap is None

    def test_blocked_reference_raises_with_position(self):
        buffer = TraceBuffer(n_pes=2)
        address = AREA_BASE[Area.HEAP]
        buffer.append(0, Op.LR, Area.HEAP, address)
        buffer.append(1, Op.R, Area.HEAP, address)
        with pytest.raises(ReplayBlockedError) as info:
            replay(buffer, SimulationConfig())
        assert info.value.index == 1
        assert info.value.pe == 1
