"""repro.cluster tests: network model, sharded replay, K=1 identity.

The identity gates mirror ``test_protocol_identity``:

1. **Golden identity** — a ``ClusteredSystem`` with one cluster must
   reproduce ``tests/golden/protocol_stats.json`` bit-for-bit through
   both clustered replay paths (interleaved per-access and sharded
   generated-kernel), for every pre-refactor protocol.
2. **Property identity** — for every *registered* protocol, randomized
   traces replayed through the K=1 clustered paths match a bare
   ``PIMCacheSystem`` replay on every counter (hypothesis).
3. **Merge determinism** — with K>1, the interleaved run, the serial
   sharded run, and the pool-parallel run agree exactly, independent of
   the worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import parallel
from repro.analysis.parallel import run_clustered
from repro.cluster.network import ClusterNetwork, NetworkStats
from repro.cluster.replay import (
    ReplayWorkerError,
    new_system,
    replay_clustered,
    replay_interleaved,
    replay_shard,
    split_trace,
    system_result,
)
from repro.cluster.system import (
    ClusterCacheSystem,
    ClusteredSystem,
    merged_system_stats,
)
from repro.core.config import (
    CacheConfig,
    ClusterConfig,
    OptimizationConfig,
    SimulationConfig,
    SpeculationConfig,
)
from repro.core.protocol import protocol_names
from repro.core.replay import ReplayBlockedError, replay
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, Area, Op
from repro.trace.synthetic import generate_random_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "protocol_stats.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())
GOLDEN_PROTOCOLS = ("pim", "illinois", "write_through", "write_update")
CONFIG_NAMES = ("base", "no_opt", "small")


def _config(protocol: str, name: str = "base") -> SimulationConfig:
    if name == "base":
        return SimulationConfig(protocol=protocol)
    if name == "no_opt":
        return SimulationConfig(
            protocol=protocol, opts=OptimizationConfig.none()
        )
    return SimulationConfig(
        protocol=protocol, cache=CacheConfig(n_sets=16, associativity=2)
    )


@pytest.fixture(scope="module")
def golden_trace():
    """The random trace the goldens were generated from."""
    return generate_random_trace(24_000, n_pes=4, seed=123)


class TestClusterConfig:
    def test_defaults_are_single_cluster(self):
        cluster = SimulationConfig().cluster
        assert cluster.n_clusters == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_clusters=0)
        with pytest.raises(ValueError):
            ClusterConfig(hop_cycles=-1)
        with pytest.raises(ValueError):
            ClusterConfig(link_width_words=0)
        with pytest.raises(ValueError):
            ClusterConfig(interleave="diagonal")
        with pytest.raises(ValueError):
            ClusterConfig(interleave="page", page_blocks=0)

    def test_block_interleave_home(self):
        cluster = ClusterConfig(n_clusters=4)
        assert [cluster.home_of(b) for b in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_page_interleave_home(self):
        cluster = ClusterConfig(n_clusters=2, interleave="page", page_blocks=4)
        assert [cluster.home_of(b) for b in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]

    def test_ring_hops_shortest_direction(self):
        cluster = ClusterConfig(n_clusters=4)
        assert cluster.ring_hops(0, 0) == 0
        assert cluster.ring_hops(0, 1) == 1
        assert cluster.ring_hops(0, 3) == 1  # wraps around
        assert cluster.ring_hops(0, 2) == 2
        assert cluster.ring_hops(3, 1) == 2

    def test_cluster_of_pe(self):
        cluster = ClusterConfig(n_clusters=2)
        assert [cluster.cluster_of_pe(pe, 8) for pe in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]

    def test_with_clusters_helper(self):
        config = SimulationConfig().with_clusters(4, hop_cycles=7)
        assert config.cluster.n_clusters == 4
        assert config.cluster.hop_cycles == 7
        # Everything else is untouched.
        assert config.cache == SimulationConfig().cache


class TestClusterNetwork:
    def _network(self, **kwargs) -> ClusterNetwork:
        cluster = ClusterConfig(n_clusters=2, **kwargs)
        return ClusterNetwork(cluster, 0, block_words=4)

    def test_fetch_forward_stall(self):
        network = self._network()  # hop_cycles=4, width=1
        # issue 1 + wait 0 + serialize 1 + hops there 4 + back 4 + reply 4
        assert network.fetch_forward(0, 1) == 14
        stats = network.stats
        assert stats.fetch_forwards == 1
        assert stats.messages == 1
        assert stats.words_sent == 1
        assert stats.words_received == 4
        assert stats.stall_cycles == 14
        assert stats.forwards_by_home == [0, 1]

    def test_posted_writes_hide_transit(self):
        network = self._network()
        # Posted: only issue + queue + serialize is charged to the PE.
        assert network.write_forward(0, 1) == 3  # 1 + 0 + ceil(2/1)
        assert network.inval_forward(10, 1) == 2  # 1 + 0 + 1
        # ... but the transit latency is still accounted.
        assert network.stats.latency_cycles > 0

    def test_fifo_queue_wait(self):
        network = self._network()
        first = network.inval_forward(0, 1)
        # Same issue cycle: the second message queues behind the first.
        second = network.inval_forward(0, 1)
        assert second == first + 1
        assert network.stats.queue_wait_cycles == 1
        # After the link drains, no wait again.
        assert network.inval_forward(100, 1) == first
        assert network.stats.queue_wait_cycles == 1

    def test_link_width_shortens_serialization(self):
        wide = self._network(link_width_words=4)
        assert wide.fetch_forward(0, 1) == 1 + 0 + 1 + 4 + 4 + 1

    def test_occupancy(self):
        network = self._network()
        network.write_forward(0, 1)
        assert network.occupancy(10) == pytest.approx(0.2)
        assert self._network().occupancy() == 0.0

    def test_merge_sums_and_grows(self):
        a = NetworkStats(0, 2)
        a.messages = 3
        a.stall_cycles = 10
        a.forwards_by_home = [0, 3]
        b = NetworkStats(1, 2)
        b.messages = 2
        b.stall_cycles = 5
        b.forwards_by_home = [2, 0]
        total = NetworkStats.merged([a, b])
        assert total.cluster == -1
        assert total.messages == 5
        assert total.stall_cycles == 15
        assert total.forwards_by_home == [2, 3]
        with pytest.raises(ValueError):
            NetworkStats.merged([])


class TestSplitTrace:
    def _trace(self):
        buffer = TraceBuffer(n_pes=4)
        for i in range(40):
            buffer.append(i % 4, Op.R, Area.HEAP, 0x1000 + i, i % 2)
        return buffer

    def test_renumbers_and_preserves_order(self):
        shards = split_trace(self._trace(), 4, 2)
        assert [len(s) for s in shards] == [20, 20]
        for shard in shards:
            assert shard.n_pes == 2
            assert set(shard.columns()[0]) == {0, 1}
        # Cluster 1's first reference was global PE 2 -> local 0.
        pe, op, area, addr, flags = shards[1][0]
        assert (pe, addr) == (0, 0x1002)
        # Relative order within a cluster is the trace order.
        addrs = list(shards[0].columns()[3])
        assert addrs == sorted(addrs)

    def test_rejects_uneven_partition(self):
        with pytest.raises(ValueError, match="divide evenly"):
            split_trace(self._trace(), 4, 3)

    def test_empty_trace(self):
        shards = split_trace(TraceBuffer(n_pes=4), 4, 2)
        assert [len(s) for s in shards] == [0, 0]


class TestMergedSystemStats:
    def test_concatenates_pe_cycles(self):
        parts = [
            replay(generate_random_trace(500, n_pes=2, seed=s), n_pes=2)
            for s in (1, 2)
        ]
        total = merged_system_stats(parts)
        assert total.n_pes == 4
        assert total.pe_cycles == parts[0].pe_cycles + parts[1].pe_cycles
        assert total.total_refs == sum(p.total_refs for p in parts)

    def test_single_part_is_live(self):
        stats = replay(generate_random_trace(100, n_pes=2, seed=3), n_pes=2)
        assert merged_system_stats([stats]) is stats


class TestGoldenIdentityK1:
    """ClusteredSystem(K=1) reproduces the pre-refactor goldens."""

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    @pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
    def test_sharded_path(self, golden_trace, protocol, config_name):
        clustered = replay_clustered(
            golden_trace, _config(protocol, config_name), n_pes=4
        )
        assert clustered.n_clusters == 1
        golden = GOLDENS[f"random/{protocol}/{config_name}"]
        assert clustered.stats.as_dict() == golden
        assert clustered.network.messages == 0

    @pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
    def test_interleaved_path(self, golden_trace, protocol):
        clustered = replay_interleaved(
            golden_trace, _config(protocol), n_pes=4
        )
        assert clustered.stats.as_dict() == GOLDENS[f"random/{protocol}/base"]


class TestK1PropertyIdentity:
    @pytest.mark.parametrize("protocol", protocol_names())
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_counter_identical_to_bare_system(self, protocol, seed):
        buffer = generate_random_trace(1_000, n_pes=4, seed=seed)
        config = SimulationConfig(protocol=protocol)
        bare = replay(buffer, config, n_pes=4)
        sharded = replay_clustered(buffer, config, n_pes=4)
        interleaved = replay_interleaved(buffer, config, n_pes=4)
        assert sharded.stats.as_dict() == bare.as_dict()
        assert interleaved.stats.as_dict() == bare.as_dict()


class TestMergeDeterminism:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_interleaved_matches_sharded(self, protocol):
        buffer = generate_random_trace(6_000, n_pes=4, seed=31)
        config = SimulationConfig(protocol=protocol).with_clusters(2)
        interleaved = replay_interleaved(buffer, config)
        sharded = replay_clustered(buffer, config)
        assert interleaved.as_dict() == sharded.as_dict()
        assert sharded.network.messages > 0

    @pytest.mark.parametrize("interconnect", ("bus", "directory"))
    def test_pool_matches_serial_and_is_repeatable(self, interconnect):
        buffer = generate_random_trace(6_000, n_pes=4, seed=32)
        config = SimulationConfig(interconnect=interconnect).with_clusters(2)
        serial = run_clustered(buffer, config, jobs=1)
        pooled = run_clustered(buffer, config, jobs=2)
        again = run_clustered(buffer, config, jobs=2)
        assert pooled.as_dict() == serial.as_dict() == again.as_dict()
        assert pooled.as_dict() == replay_clustered(buffer, config).as_dict()
        if interconnect == "directory":
            assert pooled.stats.directory_transactions > 0

    def test_four_clusters(self):
        buffer = generate_random_trace(6_000, n_pes=8, seed=33)
        config = SimulationConfig().with_clusters(4)
        interleaved = replay_interleaved(buffer, config)
        sharded = replay_clustered(buffer, config)
        assert interleaved.as_dict() == sharded.as_dict()
        # Four shards on two workers: each worker serves two clusters.
        assert run_clustered(buffer, config, jobs=2).as_dict() == sharded.as_dict()
        # Ring hops: some forwards cross more than one hop at K=4.
        assert interleaved.network.messages > 0

    def test_killed_shard_worker_raises_a_structured_error(self, monkeypatch):
        # The shard task looks replay_shard up in repro.analysis.parallel;
        # the forked workers inherit the patch, and cluster 1's dies.
        def die_on_cluster_one(shard, config, pes_per_cluster, cluster):
            if cluster == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return replay_shard(shard, config, pes_per_cluster, cluster)

        monkeypatch.setattr(parallel, "replay_shard", die_on_cluster_one)
        buffer = generate_random_trace(6_000, n_pes=4, seed=34)
        config = SimulationConfig().with_clusters(2)
        with pytest.raises(ReplayWorkerError) as caught:
            run_clustered(buffer, config, jobs=2)
        assert caught.value.exitcode == -signal.SIGKILL
        assert f"code {-signal.SIGKILL}" in str(caught.value)
        assert multiprocessing.active_children() == []


class TestClusteredSystemSurface:
    def test_access_routes_by_contiguous_partition(self):
        system = ClusteredSystem(SimulationConfig().with_clusters(2), 4)
        system.access(0, Op.R, Area.HEAP, 0x100)
        system.access(3, Op.R, Area.HEAP, 0x200)
        assert system.systems[0].stats.total_refs == 1
        assert system.systems[1].stats.total_refs == 1
        assert system.cluster_of(0) == 0 and system.cluster_of(3) == 1
        assert system.stats.total_refs == 2

    def test_rejects_uneven_partition(self):
        with pytest.raises(ValueError, match="divide evenly"):
            ClusteredSystem(SimulationConfig().with_clusters(3), 4)

    def test_flush_all_sums_clusters(self):
        system = ClusteredSystem(SimulationConfig().with_clusters(2), 4)
        for pe in range(4):
            system.access(pe, Op.W, Area.HEAP, 0x1000 + pe * 64)
        assert system.flush_all(silent=True) >= 0
        system.check_invariants()

    def test_attach_probe_multi_cluster_unsupported(self):
        from repro.obs.probe import ProtocolProbe
        from repro.obs.sink import CollectorSink

        system = ClusteredSystem(SimulationConfig().with_clusters(2), 4)
        with pytest.raises(NotImplementedError):
            system.attach_probe(ProtocolProbe(CollectorSink()))
        assert system.detach_probe() is None

    def test_attach_probe_k1_delegates(self):
        from repro.obs.probe import ProtocolProbe
        from repro.obs.sink import CollectorSink

        system = ClusteredSystem(SimulationConfig(), 4)
        sink = CollectorSink()
        system.attach_probe(ProtocolProbe(sink))
        system.access(0, Op.R, Area.HEAP, 0x100)
        assert sink.events


class TestNetworkProbeEvents:
    def test_remote_miss_emits_network_event(self):
        from repro.obs.events import EventKind
        from repro.obs.probe import ProtocolProbe
        from repro.obs.sink import CollectorSink

        config = SimulationConfig().with_clusters(2)
        system = ClusterCacheSystem(config, 2, cluster_index=0)
        sink = CollectorSink()
        system.attach_probe(ProtocolProbe(sink))
        block_words = config.cache.block_words
        # home_of(block) == block % 2: an odd block is remote to c0.
        system.access(0, Op.R, Area.HEAP, 1 * block_words)
        network_events = [
            e for e in sink.events if e.kind == EventKind.NETWORK
        ]
        assert len(network_events) == 1
        assert "forward->c1" in network_events[0].detail
        assert network_events[0].value == system.network.stats.stall_cycles
        # A local miss does not touch the network.
        system.access(0, Op.R, Area.HEAP, 2 * block_words)
        assert sum(
            1 for e in sink.events if e.kind == EventKind.NETWORK
        ) == 1

    def test_replay_shard_counts_match_probe_run(self):
        """Network charges agree between probed and unprobed replays."""
        buffer = generate_random_trace(2_000, n_pes=2, seed=41)
        config = SimulationConfig().with_clusters(2)
        shard = split_trace(buffer, 2, 2)[0]
        _, plain = replay_shard(shard, config, 1, 0)

        from repro.obs.probe import ProtocolProbe
        from repro.obs.sink import CollectorSink

        system = ClusterCacheSystem(config, 1, cluster_index=0)
        system.attach_probe(ProtocolProbe(CollectorSink()))
        stats = replay(shard, system=system)
        assert system.network.stats.as_dict() == plain.as_dict()


class TestVictimOrderClusterAffinity:
    def _orders(self, n_pes, clusters):
        from repro.machine.machine import KL1Machine
        from repro.core.config import MachineConfig

        source = "main(X) :- X = done."
        sim = (
            SimulationConfig().with_clusters(clusters)
            if clusters > 1
            else SimulationConfig()
        )
        machine = KL1Machine(source, MachineConfig(n_pes=n_pes, seed=1), sim)
        return [engine._victim_order for engine in machine.engines]

    def test_flat_machine_keeps_ring_order(self):
        orders = self._orders(4, 1)
        assert orders[0] == [1, 2, 3]
        assert orders[2] == [3, 0, 1]

    def test_clustered_machine_prefers_local_pes(self):
        orders = self._orders(4, 2)
        # PE0 (cluster 0 with PE1): full local pass before each remote.
        assert orders[0] == [1, 2, 1, 3]
        assert orders[3] == [2, 0, 2, 1]


class TestWorkloadsCacheKey:
    def test_default_key_format_unchanged(self):
        from repro.analysis.runner import Workloads

        workloads = Workloads(scale="tiny", seed=7)
        assert workloads.cache_key("pascal", 2) == "v1-pascal-tiny-2pe-seed7"

    def test_trace_affecting_knobs_change_the_key(self):
        from repro.analysis.runner import Workloads

        base = Workloads(scale="tiny").cache_key("pascal", 2)
        assert Workloads(scale="small").cache_key("pascal", 2) != base
        assert Workloads(scale="tiny", seed=2).cache_key("pascal", 2) != base
        assert Workloads(scale="tiny").cache_key("pascal", 4) != base
        gc = Workloads(scale="tiny", gc_threshold_words=4096)
        assert gc.cache_key("pascal", 2) == base + "-gc4096"
        clustered = Workloads(scale="tiny", n_clusters=2)
        assert clustered.cache_key("pascal", 2) == base + "-c2"

    def test_clustered_workloads_do_not_share_cache_files(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.runner import Workloads

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        flat = Workloads(scale="tiny")
        flat_trace = flat.trace("pascal", 4)
        clustered = Workloads(scale="tiny", n_clusters=2)
        # The flat capture must not satisfy the clustered key ...
        assert clustered._load_trace("pascal", 4) is None
        clustered_trace = clustered.trace("pascal", 4)
        # ... because cluster-affinity scheduling changes the stream.
        assert list(clustered_trace) != list(flat_trace)
        assert len(list(tmp_path.glob("*.trace"))) == 2

    def test_protocol_is_not_part_of_the_key(self, tmp_path, monkeypatch):
        """One cached trace serves every protocol: replays under other
        protocols reuse the stream instead of re-emulating."""
        from repro.analysis.runner import Workloads

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = Workloads(scale="tiny")
        first.trace("pascal", 2)
        second = Workloads(scale="tiny")
        for protocol in ("pim", "illinois", "write_through"):
            second.replay("pascal", SimulationConfig(protocol=protocol), 2)
        assert ("pascal", 2) not in second._cache  # never re-emulated
        assert len(list(tmp_path.glob("*.trace"))) == 1


class TestClusteredMachineRun:
    def test_benchmark_runs_clustered_end_to_end(self):
        from repro.analysis.runner import run_benchmark

        result = run_benchmark(
            "pascal",
            scale="tiny",
            n_pes=4,
            sim_config=SimulationConfig().with_clusters(2),
        )
        machine_result = result.machine
        assert machine_result.network is not None
        assert machine_result.network.messages > 0
        assert machine_result.network.n_clusters == 2
        assert len(machine_result.stats.pe_cycles) == 4

    def test_flat_benchmark_has_no_network(self):
        from repro.analysis.runner import run_benchmark

        result = run_benchmark("pascal", scale="tiny", n_pes=2)
        assert result.machine.network is None


class TestComparisonReport:
    def test_clustered_comparison_round_trip(self):
        from repro.analysis.protocols import (
            comparison_report,
            protocol_comparison,
        )
        from repro.obs.schema import validate_comparison

        buffer = generate_random_trace(4_000, n_pes=4, seed=51)
        base = SimulationConfig().with_clusters(2)
        comparison = protocol_comparison(
            buffer, base, protocols=("pim", "illinois")
        )
        for entry in comparison.values():
            assert entry["network_messages"] > 0
        report = comparison_report(comparison, base=base)
        validate_comparison(report)
        assert report["clusters"] == 2
        assert report["manifest"]["clusters"] == 2

    def test_validator_rejects_bad_records(self):
        from repro.obs.schema import SchemaError, validate_comparison

        good_row = {
            "protocol": "pim",
            "bus_cycles": 1,
            "memory_busy_cycles": 1,
            "swap_outs": 0,
            "c2c_transfers": 0,
            "miss_ratio": 0.5,
        }
        good = {"schema": "repro.obs/comparison/v1", "rows": [good_row]}
        validate_comparison(good)
        for bad in (
            {**good, "schema": "repro.obs/comparison/v2"},
            {**good, "rows": []},
            {**good, "rows": [{**good_row, "miss_ratio": 1.5}]},
            {**good, "rows": [{**good_row, "bus_cycles": True}]},
            {**good, "rows": [dict(good_row, network_messages="3")]},
            {**good, "clusters": 0},
            {"rows": [good_row]},
        ):
            with pytest.raises(SchemaError):
                validate_comparison(bad)


class TestClusteredBench:
    def test_bench_clustered_reports_deterministic_merge(self):
        from repro.analysis.bench import bench_clustered, hot_trace

        result = bench_clustered(hot_trace(20_000), n_clusters=2, repeats=1)
        assert result["merge_deterministic"] is True
        assert result["clusters"] == 2
        assert result["refs"] == 20_000
        assert result["network_messages"] > 0
        assert result["refs_per_sec_serial"] > 0
        assert result["refs_per_sec_parallel"] > 0


class TestReplayInto:
    """Ranges of one buffer advance a persistent clustered system."""

    def test_ranges_compose_to_one_clustered_replay(self):
        trace = generate_random_trace(6000, n_pes=8, seed=4)
        config = SimulationConfig().with_clusters(2)
        system = new_system(config, 8)
        assert isinstance(system, ClusteredSystem)
        for start, stop in ((0, 1700), (1700, 1700), (1700, len(trace))):
            replay(trace, system=system, start=start, stop=stop)
        assert (
            system_result(system).as_dict()
            == replay_clustered(trace, config).as_dict()
        )

    def test_blocked_reference_reports_its_position_in_the_buffer(self):
        buffer = TraceBuffer(n_pes=4)
        address = AREA_BASE[Area.HEAP]
        buffer.append(0, Op.R, Area.HEAP, address)
        buffer.append(2, Op.LR, Area.HEAP, address)
        buffer.append(0, Op.R, Area.HEAP, address + 64)
        buffer.append(3, Op.R, Area.HEAP, address)  # remotely held lock
        system = new_system(SimulationConfig().with_clusters(2), 4)
        with pytest.raises(ReplayBlockedError) as info:
            replay(buffer, system=system, start=1, stop=len(buffer))
        assert (info.value.index, info.value.pe) == (3, 3)


class TestOneEntryPoint:
    """``replay()`` takes any machine shape: a clustered config or a
    ``ClusteredSystem`` replays exactly as ``replay_clustered``."""

    BATCH_REFS = 32

    @pytest.mark.parametrize("n_clusters", (2, 4))
    @pytest.mark.parametrize("mode", ("pessimistic", "lazypim"))
    @pytest.mark.parametrize("interconnect", ("bus", "directory"))
    def test_replay_honours_the_cluster_topology(
        self, interconnect, mode, n_clusters, tiny_workloads
    ):
        config = SimulationConfig(
            interconnect=interconnect,
            speculation=SpeculationConfig(mode, batch_refs=self.BATCH_REFS),
        ).with_clusters(n_clusters)
        # A lock-free round-robin head gives every cluster a multiple of
        # BATCH_REFS references, so its end is a batch boundary in
        # every shard; the random tail brings locks.
        trace = TraceBuffer(n_pes=8)
        for index in range(8 * self.BATCH_REFS):
            trace.append(
                index % 8, (Op.R, Op.W)[index % 3 == 0], Area.HEAP,
                AREA_BASE[Area.HEAP] + (index * 7) % 256,
            )
        boundary = len(trace)
        trace.extend(generate_random_trace(3_000, n_pes=8, seed=61))
        want = replay_clustered(trace, config).stats.as_dict()

        assert replay(trace, config).as_dict() == want
        system = ClusteredSystem(config, 8)
        replay(trace, system=system, stop=boundary)
        ranged = replay(trace, system=system, start=boundary)
        assert ranged.as_dict() == want

        tri = tiny_workloads.trace("tri", 4)
        assert (
            tiny_workloads.replay("tri", config, 4).as_dict()
            == replay_clustered(tri, config).stats.as_dict()
        )
