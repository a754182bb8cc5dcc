"""The generated kernel's inline miss path against the per-access loop.

The kernel runs the misses inline — read-miss fills, DW allocations and
demotions, W misses (``FI``, or a write-through), ``S``/``SM`` upgrades,
every LR shape, the ER/RP/RI misses, UW/U with no waiter — from the
same templates the dispatch-table handlers are emitted from.  Here a
miss-heavy random trace (4 sets, 1 way, a one-entry lock directory)
replays through both loops under every built-in spec, both
interconnects and K in {1, 2}, and must give identical counters and
identical network counters; the counters of every shape must be
nonzero, so the trace reaches them; and spies on the generated
handlers show the kernel served those shapes without dispatching,
under either interconnect and on every cluster of a K ≥ 2 system (its
network charge and the directory's transaction run inline too): a
store, a read or an LR leaves the loop only for a block with a locked
word or a contended lock flag.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.replay import replay_clustered
from repro.cluster.system import ClusteredSystem
from repro.core.config import CacheConfig, ClusterConfig, SimulationConfig
from repro.core.interconnect import DirectoryInterconnect
from repro.core.replay import replay
from repro.core.states import BusPattern
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, FLAG_LOCK_CONTENDED, Area, Op
from repro.trace.synthetic import generate_random_trace
from tests.replay_loops import route_through

SPECS = ("pim", "illinois", "write_once", "write_through", "write_update")
INTERCONNECTS = ("bus", "directory")
CLUSTERS = (1, 2)
#: The handlers codegen emits, as PIMCacheSystem attributes.
GENERATED = (
    "_read", "_write", "_direct_write", "_exclusive_read", "_read_purge",
    "_read_invalidate", "_lock_read", "_unlock_write", "_unlock_plain",
)
#: The handlers whose every shape the kernel inlines: it dispatches to
#: them only for a block with a locked word or a contended lock flag.
INLINED = (
    "_read", "_write", "_direct_write", "_exclusive_read", "_read_purge",
    "_read_invalidate", "_lock_read",
)


def _config(protocol, interconnect="bus", clusters=1):
    return SimulationConfig(
        protocol=protocol,
        interconnect=interconnect,
        cache=CacheConfig(block_words=4, n_sets=4, associativity=1),
        lock_entries=1,
        cluster=ClusterConfig(n_clusters=clusters),
    )


@pytest.fixture(scope="module")
def trace():
    return generate_random_trace(6000, n_pes=4, seed=7, address_pool=96)


def _replay(loop, trace, config, monkeypatch):
    """Merged stats, and per-cluster network counters for K ≥ 2."""
    route_through(loop, monkeypatch)
    if config.cluster.n_clusters == 1:
        return replay(trace, config).as_dict(), None
    result = replay_clustered(trace, config)
    return result.stats.as_dict(), [
        network.as_dict() for network in result.network_per_cluster
    ]


@pytest.mark.parametrize("clusters", CLUSTERS)
@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@pytest.mark.parametrize("protocol", SPECS)
def test_kernel_matches_per_access(
    trace, protocol, interconnect, clusters, monkeypatch
):
    config = _config(protocol, interconnect, clusters)
    kernel, network = _replay("generated", trace, config, monkeypatch)
    assert (kernel, network) == _replay(
        "interpreted", trace, config, monkeypatch
    )
    if clusters > 1:
        assert all(n["fetch_forwards"] for n in network)
        if interconnect == "directory":
            # Directory messages cross the ring as invalidate forwards.
            assert all(n["inval_forwards"] for n in network)
    # Every shape the kernel inlines is reached by the trace.
    assert kernel["dw_allocations"] > 0
    assert kernel["pattern_counts"]["swap_out_only"] > 0
    assert kernel["lr_no_bus"] > 0
    assert kernel["lock_dir_overflows"] > 0
    assert kernel["unlocks_no_waiter"] > 0
    # Write misses (FI), upgrades (I), LR shared hits and misses, and
    # the ER/RP/RI misses.
    assert kernel["command_counts"]["FI"] > 0
    assert kernel["command_counts"]["I"] > 0
    assert kernel["lr_bus"] > 0
    assert kernel["supplier_invalidations"] > 0
    assert kernel["ri_exclusive_fetches"] > 0
    assert kernel["er_demotions"] > 0
    assert kernel["dw_demotions"] > 0
    assert kernel["purges_dirty"] > 0 and kernel["purges_clean"] > 0
    if protocol in ("write_once", "write_through", "write_update"):
        # Through-stores: write-once S/SM hits and no-allocate misses,
        # every store of the write-through family (write_update patching
        # remote copies in place).
        assert kernel["pattern_counts"]["write_through"] > 0
    if protocol == "illinois":
        # A copyback supplier row: dirty cache-to-cache transfers.
        assert kernel["c2c_transfers"] > 0
        assert kernel["swap_outs"] > 0


def test_directory_messages_cross_the_ring(monkeypatch):
    # PE0 reads a block homed in the other cluster from memory; PE1, in
    # PE0's cluster, reads it cache-to-cache.  No invalidation is ever
    # broadcast, but the directory forwards PE1's request to PE0, and
    # that message crosses the ring as an invalidate forward.
    buffer = TraceBuffer(n_pes=4)
    remote = AREA_BASE[Area.HEAP] + 4  # block 1: homed in cluster 1
    buffer.append(0, Op.R, Area.HEAP, remote)
    buffer.append(1, Op.R, Area.HEAP, remote)
    config = _config("pim", "directory", clusters=2)
    stats, network = _replay("generated", buffer, config, monkeypatch)
    assert (stats, network) == _replay(
        "interpreted", buffer, config, monkeypatch
    )
    assert stats["directory_forwards"] == 1
    assert stats["pattern_counts"]["invalidation"] == 0
    assert network[0]["fetch_forwards"] == 1
    assert network[0]["inval_forwards"] == 1


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
def test_lazypim_clustered_matches_per_access(
    trace, interconnect, monkeypatch
):
    # Speculative attempts record their transactions instead of
    # performing them, so they charge no network; the settlement and
    # the rolled-back replays charge it exactly as the per-access loop.
    config = _config("pim", interconnect, clusters=2).with_mode("lazypim")
    kernel = _replay("generated", trace, config, monkeypatch)
    assert kernel == _replay("interpreted", trace, config, monkeypatch)


def _spy(system):
    """Make *system*'s generated handlers count their dispatches (calls
    from the loop, not one handler's call of another); the dispatch
    table holds the spies under the same identities the kernel
    classifies cells by, so the kernel still inlines their shapes.  A
    cell holding anything else (a wrapper) is counted as ``"other"``.
    A dispatch of an :data:`INLINED` handler for a block with no locked
    word and no contended flag is listed in ``calls["unforced"]``."""
    calls = Counter()
    depth = [0]

    def make_spy(handler, name):
        def spy(*args):
            if not depth[0]:
                calls[name] += 1
                pe, sop, area, address, block, value, flags = args
                if name in INLINED and not flags & FLAG_LOCK_CONTENDED \
                        and block not in system._locked_words:
                    calls["unforced"] += 1
            depth[0] += 1
            try:
                return handler(*args)
            finally:
                depth[0] -= 1

        return spy

    spies = {}
    for name in GENERATED:
        handler = getattr(system, name)
        spies[handler] = make_spy(handler, name)
        setattr(system, name, spies[handler])
    for row in system._op_table:
        for cell in row:
            if cell not in spies:
                spies[cell] = make_spy(cell, "other")
    system._op_table = [[spies[h] for h in row] for row in system._op_table]
    system._base_op_table = system._op_table
    return calls


def _spied_system(config, n_pes):
    """A flat system with spies (see :func:`_spy`) and their counts."""
    system = PIMCacheSystem(config, n_pes)
    return system, _spy(system)


def _op_refs(stats, op):
    return sum(row[op] for row in stats.refs)


@pytest.mark.parametrize("protocol, interconnect, clusters", [
    # The flat bus case keeps the spec's name as its id.
    pytest.param(
        protocol, interconnect, clusters,
        id=protocol if (interconnect, clusters) == ("bus", 1)
        else f"{protocol}-{interconnect}-{clusters}",
    )
    for protocol in SPECS
    for interconnect in INTERCONNECTS
    for clusters in (1, 2, 4)
])
def test_misses_run_inline_without_locks(
    trace, protocol, interconnect, clusters, monkeypatch
):
    # No lock op: no block ever has a locked word, so no read, store or
    # ER/RP/RI reference dispatches at all, on either interconnect and
    # in any cluster of a K ≥ 2 system; nor does the kernel call the
    # directory's transaction.
    resolved = Counter()
    resolve = DirectoryInterconnect._resolve_request

    def counting_resolve(self, *args):
        resolved["calls"] += 1
        return resolve(self, *args)

    monkeypatch.setattr(
        DirectoryInterconnect, "_resolve_request", counting_resolve
    )
    plain = TraceBuffer(n_pes=trace.n_pes)
    for pe, op, area, address, flags in trace:
        if op not in (Op.LR, Op.UW, Op.U):
            plain.append(pe, op, area, address, flags)
    system = ClusteredSystem(
        _config(protocol, interconnect, clusters), plain.n_pes
    )
    spies = [_spy(cluster) for cluster in system.systems]
    stats = replay(plain, system=system)
    calls = sum(spies, Counter())
    assert not calls, calls
    assert not resolved, resolved
    if clusters > 1:
        # Every cluster charged the network from the kernel.
        network = system.cluster_stats().network_per_cluster
        assert all(n.fetch_forwards and n.stall_cycles for n in network)
    if clusters == 4:
        # One PE per cluster: no cache-to-cache shape is reachable.
        return
    if interconnect == "directory":
        assert stats.directory_forwards > 0
    assert stats.command_counts[0] > 0 and stats.dw_allocations > 0
    assert stats.dw_demotions > 0 and stats.er_demotions > 0
    assert stats.supplier_invalidations > 0
    assert stats.ri_exclusive_fetches > 0
    assert stats.purges_dirty + stats.purges_clean > 0
    if protocol in ("pim", "illinois"):
        # W misses (FI) and S/SM upgrades (I).
        assert stats.command_counts[1] > 0 and stats.command_counts[2] > 0
    else:
        assert stats.pattern_counts[BusPattern.WRITE_THROUGH] > 0


def test_lock_shapes_run_inline(trace):
    system, calls = _spied_system(_config("pim"), trace.n_pes)
    stats = replay(trace, system=system)
    assert stats.lr_no_bus > 0 and stats.unlocks_no_waiter > 0
    # LR shared hits (I + LK) and misses (FI + LK) run inline too: a
    # store, a read or an LR dispatches only where a lock forces it.
    assert stats.lr_bus > 0 and stats.command_counts[2] > 0
    assert calls["unforced"] == 0
    assert calls["_lock_read"] < _op_refs(stats, Op.LR)
    assert calls["_unlock_write"] < _op_refs(stats, Op.UW)
    assert calls["_unlock_plain"] < _op_refs(stats, Op.U)


def test_spies_see_every_per_access_dispatch(trace, monkeypatch):
    # Guards the spy tests above: through the per-access loop every
    # reference of those ops reaches its handler.
    route_through("interpreted", monkeypatch)
    system, calls = _spied_system(_config("pim"), trace.n_pes)
    stats = replay(trace, system=system)
    assert calls["unforced"] > 0
    assert calls["_lock_read"] == _op_refs(stats, Op.LR)
    assert calls["_unlock_write"] == _op_refs(stats, Op.UW)
    assert calls["_unlock_plain"] == _op_refs(stats, Op.U)


def test_swapped_bus_is_called_not_inlined(trace):
    # A driver's own _bus binding (the speculative recorder's kind) must
    # see every transaction of the inline shapes.
    config = _config("pim")
    seen = Counter()
    system = PIMCacheSystem(config, trace.n_pes)
    transact = system._bus

    def recording_bus(pe, pattern, area, block=-1, req=0, remotes=()):
        seen[pattern] += 1
        return transact(pe, pattern, area, block, req, remotes)

    system._bus = recording_bus
    stats = replay(trace, system=system)
    assert dict(seen) == {
        p: n for p, n in enumerate(stats.pattern_counts) if n
    }
    assert stats.as_dict() == replay(trace, config).as_dict()
