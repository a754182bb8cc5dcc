"""The generated kernel's inline miss path against the per-access loop.

The kernel runs the common misses inline — read-miss fills, DW
allocations, LR on an exclusive line, UW/U with no waiter — from the
same templates the dispatch-table handlers are emitted from.  Here a
miss-heavy random trace (4 sets, 1 way, a one-entry lock directory)
replays through both loops under every built-in spec, both
interconnects and K in {1, 2}, and must give identical counters; the
counters of every shape must be nonzero, so the trace reaches them; and
on a flat bus system, spies on the generated handlers show the kernel
served those shapes without dispatching.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import CacheConfig, ClusterConfig, SimulationConfig
from repro.core.replay import replay
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import Op
from repro.trace.synthetic import generate_random_trace
from tests.replay_loops import route_through

SPECS = ("pim", "illinois", "write_once", "write_through", "write_update")
INTERCONNECTS = ("bus", "directory")
CLUSTERS = (1, 2)
#: The handlers codegen emits, as PIMCacheSystem attributes.
GENERATED = (
    "_read", "_direct_write", "_lock_read", "_unlock_write", "_unlock_plain",
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
    route_through(loop, monkeypatch)
    return replay(trace, config).as_dict()


@pytest.mark.parametrize("clusters", CLUSTERS)
@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@pytest.mark.parametrize("protocol", SPECS)
def test_kernel_matches_per_access(
    trace, protocol, interconnect, clusters, monkeypatch
):
    config = _config(protocol, interconnect, clusters)
    kernel = _replay("generated", trace, config, monkeypatch)
    per_access = _replay("interpreted", trace, config, monkeypatch)
    assert kernel == per_access
    # Every shape the kernel inlines is reached by the trace.
    assert kernel["dw_allocations"] > 0
    assert kernel["pattern_counts"]["swap_out_only"] > 0
    assert kernel["lr_no_bus"] > 0
    assert kernel["lock_dir_overflows"] > 0
    assert kernel["unlocks_no_waiter"] > 0
    if protocol == "illinois":
        # A copyback supplier row: dirty cache-to-cache transfers.
        assert kernel["c2c_transfers"] > 0
        assert kernel["swap_outs"] > 0


def _spied_system(config, n_pes):
    """A flat system whose generated handlers count their calls; the
    dispatch table holds the spies under the same identities the kernel
    classifies cells by, so the kernel still inlines their shapes."""
    system = PIMCacheSystem(config, n_pes)
    calls = Counter()
    spies = {}
    for name in GENERATED:
        handler = getattr(system, name)

        def spy(*args, _handler=handler, _name=name):
            calls[_name] += 1
            return _handler(*args)

        spies[handler] = spy
        setattr(system, name, spy)
    system._op_table = [[spies.get(h, h) for h in row] for row in system._op_table]
    system._base_op_table = system._op_table
    return system, calls


def _op_refs(stats, op):
    return sum(row[op] for row in stats.refs)


def test_read_misses_and_dw_allocations_run_inline(trace):
    # Only R, W and DW: no lock makes a read miss dispatch, and no ER
    # calls the read handler itself.
    plain = TraceBuffer(n_pes=trace.n_pes)
    for pe, op, area, address, flags in trace:
        if op in (Op.R, Op.W, Op.DW):
            plain.append(pe, op, area, address, flags)
    system, calls = _spied_system(_config("pim"), plain.n_pes)
    stats = replay(plain, system=system)
    assert stats.command_counts[0] > 0 and stats.dw_allocations > 0
    assert calls["_read"] == 0
    # Only demoted DWs dispatch (a shared hit, or a miss off a block
    # boundary or with a remote copy); allocations never do.
    assert calls["_direct_write"] <= stats.dw_demotions


def test_lock_shapes_run_inline(trace):
    system, calls = _spied_system(_config("pim"), trace.n_pes)
    stats = replay(trace, system=system)
    assert stats.lr_no_bus > 0 and stats.unlocks_no_waiter > 0
    assert calls["_lock_read"] < _op_refs(stats, Op.LR)
    assert calls["_unlock_write"] < _op_refs(stats, Op.UW)
    assert calls["_unlock_plain"] < _op_refs(stats, Op.U)


def test_spies_see_every_per_access_dispatch(trace, monkeypatch):
    # Guards the spy tests above: through the per-access loop every
    # reference of those ops reaches its handler.
    route_through("interpreted", monkeypatch)
    system, calls = _spied_system(_config("pim"), trace.n_pes)
    stats = replay(trace, system=system)
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
