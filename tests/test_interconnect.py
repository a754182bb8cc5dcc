"""The pluggable interconnect layer (repro.core.interconnect).

Three families:

1. **Registry and config plumbing** — name lookup mirrors the protocol
   registry (friendly ``KeyError`` listing the registered names) and
   ``SimulationConfig`` validates the backend at construction.
2. **Directory semantics on a live system** — forwards/invalidations
   counted per third-party message, indirection charged at
   ``hop_cycles`` per message into the PE clock, the shared timeline
   *and* the ``directory_indirection`` ledger bucket (the exact-sum
   identity holds), entries resynchronized and ``check_invariants``
   clean throughout.
3. **Path identity** — the generated kernel, the checked loop and the
   K=2 clustered replays agree bit-for-bit with the per-access
   reference loop under the directory backend, for every registered
   protocol (the same gates the bus backend answers to).
"""

import pytest

from repro.cluster.replay import replay_clustered, replay_interleaved
from repro.core.config import CacheConfig, SimulationConfig
from repro.core.interconnect import (
    DirectoryInterconnect,
    SnoopingBus,
    build_interconnect,
    get_interconnect_factory,
    interconnect_names,
    is_interconnect_registered,
    register_interconnect,
)
from repro.core.interconnect import _REGISTRY as _INTERCONNECTS
from repro.core.protocol import protocol_names
from repro.core.protocol.directory import DirState
from repro.core.replay import replay
from repro.core.states import CacheState
from repro.core.system import PIMCacheSystem
from repro.obs.metrics import cycle_ledger
from repro.trace.events import Area, Op
from repro.trace.synthetic import generate_contract_trace
from tests.replay_loops import replay_through

HEAP = Area.HEAP

DIRECTORY_COUNTERS = (
    "directory_transactions",
    "directory_forwards",
    "directory_invalidations",
    "directory_indirection_cycles",
)


def _dir_system(n_pes=4, **kwargs) -> PIMCacheSystem:
    config = SimulationConfig(interconnect="directory", **kwargs)
    return PIMCacheSystem(config, n_pes)


# ---------------------------------------------------------------------------
# Registry and config plumbing.


def test_builtin_backends_registered():
    assert interconnect_names() == ("bus", "directory")
    assert is_interconnect_registered("bus")
    assert not is_interconnect_registered("crossbar")


def test_unknown_backend_lists_registered_names():
    with pytest.raises(KeyError, match="registered: bus, directory"):
        get_interconnect_factory("crossbar")


def test_duplicate_registration_needs_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_interconnect("bus", SnoopingBus)
    register_interconnect("bus", SnoopingBus, replace=True)  # no-op rewire
    assert _INTERCONNECTS["bus"] is SnoopingBus


def test_config_validates_backend_at_construction():
    with pytest.raises(ValueError, match="unknown interconnect 'mesh'"):
        SimulationConfig(interconnect="mesh")
    assert SimulationConfig().with_interconnect("directory").interconnect == (
        "directory"
    )


def test_system_wires_the_selected_backend():
    bus_system = PIMCacheSystem(SimulationConfig(), 2)
    assert type(bus_system.interconnect) is SnoopingBus
    assert bus_system.interconnect.system is bus_system
    dir_system = _dir_system(2)
    assert type(dir_system.interconnect) is DirectoryInterconnect
    assert dir_system.interconnect.spec.protocol == "pim"
    assert build_interconnect("bus", bus_system).free_at == 0


def test_bus_backend_keeps_directory_counters_zero():
    trace = generate_contract_trace(2_000, n_pes=4, seed=11)
    stats = replay(trace, SimulationConfig())
    for name in DIRECTORY_COUNTERS:
        assert getattr(stats, name) == 0
    assert "directory_transactions" in stats.as_dict()


# ---------------------------------------------------------------------------
# Directory semantics on a live system.


def test_forward_and_invalidation_charging():
    system = _dir_system(2)
    hop = system.config.cluster.hop_cycles
    stats = system.stats
    directory = system.interconnect

    system.access(0, Op.R, HEAP, 0x100)  # GETS on I: no third parties
    assert stats.directory_transactions == 1
    assert stats.directory_indirection_cycles == 0
    entry = directory.entries[0x100 >> 2]
    assert entry.state is DirState.E and entry.owner == 0

    system.access(1, Op.R, HEAP, 0x100)  # GETS on E: forward to owner
    assert stats.directory_forwards == 1
    assert stats.directory_indirection_cycles == hop
    entry = directory.entries[0x100 >> 2]
    assert entry.state is DirState.S and entry.sharer_list() == (0, 1)

    clock_before = stats.pe_cycles[0]
    free_before = directory.free_at
    system.access(0, Op.W, HEAP, 0x100)  # UPGR on S: invalidate PE1
    assert stats.directory_invalidations == 1
    assert stats.directory_indirection_cycles == 2 * hop
    # The indirection reached the PE clock and the shared timeline, not
    # just the counter.
    assert stats.pe_cycles[0] - clock_before >= hop
    assert directory.free_at - free_before >= hop
    entry = directory.entries[0x100 >> 2]
    assert entry.state is DirState.M and entry.owner == 0
    assert system.line_state(1, 0x100) in (None, CacheState.INV)
    system.check_invariants()


def test_single_copy_traffic_is_free():
    """One PE alone on its blocks never pays indirection (no third party)."""
    system = _dir_system(2)
    for word in range(0, 64, 2):
        system.access(0, Op.R, HEAP, 0x400 + word)
        system.access(0, Op.W, HEAP, 0x400 + word)
    assert system.stats.directory_transactions > 0
    assert system.stats.directory_forwards == 0
    assert system.stats.directory_invalidations == 0
    assert system.stats.directory_indirection_cycles == 0
    system.check_invariants()


def test_silent_store_is_invisible_until_next_transaction():
    system = _dir_system(2)
    directory = system.interconnect
    system.access(0, Op.R, HEAP, 0x200)
    assert system.line_state(0, 0x200) is CacheState.EC
    system.access(0, Op.W, HEAP, 0x200)  # silent EC->EM, zero bus traffic
    assert system.line_state(0, 0x200) is CacheState.EM
    entry = directory.entries[0x200 >> 2]
    assert entry.state is DirState.E  # home node still believes E
    system.check_invariants()  # the E-over-EM exception holds
    system.access(1, Op.R, HEAP, 0x200)  # next transaction learns the truth
    entry = directory.entries[0x200 >> 2]
    assert entry.state is DirState.O  # pim: dirty supplier keeps ownership
    assert entry.owner == 0


def test_flush_drops_every_entry():
    system = _dir_system(2)
    system.access(0, Op.R, HEAP, 0x100)
    system.access(1, Op.W, HEAP, 0x180)
    assert system.interconnect.entries
    system.flush_all()
    assert not system.interconnect.entries
    system.check_invariants()


def test_ledger_attributes_indirection_exactly():
    trace = generate_contract_trace(4_000, n_pes=4, seed=3)
    stats = replay(trace, SimulationConfig(interconnect="directory"))
    assert stats.directory_indirection_cycles > 0
    ledger = cycle_ledger(stats)  # verify=True raises unless exact
    assert ledger.entries["directory_indirection"] == (
        stats.directory_indirection_cycles
    )


def test_invariants_hold_along_a_contract_trace():
    trace = generate_contract_trace(2_000, n_pes=4, seed=7)
    system = _dir_system(4)
    for i, (pe, op, area, addr, flags) in enumerate(trace):
        system.access(pe, op, area, addr, 0, flags)
        if i % 250 == 0:
            system.check_invariants()
    system.check_invariants()


# ---------------------------------------------------------------------------
# Path identity under the directory backend.


@pytest.mark.parametrize("protocol", protocol_names())
def test_generated_kernel_matches_interpreted(protocol):
    config = SimulationConfig(protocol=protocol, interconnect="directory")
    trace = generate_contract_trace(3_000, n_pes=4, seed=13)
    interpreted = replay_through("interpreted", trace, config)
    generated = replay(trace, config)
    assert interpreted.as_dict() == generated.as_dict()
    assert interpreted.directory_transactions > 0


def test_clustered_replay_is_bit_identical_at_k2():
    config = SimulationConfig(
        cache=CacheConfig(n_sets=32), interconnect="directory"
    ).with_clusters(2)
    trace = generate_contract_trace(3_000, n_pes=4, seed=17)
    interleaved = replay_interleaved(trace, config)
    sharded = replay_clustered(trace, config)
    assert interleaved.as_dict() == sharded.as_dict()
    assert interleaved.stats.directory_transactions > 0
    # Cross-cluster directory messages ride the ring.
    assert interleaved.network.messages > 0
