"""Checkpoint/resume identity (repro.serve.checkpoint).

The contract: ``restore(snapshot(system))`` rebuilds a simulator whose
future is indistinguishable from the original's — "run N refs" equals
"run k refs, snapshot, JSON round trip, restore, run N−k refs" *bit for
bit*, for every registered protocol, both replay loops (the generated
kernel and the per-access loop, see ``tests/replay_loops.py``), both
interconnect backends, and clustered (K=2) machines.  Equality is
checked twice per case: the final counters, and the full end-state
snapshots (caches, locks, directory entries, clocks included).
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.replay import split_trace
from repro.cluster.system import ClusteredSystem
from repro.core.config import SimulationConfig
from repro.core.protocol import protocol_names
from repro.core.replay import replay
from repro.core.system import PIMCacheSystem
from repro.obs.schema import SchemaError, validate_checkpoint
from repro.serve.checkpoint import (
    read_checkpoint,
    restore,
    snapshot,
    write_checkpoint,
)
from repro.trace.synthetic import generate_contract_trace
from tests.replay_loops import LOOPS, replay_through


@pytest.fixture(scope="module")
def contract_trace():
    return generate_contract_trace(2_000, n_pes=4, seed=17)


def _build(config):
    if config.cluster.n_clusters > 1:
        return ClusteredSystem(config, 4)
    return PIMCacheSystem(config, 4)


def _run(system, trace, kernel):
    """Advance *system* by *trace* through the *kernel* loop; returns
    its result stats."""
    if isinstance(system, ClusteredSystem):
        shards = split_trace(trace, system.n_pes, system.n_clusters)
        for sub, shard in zip(system.systems, shards):
            if len(shard):
                replay_through(kernel, shard, system=sub)
        return system.cluster_stats()
    return replay_through(kernel, trace, system=system)


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("clusters", (1, 2))
@pytest.mark.parametrize("interconnect", ("bus", "directory"))
@pytest.mark.parametrize("protocol", sorted(protocol_names()))
def test_snapshot_restore_identity(
    contract_trace, protocol, interconnect, clusters, kernel
):
    config = SimulationConfig(protocol=protocol, interconnect=interconnect)
    if clusters > 1:
        config = config.with_clusters(clusters)
    trace = contract_trace
    mid = len(trace) // 3

    uninterrupted = _build(config)
    full = _run(uninterrupted, trace, kernel)

    prefix_system = _build(config)
    _run(prefix_system, trace.slice(0, mid), kernel)
    checkpoint = json.loads(json.dumps(snapshot(prefix_system)))
    validate_checkpoint(checkpoint)
    resumed_system = restore(checkpoint)
    resumed = _run(resumed_system, trace.slice(mid, len(trace)), kernel)

    assert resumed.as_dict() == full.as_dict()
    assert snapshot(resumed_system) == snapshot(uninterrupted)


def test_snapshot_of_restored_system_is_stable(contract_trace):
    # restore() must reproduce the snapshot exactly, not an equivalent
    # rebuild: a second snapshot is byte-for-byte the first.
    system = PIMCacheSystem(SimulationConfig(), 4)
    replay(contract_trace, system=system)
    first = snapshot(system)
    assert snapshot(restore(first)) == first


def test_directory_snapshot_carries_entries(contract_trace):
    config = SimulationConfig(interconnect="directory")
    system = PIMCacheSystem(config, 4)
    replay(contract_trace, system=system)
    checkpoint = snapshot(system)
    entries = checkpoint["systems"][0]["interconnect"]["entries"]
    assert entries, "directory run produced no directory entries"
    assert all(len(row) == 4 for row in entries)


def test_checkpoint_file_roundtrip(contract_trace, tmp_path):
    system = PIMCacheSystem(SimulationConfig(), 4)
    replay(contract_trace, system=system)
    path = tmp_path / "ck.json"
    checkpoint = snapshot(system)
    write_checkpoint(checkpoint, path)
    assert read_checkpoint(path) == checkpoint
    assert not list(tmp_path.glob("*.tmp")), "atomic write left a temp file"


def test_validate_checkpoint_rejects_malformed(contract_trace):
    system = PIMCacheSystem(SimulationConfig(), 4)
    replay(contract_trace.slice(0, 200), system=system)
    good = snapshot(system)
    validate_checkpoint(good)

    bad = dict(good)
    bad["schema"] = "repro.obs/other/v1"
    with pytest.raises(SchemaError):
        validate_checkpoint(bad)

    bad = dict(good)
    bad["kind"] = "sharded"
    with pytest.raises(SchemaError):
        validate_checkpoint(bad)

    bad = dict(good)
    bad["systems"] = good["systems"] * 2  # flat must have exactly one
    with pytest.raises(SchemaError):
        validate_checkpoint(bad)

    bad = json.loads(json.dumps(good))
    del bad["systems"][0]["caches"][0]["tick"]
    with pytest.raises(SchemaError):
        validate_checkpoint(bad)


def test_restore_rejects_unvalidated_garbage():
    with pytest.raises(SchemaError):
        restore({"schema": "repro.obs/checkpoint/v1", "kind": "flat"})
