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
import re

import pytest

from repro.cluster.replay import split_trace
from repro.cluster.system import ClusteredSystem
from repro.core.config import SimulationConfig
from repro.core.protocol import protocol_names
from repro.core.replay import replay
from repro.core.stats import N_AREAS, N_OPS
from repro.core.system import PIMCacheSystem
from repro.obs.schema import SchemaError, validate_checkpoint
from repro.serve.checkpoint import (
    read_checkpoint,
    restore,
    snapshot,
    write_checkpoint,
)
from repro.trace.synthetic import generate_contract_trace, generate_random_trace
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


# ---------------------------------------------------------------------------
# Checkpoints that pass the schema but describe caches no run could have
# produced: restore (and so read_checkpoint) rejects them by path.


def _two_pe_checkpoint():
    system = PIMCacheSystem(SimulationConfig(), 2)
    replay(generate_random_trace(2_000, n_pes=2, seed=3), system=system)
    return json.loads(json.dumps(snapshot(system)))


def _assert_rejected(checkpoint, tmp_path, where, problem):
    validate_checkpoint(checkpoint)  # the schema alone accepts it
    match = re.escape(where) + ": .*" + problem
    with pytest.raises(SchemaError, match=match):
        restore(checkpoint)
    path = tmp_path / "ck.json"
    write_checkpoint(checkpoint, path)
    with pytest.raises(SchemaError, match=match):
        read_checkpoint(path)


def test_restore_rejects_a_line_listed_twice(tmp_path):
    checkpoint = _two_pe_checkpoint()
    lines = checkpoint["systems"][0]["caches"][0]["lines"]
    lines.append(list(lines[0]))
    _assert_rejected(
        checkpoint, tmp_path,
        f"checkpoint.systems[0].caches[0].lines[{len(lines) - 1}]",
        "listed twice",
    )


def test_restore_rejects_an_overfull_set(tmp_path):
    checkpoint = _two_pe_checkpoint()
    geometry = SimulationConfig().cache
    cache = checkpoint["systems"][0]["caches"][1]
    _, state, area, _, data = cache["lines"][0]
    # Ten blocks of set 0 in a 4-way cache: the fifth cannot fit.
    cache["lines"] = [
        [k * geometry.n_sets, state, area, k, data] for k in range(10)
    ]
    _assert_rejected(
        checkpoint, tmp_path,
        f"checkpoint.systems[0].caches[1].lines[{geometry.associativity}]",
        "4-way maximum",
    )


def test_restore_rejects_a_missing_cache(tmp_path):
    checkpoint = _two_pe_checkpoint()
    del checkpoint["systems"][0]["caches"][1]
    _assert_rejected(
        checkpoint, tmp_path, "checkpoint.systems[0].caches",
        "expected 2 entries",
    )


def test_restore_rejects_an_extra_pe_clock(tmp_path):
    checkpoint = _two_pe_checkpoint()
    stats = checkpoint["systems"][0]["stats"]
    stats["pe_cycles"].append(stats["pe_cycles"][0])
    _assert_rejected(
        checkpoint, tmp_path, "checkpoint.systems[0].stats.pe_cycles",
        "expected 2 entries, got 3",
    )


def test_restore_rejects_a_missing_refs_row(tmp_path):
    checkpoint = _two_pe_checkpoint()
    stats = checkpoint["systems"][0]["stats"]
    stats["refs"] = stats["refs"][:1]
    _assert_rejected(
        checkpoint, tmp_path, "checkpoint.systems[0].stats.refs",
        f"expected {N_AREAS} entries, got 1",
    )


@pytest.mark.parametrize("key", ["refs", "hits"])
def test_restore_rejects_a_short_matrix_row(tmp_path, key):
    checkpoint = _two_pe_checkpoint()
    row = checkpoint["systems"][0]["stats"][key][2]
    row.pop()
    _assert_rejected(
        checkpoint, tmp_path, f"checkpoint.systems[0].stats.{key}[2]",
        f"expected {N_OPS} entries, got {N_OPS - 1}",
    )


@pytest.mark.parametrize(
    "key",
    ["pattern_counts", "pattern_cycles", "bus_cycles_by_area", "command_counts"],
)
def test_restore_rejects_a_resized_stats_list(tmp_path, key):
    checkpoint = _two_pe_checkpoint()
    values = checkpoint["systems"][0]["stats"][key]
    want = len(values)
    values.append(0)
    _assert_rejected(
        checkpoint, tmp_path, f"checkpoint.systems[0].stats.{key}",
        f"expected {want} entries, got {want + 1}",
    )
