"""Snapshot and restore of full simulator state.

A checkpoint captures *everything* a replay's future depends on: every
cache line (tag, state, area, LRU stamp, optional data), per-cache LRU
clocks, lock-directory entries and their high-water marks, the shared
memory image, the lock accelerator maps, every ``SystemStats`` counter
(per-PE clocks included), the interconnect timeline, the home-node
directory's entry table, and — for clustered systems — each cluster's
network interface (link timeline plus counters).  The identity the
test-suite and fuzzing oracle enforce: *run N refs* produces exactly
the same state and counters as *run k, snapshot, restore, run N−k*.

Checkpoints are plain JSON (schema ``repro.obs/checkpoint/v1``,
validated by :func:`repro.obs.schema.validate_checkpoint`), so they
survive a process boundary and a ``json`` round trip by construction.

Restore builds a *fresh* system from the embedded config and then
mutates state in place.  That ordering is load-bearing twice over:

* ``SystemStats`` lists are updated with slice assignment and matrix
  element assignment, never replaced — live systems hold aliases into
  them (``system._pe_cycles``, the interconnect's ``_stats``, and the
  generated handlers' closed-over ``stats`` and ``pe_cycles``).
* The directory's entry table is restored *exactly as serialized*,
  never recomputed from cache residency: the directory intentionally
  under-promotes (an ``E`` entry over an ``EM`` copy is legal), so a
  rebuilt table could be a different — equally legal but behaviorally
  distinct — machine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.cache import Cache
from repro.core.config import SimulationConfig
from repro.core.states import CacheState, LockState
from repro.core.stats import N_AREAS, N_OPS, SystemStats
from repro.core.system import PIMCacheSystem
from repro.cluster.network import NetworkStats
from repro.cluster.system import ClusterCacheSystem, ClusteredSystem
from repro.obs.manifest import config_from_dict, config_to_dict
from repro.obs.schema import CHECKPOINT_SCHEMA, SchemaError, validate_checkpoint

#: Stats scalars beyond the summed fields (restored by plain setattr).
_STAT_SCALARS = SystemStats._SUM_FIELDS + ("lock_dir_max_occupancy",)


def _stats_state(stats: SystemStats) -> dict:
    return {
        "refs": [list(row) for row in stats.refs],
        "hits": [list(row) for row in stats.hits],
        "pattern_counts": list(stats.pattern_counts),
        "pattern_cycles": list(stats.pattern_cycles),
        "bus_cycles_by_area": list(stats.bus_cycles_by_area),
        "command_counts": list(stats.command_counts),
        "pe_cycles": list(stats.pe_cycles),
        "scalars": {name: getattr(stats, name) for name in _STAT_SCALARS},
    }


#: Per-area, per-pattern, per-command and per-PE stats lists.
_STAT_LISTS = (
    "pattern_counts",
    "pattern_cycles",
    "bus_cycles_by_area",
    "command_counts",
    "pe_cycles",
)


def _restore_stats(stats: SystemStats, state: dict, where: str) -> None:
    """Restore *state* into *stats* in place.  Every list must have the
    live system's shape; a wrong length raises :class:`SchemaError`
    naming its path, before anything is written."""

    def expect(path: str, want: int, got: list) -> None:
        if len(got) != want:
            raise SchemaError(
                f"{where}.{path}: expected {want} entries, got {len(got)}"
            )

    for key in ("refs", "hits"):
        expect(key, N_AREAS, state[key])
        for area, row in enumerate(state[key]):
            expect(f"{key}[{area}]", N_OPS, row)
    for key in _STAT_LISTS:
        expect(key, len(getattr(stats, key)), state[key])
    for a in range(N_AREAS):
        for o in range(N_OPS):
            stats.refs[a][o] = state["refs"][a][o]
            stats.hits[a][o] = state["hits"][a][o]
    for key in _STAT_LISTS:
        getattr(stats, key)[:] = state[key]
    for name, value in state["scalars"].items():
        setattr(stats, name, value)


def _cache_state(cache: Cache) -> dict:
    return {
        "tick": cache._tick,
        # Copy the data words: ``line.data`` is mutated in place by the
        # system, and a snapshot that aliases live state silently decays
        # — the JSON round trip of persisted checkpoints used to mask
        # this, but :func:`restore_into` reuses the dict as-is.
        "lines": [
            [
                block,
                int(line.state),
                line.area,
                line.lru,
                list(line.data) if line.data is not None else None,
            ]
            for block, line in sorted(cache.lines())
        ],
    }


def _restore_cache(cache: Cache, state: dict, where: str) -> None:
    if cache.occupancy():
        raise ValueError("restore target cache is not empty")
    for index, (block, line_state, area, lru, data) in enumerate(state["lines"]):
        try:
            cache.place(
                block,
                CacheState(line_state),
                area,
                lru,
                list(data) if data is not None else None,
            )
        except ValueError as error:
            raise SchemaError(f"{where}.lines[{index}]: {error}") from None
    cache._tick = state["tick"]


def _system_state(system: PIMCacheSystem) -> dict:
    interconnect: dict = {"free_at": system.interconnect.free_at}
    entries = getattr(system.interconnect, "entries", None)
    if entries is not None:
        interconnect["entries"] = [
            [block, int(entry.state), entry.owner, entry.sharers]
            for block, entry in sorted(entries.items())
        ]
    state = {
        "caches": [_cache_state(cache) for cache in system.caches],
        "locks": [
            {
                "entries": sorted(
                    [addr, int(lock_state)]
                    for addr, lock_state in lock.entries.items()
                ),
                "max_occupancy": lock.max_occupancy,
                "overflows": lock.overflows,
            }
            for lock in system.lock_directories
        ],
        "memory": sorted(
            [addr, value] for addr, value in system.memory.items()
        ),
        "locked_words": [
            [block, [list(pair) for pair in pairs]]
            for block, pairs in sorted(system._locked_words.items())
        ],
        "waiting": sorted(
            [pe, block] for pe, block in system._waiting.items()
        ),
        "stats": _stats_state(system.stats),
        "interconnect": interconnect,
    }
    if isinstance(system, ClusterCacheSystem):
        state["cluster_index"] = system.cluster_index
        net = system.network
        net_stats = {
            name: getattr(net.stats, name)
            for name in NetworkStats._SUM_FIELDS
        }
        net_stats["forwards_by_home"] = list(net.stats.forwards_by_home)
        state["network"] = {
            "link_free_at": net.link_free_at,
            "stats": net_stats,
        }
    return state


def _restore_system(system: PIMCacheSystem, state: dict, where: str) -> None:
    from repro.core.protocol.directory import DirectoryEntry, DirState

    for key in ("caches", "locks"):
        if len(state[key]) != system.n_pes:
            raise SchemaError(
                f"{where}.{key}: expected {system.n_pes} entries, one per "
                f"PE, got {len(state[key])}"
            )
    for pe, (cache, cache_state) in enumerate(zip(system.caches, state["caches"])):
        _restore_cache(cache, cache_state, f"{where}.caches[{pe}]")
    # The presence map is derived state: rebuild it from the restored
    # lines rather than trusting a second serialized copy of the truth.
    holders = system._holders
    holders.clear()
    for pe, cache in enumerate(system.caches):
        for block, _line in cache.lines():
            holder_set = holders.get(block)
            if holder_set is None:
                holders[block] = {pe}
            else:
                holder_set.add(pe)
    for lock, lock_state in zip(system.lock_directories, state["locks"]):
        lock.entries = {
            addr: LockState(value) for addr, value in lock_state["entries"]
        }
        lock.max_occupancy = lock_state["max_occupancy"]
        lock.overflows = lock_state["overflows"]
    system.memory = {addr: value for addr, value in state["memory"]}
    system._locked_words = {
        block: [tuple(pair) for pair in pairs]
        for block, pairs in state["locked_words"]
    }
    system._waiting = {pe: block for pe, block in state["waiting"]}
    _restore_stats(system.stats, state["stats"], f"{where}.stats")
    system.interconnect.free_at = state["interconnect"]["free_at"]
    dir_entries = state["interconnect"].get("entries")
    if dir_entries is not None:
        system.interconnect.entries = {
            block: DirectoryEntry(DirState(dir_state), owner, sharers)
            for block, dir_state, owner, sharers in dir_entries
        }
    network = state.get("network")
    if network is not None:
        net = system.network
        net.link_free_at = network["link_free_at"]
        for name in NetworkStats._SUM_FIELDS:
            setattr(net.stats, name, network["stats"][name])
        net.stats.forwards_by_home[:] = network["stats"]["forwards_by_home"]


def snapshot(system) -> dict:
    """Capture *system* (flat or clustered) as a JSON-ready checkpoint."""
    if isinstance(system, ClusteredSystem):
        return {
            "schema": CHECKPOINT_SCHEMA,
            "kind": "clustered",
            "config": config_to_dict(system.config),
            "n_pes": system.n_pes,
            "systems": [_system_state(sub) for sub in system.systems],
        }
    return {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "flat",
        "config": config_to_dict(system.config),
        "n_pes": system.n_pes,
        "systems": [_system_state(system)],
    }


def _pairs(system, checkpoint: dict):
    """``(flat system, its state, its path)`` for every flat system of
    *system*, which must match the checkpoint's system count."""
    subs = system.systems if isinstance(system, ClusteredSystem) else [system]
    states = checkpoint["systems"]
    if len(states) != len(subs):
        raise SchemaError(
            f"checkpoint.systems: expected {len(subs)} systems, got "
            f"{len(states)}"
        )
    return [
        (sub, state, f"checkpoint.systems[{index}]")
        for index, (sub, state) in enumerate(zip(subs, states))
    ]


def restore(checkpoint: dict):
    """Rebuild a live system from a :func:`snapshot` checkpoint.

    Validates the checkpoint first, then constructs a fresh system from
    the embedded config and surgically restores every piece of state.
    The result is indistinguishable from the snapshotted system: the
    replay suffix it produces is bit-identical.  A checkpoint no run
    could have produced — a cache or lock directory missing for some
    PE, a line listed twice, a set holding more lines than its ways —
    raises :class:`SchemaError` naming the offending path.
    """
    validate_checkpoint(checkpoint)
    config: SimulationConfig = config_from_dict(checkpoint["config"])
    n_pes = checkpoint["n_pes"]
    if checkpoint["kind"] == "clustered":
        system = ClusteredSystem(config, n_pes)
    elif "cluster_index" in checkpoint["systems"][0]:
        system = ClusterCacheSystem(
            config, n_pes, checkpoint["systems"][0]["cluster_index"]
        )
    else:
        system = PIMCacheSystem(config, n_pes)
    for sub, state, where in _pairs(system, checkpoint):
        _restore_system(sub, state, where)
    return system


def restore_into(system, checkpoint: dict) -> None:
    """Restore a :func:`snapshot` into an *existing* live system, in place.

    Rewinds the very system object a caller holds, so every alias into
    it (``stats.pe_cycles``, the interconnect's ``_stats``, bound
    handler methods) stays valid.  The checkpoint must have been taken
    from *this* system (same shape): config and PE count are not
    re-validated here, and unlike :func:`restore` no fresh system is
    built.
    """
    for sub, state, where in _pairs(system, checkpoint):
        for cache in sub.caches:
            cache.flush()
        entries = getattr(sub.interconnect, "entries", None)
        if entries is not None:
            entries.clear()
        _restore_system(sub, state, where)


def write_checkpoint(checkpoint: dict, path: Union[str, Path]) -> Path:
    """Atomically persist a checkpoint (write-temp + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def read_checkpoint(path: Union[str, Path]) -> dict:
    """Load a persisted checkpoint, checking it both validates and
    restores (see :func:`restore`)."""
    checkpoint = json.loads(Path(path).read_text())
    restore(checkpoint)
    return checkpoint
