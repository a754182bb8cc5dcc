"""Workload execution and trace caching for the experiment harness.

Every experiment in the paper derives from the same few workload runs:
each benchmark executed on ``n`` PEs, producing (a) a reference trace
and (b) the execution-driven cache statistics replaying it gives.
:class:`Workloads` memoizes those runs so Tables 2-5 and Figures 1-2 all
reuse one 8-PE trace per benchmark, and Figure 3 adds the 1/2/4-PE runs
— mirroring how the paper's emulator/simulator pair was amortized
across experiments.
"""

from __future__ import annotations

import ast
import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.cluster.replay import replay_machine
from repro.core.config import MachineConfig, OptimizationConfig, SimulationConfig
from repro.core.replay import replay
from repro.core.stats import SystemStats
from repro.machine.machine import KL1Machine, MachineResult
from repro.obs.log import get_logger
from repro.obs.manifest import build_manifest
from repro.trace.buffer import TraceBuffer
from repro.trace.io import TraceFormatError, read_trace, write_trace

logger = get_logger("analysis.runner")

#: Bump when the emulator or scheduler changes the reference streams it
#: emits: the version is part of every cache file name, so stale traces
#: from an older emulator are simply never read again.
TRACE_CACHE_VERSION = 1

#: Suffix of the machine record cached beside each trace (same stem).
RECORD_SUFFIX = ".json"

#: The :class:`MachineResult` fields a machine record stores verbatim.
#: The answer is stored as its ``repr`` (JSON would turn its tuples into
#: lists) and read back with :func:`ast.literal_eval`.
RECORD_FIELDS = (
    "reductions",
    "suspensions",
    "instructions",
    "memory_refs",
    "wall_seconds",
    "heap_words",
    "pe_reductions",
    "gc_collections",
    "gc_words_reclaimed",
    "gc_marks",
)

#: Default size cap of the disk trace cache.  Long job-fleet sessions
#: capture many (scale, PE-count, seed, cluster) streams; without a
#: bound the cache grows monotonically.  Override (in bytes) with
#: ``REPRO_TRACE_CACHE_BYTES``; 0 disables pruning.
DEFAULT_TRACE_CACHE_BYTES = 512 * 1024 * 1024


def trace_cache_dir() -> Optional[Path]:
    """Directory for cached traces, or None when caching is disabled.

    Controlled by ``REPRO_TRACE_CACHE``: unset uses
    ``~/.cache/repro/traces`` (``$XDG_CACHE_HOME`` honoured), ``0`` /
    ``off`` disables the cache, anything else is used as the directory.
    """
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "no", "none"):
            return None
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "traces"


def trace_cache_limit_bytes() -> int:
    """The cache size cap in bytes (0 = unbounded)."""
    env = os.environ.get("REPRO_TRACE_CACHE_BYTES")
    if env is None or not env.strip():
        return DEFAULT_TRACE_CACHE_BYTES
    try:
        return max(0, int(env))
    except ValueError:
        logger.warning(
            "ignoring non-integer REPRO_TRACE_CACHE_BYTES=%r", env
        )
        return DEFAULT_TRACE_CACHE_BYTES


def _cache_entries(root: Path):
    """(mtime, size, paths) of every cached workload — its trace and
    machine record, which are evicted together — oldest-access first.

    mtime doubles as last-use time: :meth:`Workloads._load_trace` bumps
    the trace's on every hit, so sorting by the newer of the two files'
    mtimes is LRU order.
    """
    entries: Dict[str, tuple] = {}
    for path in [*root.glob("*.trace"), *root.glob("*" + RECORD_SUFFIX)]:
        try:
            stat = path.stat()
        except OSError:
            continue
        mtime, size, paths = entries.get(path.stem, (0.0, 0, []))
        entries[path.stem] = (
            max(mtime, stat.st_mtime), size + stat.st_size, paths + [path]
        )
    return sorted(entries.values())


def trace_cache_stats() -> dict:
    """Current disk-cache occupancy, for ``repro cache --stats``."""
    root = trace_cache_dir()
    if root is None or not root.is_dir():
        return {
            "dir": str(root) if root is not None else None,
            "enabled": root is not None,
            "files": 0,
            "total_bytes": 0,
            "limit_bytes": trace_cache_limit_bytes(),
        }
    entries = _cache_entries(root)
    return {
        "dir": str(root),
        "enabled": True,
        "files": sum(len(paths) for _, _, paths in entries),
        "total_bytes": sum(size for _, size, _ in entries),
        "limit_bytes": trace_cache_limit_bytes(),
    }


def prune_trace_cache(max_bytes: Optional[int] = None) -> dict:
    """Evict least-recently-used traces, each with its machine record,
    until the cache fits *max_bytes* (default:
    :func:`trace_cache_limit_bytes`).  Returns what happened.
    """
    root = trace_cache_dir()
    if max_bytes is None:
        max_bytes = trace_cache_limit_bytes()
    removed = 0
    removed_bytes = 0
    if root is not None and root.is_dir() and max_bytes > 0:
        entries = _cache_entries(root)
        total = sum(size for _, size, _ in entries)
        for _, size, paths in entries:
            if total <= max_bytes:
                break
            try:
                for path in paths:
                    path.unlink()
            except OSError:
                continue
            total -= size
            removed += len(paths)
            removed_bytes += size
        if removed:
            logger.info(
                "trace cache pruned: %d file(s), %d bytes", removed,
                removed_bytes,
            )
    stats = trace_cache_stats()
    stats["removed"] = removed
    stats["removed_bytes"] = removed_bytes
    return stats


@dataclass
class BenchmarkResult:
    """One benchmark execution: machine-level result plus cache stats."""

    name: str
    scale: str
    n_pes: int
    machine: MachineResult
    #: Execution-driven cache statistics (base config, all commands on).
    stats: Optional[SystemStats]
    #: The captured reference stream, replayable against other configs.
    trace: TraceBuffer
    #: Static source lines (Table 1's "lines" column).
    source_lines: int
    #: Run provenance (``repro.obs/manifest/v1``): config hash, seed,
    #: git SHA, interpreter, wall time.
    manifest: Optional[dict] = None


def run_benchmark(
    name: str,
    scale: str = "small",
    n_pes: int = 8,
    sim_config: Optional[SimulationConfig] = None,
    machine_config: Optional[MachineConfig] = None,
    verify: bool = True,
) -> BenchmarkResult:
    """Execute one benchmark and return its results.

    The default simulation config is the paper's base model with all
    optimized commands honoured.  ``verify=True`` checks the program's
    answer against the benchmark's Python oracle and raises on mismatch.
    """
    from repro.programs import get as get_benchmark

    benchmark = get_benchmark(name)
    if machine_config is None:
        machine_config = MachineConfig(n_pes=n_pes, seed=1)
    elif machine_config.n_pes != n_pes:
        machine_config = replace(machine_config, n_pes=n_pes)
    if sim_config is None:
        sim_config = SimulationConfig()
    logger.info("emulating %s/%s on %d PEs", name, scale, n_pes)
    machine = KL1Machine(benchmark.source, machine_config, sim_config)
    result = machine.run(benchmark.query(scale))
    logger.debug(
        "%s/%s: %d reductions, %d refs, %.2fs",
        name, scale, result.reductions, result.memory_refs, result.wall_seconds,
    )
    return _benchmark_result(
        name, scale, n_pes, result, machine.program.source_lines,
        sim_config, machine_config.seed, verify,
    )


def _benchmark_result(
    name: str,
    scale: str,
    n_pes: int,
    result: MachineResult,
    source_lines: int,
    sim_config: SimulationConfig,
    seed: int,
    verify: bool = True,
) -> BenchmarkResult:
    """Wrap a machine result with its manifest, first checking its
    answer against the benchmark's oracle when *verify* is set."""
    from repro.programs import get as get_benchmark

    if verify:
        benchmark = get_benchmark(name)
        got = result.answer.get(benchmark.answer_var)
        expected = benchmark.expected[scale]
        if got != expected:
            raise AssertionError(
                f"benchmark {name}/{scale} computed {got!r}, expected {expected!r}"
            )
    manifest = build_manifest(
        config=sim_config,
        seed=seed,
        wall_seconds=round(result.wall_seconds, 3),
        extra={
            "kind": "benchmark-run",
            "benchmark": name,
            "scale": scale,
            "n_pes": n_pes,
            "reductions": result.reductions,
            "memory_refs": result.memory_refs,
        },
    )
    return BenchmarkResult(
        name=name,
        scale=scale,
        n_pes=n_pes,
        machine=result,
        stats=result.stats,
        trace=result.trace,
        source_lines=source_lines,
        manifest=manifest,
    )


def _machine_record(result: BenchmarkResult) -> dict:
    """The JSON-ready machine record of *result* (see
    :data:`RECORD_FIELDS`)."""
    record = {field: getattr(result.machine, field) for field in RECORD_FIELDS}
    record["answer"] = repr(result.machine.answer)
    record["source_lines"] = result.source_lines
    return record


def _write_atomically(path: Path, write: Callable[[str], object]) -> None:
    """Run ``write(tmp)`` on a temporary file beside *path*, then rename
    it over *path*: readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)  # left only by a failed write


def replay_trace(
    result_or_trace, config: SimulationConfig, n_pes: Optional[int] = None
) -> SystemStats:
    """Replay a benchmark's trace against another cache configuration."""
    trace = (
        result_or_trace.trace
        if isinstance(result_or_trace, BenchmarkResult)
        else result_or_trace
    )
    return replay(trace, config, n_pes=n_pes)


class Workloads:
    """Memoized benchmark runs shared across experiments.

    Traces are additionally cached on disk, keyed by every knob that can
    change the captured reference stream — and *only* those:

    * :data:`TRACE_CACHE_VERSION` (emulator/scheduler changes),
    * benchmark name, ``scale``, ``n_pes``, machine ``seed``,
    * ``gc_threshold_words`` (collections rewrite the heap, changing
      every reference after them),
    * ``n_clusters`` (cluster-affinity goal scheduling reorders work,
      so a clustered capture is a different stream).

    The simulation side — protocol, cache geometry, bus width, the
    optimized-command toggles — is deliberately absent: the reference
    stream does not depend on it (that independence is the premise of
    trace replay), so one cached trace serves every protocol and
    geometry sweep.  The two non-default knobs append readable suffixes
    rather than reformatting the whole key, keeping existing cache
    files valid.

    Beside each trace the cache stores the run's machine record
    (answer, reductions, suspensions, instruction and reference counts,
    heap words, per-PE reductions, collection counts and trace
    positions, emulation wall time).  Repeated pytest / benchmark
    invocations thus skip re-emulation — the expensive part — and go
    straight to replay: :meth:`trace` loads the cached trace, and
    :meth:`result` rebuilds the run from its record plus a replay of
    that trace, re-checking the answer against the benchmark's oracle.
    A warm report emulates nothing.  A miss — no trace, or for
    :meth:`result` no readable record — emulates once and stores both.
    """

    def __init__(
        self,
        scale: str = "small",
        seed: int = 1,
        gc_threshold_words: Optional[int] = None,
        n_clusters: int = 1,
    ):
        self.scale = scale
        self.seed = seed
        self.gc_threshold_words = gc_threshold_words
        self.n_clusters = n_clusters
        self._cache: Dict[Tuple[str, int], BenchmarkResult] = {}
        self._traces: Dict[Tuple[str, int], TraceBuffer] = {}
        self._replays: Dict[Tuple[str, int, SimulationConfig], SystemStats] = {}

    def cache_key(self, name: str, n_pes: int = 8) -> str:
        """The disk-cache key (file stem) of one workload's trace —
        recorded in manifests so results name the stream they used."""
        key = (
            f"v{TRACE_CACHE_VERSION}-{name}-{self.scale}-"
            f"{n_pes}pe-seed{self.seed}"
        )
        if self.gc_threshold_words is not None:
            key += f"-gc{self.gc_threshold_words}"
        if self.n_clusters != 1:
            key += f"-c{self.n_clusters}"
        return key

    def _sim_config(self) -> SimulationConfig:
        """The base config, on this workload set's cluster count.

        Results' stats are replayed under it.  Only its cluster
        topology reaches the trace — it feeds the scheduler.
        """
        config = SimulationConfig()
        if self.n_clusters == 1:
            return config
        return config.with_clusters(self.n_clusters)

    def result(self, name: str, n_pes: int = 8) -> BenchmarkResult:
        key = (name, n_pes)
        if key not in self._cache:
            result = self._load_result(name, n_pes)
            if result is None:
                result = run_benchmark(
                    name,
                    scale=self.scale,
                    n_pes=n_pes,
                    sim_config=self._sim_config(),
                    machine_config=MachineConfig(
                        n_pes=n_pes,
                        seed=self.seed,
                        gc_threshold_words=self.gc_threshold_words,
                    ),
                )
                self._traces[key] = result.trace
                self._store_trace(name, n_pes, result.trace, result)
            result.manifest["trace_cache_key"] = self.cache_key(name, n_pes)
            self._cache[key] = result
            if not result.machine.gc_marks:
                # Without collections the run's stats are a plain
                # replay of its trace under the base config.
                self._replays.setdefault(
                    (name, n_pes, self._sim_config()), result.stats
                )
        return self._cache[key]

    def _load_result(self, name: str, n_pes: int) -> Optional[BenchmarkResult]:
        """The run rebuilt from its cached machine record and a replay
        of its cached trace; None when either is missing or unreadable,
        or they disagree on the reference count."""
        path = self._cache_path(name, n_pes)
        if path is None:
            return None
        try:
            record = json.loads(path.with_suffix(RECORD_SUFFIX).read_text())
            fields = {field: record[field] for field in RECORD_FIELDS}
            answer = ast.literal_eval(record["answer"])
            source_lines = record["source_lines"]
        except (OSError, ValueError, SyntaxError, KeyError, TypeError):
            return None
        key = (name, n_pes)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._load_trace(name, n_pes)
        if trace is None or len(trace) != fields["memory_refs"]:
            return None
        self._traces[key] = trace
        logger.info("machine record hit: %s", self.cache_key(name, n_pes))
        config = self._sim_config()
        stats, network = replay_machine(trace, config, fields["gc_marks"])
        machine = MachineResult(
            answer=answer, stats=stats, trace=trace, network=network, **fields
        )
        return _benchmark_result(
            name, self.scale, n_pes, machine, source_lines, config, self.seed
        )

    def trace(self, name: str, n_pes: int = 8) -> TraceBuffer:
        key = (name, n_pes)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._load_trace(name, n_pes)
        if trace is None:
            trace = self.result(name, n_pes).trace
        self._traces[key] = trace
        return trace

    def _cache_path(self, name: str, n_pes: int) -> Optional[Path]:
        root = trace_cache_dir()
        if root is None:
            return None
        return root / (self.cache_key(name, n_pes) + ".trace")

    def _load_trace(self, name: str, n_pes: int) -> Optional[TraceBuffer]:
        path = self._cache_path(name, n_pes)
        if path is None or not path.exists():
            return None
        try:
            trace = read_trace(path)
            logger.info("trace cache hit: %s (%d refs)", path.name, len(trace))
            # Touch so LRU pruning sees this file as recently used.
            try:
                os.utime(path)
            except OSError:
                pass
            return trace
        except (TraceFormatError, OSError, EOFError):
            logger.warning("discarding unreadable cached trace %s", path)
            # A truncated or stale file is re-generated, never fatal.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _store_trace(
        self,
        name: str,
        n_pes: int,
        trace: TraceBuffer,
        result: Optional[BenchmarkResult] = None,
    ) -> None:
        """Cache *trace* and, written first, *result*'s machine record:
        a trace on disk always has the record it was stored with."""
        path = self._cache_path(name, n_pes)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if result is not None:
                record = json.dumps(_machine_record(result))
                _write_atomically(
                    path.with_suffix(RECORD_SUFFIX),
                    lambda tmp: Path(tmp).write_text(record),
                )
            _write_atomically(path, lambda tmp: write_trace(trace, tmp))
            logger.debug("trace cached: %s (%d refs)", path.name, len(trace))
            prune_trace_cache()  # keep the cache under its size cap
        except OSError:
            pass  # a read-only cache dir degrades to no caching

    def replay(
        self, name: str, config: SimulationConfig, n_pes: int = 8
    ) -> SystemStats:
        key = (name, n_pes, config)
        if key not in self._replays:
            self._replays[key] = replay(self.trace(name, n_pes), config)
        return self._replays[key]


def unoptimized_config() -> SimulationConfig:
    """The conventional-cache config used by Tables 2 and 3."""
    return SimulationConfig(opts=OptimizationConfig.none())
