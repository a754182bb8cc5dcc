"""Differential fuzzing of every replay path against a flat memory.

One fuzz *case* takes a contract-respecting random trace
(:func:`~repro.trace.synthetic.generate_contract_trace`) and runs it
through every execution path the repository has, holding them to two
standards:

* **values** — every read must return exactly what a flat
  word-granularity memory (:class:`~repro.verify.reference.FlatMemory`)
  predicts, on the per-access system (``track_data=True``) and, for
  multi-cluster configurations, on the interleaved clustered system
  with one flat memory per cluster (clusters share nothing);
* **counters** — the generated (:mod:`repro.core.protocol.codegen`)
  replay kernel, a checkpointed mid-run resume, the checked
  per-access loop, the sharded cluster replay and the interleaved
  cluster replay must produce bit-identical statistics (which also
  pins down that ``track_data`` is counter-neutral).

Any mismatch raises :class:`Divergence`; the fuzz driver then shrinks
the trace with :func:`~repro.verify.shrink.shrink_trace` until the
divergence fits in a screenful and records the reduced reference list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.replay import replay_clustered, replay_interleaved, split_trace
from repro.cluster.system import ClusterCacheSystem
from repro.core.config import (
    CacheConfig,
    OptimizationConfig,
    SimulationConfig,
)
from repro.core.protocol import protocol_names
from repro.core.replay import ReplayBlockedError, replay, replay_access_driven
from repro.core.speculative import plan_batches, replay_speculative
from repro.core.system import PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_NAMES, OP_NAMES
from repro.trace.synthetic import (
    generate_contract_trace,
    generate_false_sharing_trace,
)
from repro.verify.reference import (
    READ_VALUE_OPS,
    WRITE_OPS,
    FlatMemory,
    value_for,
)
from repro.verify.shrink import shrink_trace

__all__ = [
    "Divergence",
    "FuzzCase",
    "FuzzReport",
    "run_case",
    "run_fuzz",
    "run_lazypim_case",
]

#: Invariant-check period for the checked replay passes.
_CHECK_EVERY = 256


class Divergence(Exception):
    """Two execution paths (or a path and the flat model) disagreed."""

    def __init__(self, kind: str, detail: str, index: Optional[int] = None):
        self.kind = kind
        self.detail = detail
        self.index = index
        at = f" at trace index {index}" if index is not None else ""
        super().__init__(f"[{kind}]{at}: {detail}")


def _render_refs(buffer: TraceBuffer) -> List[str]:
    """Human-readable reference list for a (shrunken) trace."""
    pe_col, op_col, area_col, addr_col, flags_col = buffer.columns()
    return [
        f"PE{pe} {OP_NAMES[op]:<2} {AREA_NAMES[area]}[{addr:#x}]"
        + (" contended" if flags else "")
        for pe, op, area, addr, flags in zip(
            pe_col, op_col, area_col, addr_col, flags_col
        )
    ]


def _dict_diff(label_a: str, a: dict, label_b: str, b: dict) -> str:
    """Readable summary of where two stats dictionaries differ."""
    diffs = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            diffs.append(f"{key}: {label_a}={va!r} {label_b}={vb!r}")
    return "; ".join(diffs[:6]) + ("; …" if len(diffs) > 6 else "")


def _flat_checker(memories: Dict[int, FlatMemory], pes_per_cluster: int):
    """An ``on_result`` hook holding reads to per-cluster flat memories."""

    def on_result(index, pe, op, area, addr, result):
        memory = memories.setdefault(pe // pes_per_cluster, FlatMemory())
        if op in WRITE_OPS:
            memory.write(addr, value_for(index))
        elif op in READ_VALUE_OPS:
            expected = memory.read(addr)
            actual = result[2]
            if actual != expected:
                raise Divergence(
                    "value",
                    f"PE{pe} {OP_NAMES[op]} {AREA_NAMES[area]}[{addr:#x}] "
                    f"returned {actual!r}, flat model predicts {expected}",
                    index,
                )

    return on_result


def run_case(
    trace: TraceBuffer,
    config: SimulationConfig,
    n_pes: int,
    cluster_counts: Sequence[int] = (1, 2),
    check_every: int = _CHECK_EVERY,
) -> int:
    """Run one trace through every execution path; raise on divergence.

    Paths exercised: (1) per-access ``PIMCacheSystem`` with data
    tracking and the flat-memory value check, (2) the generated
    (``codegen``) replay kernel, (2c) a snapshot/restore mid-run
    resume that must equal
    the uninterrupted run in both counters and full machine state,
    (3) the checked per-access loop with periodic
    ``check_invariants()``, and (4) for each cluster count the sharded
    fast-kernel replay against the interleaved clustered replay (with a
    per-cluster value pass for multi-cluster runs).  Returns the number
    of references replayed, summed over paths.
    """
    base = replace(config, track_data=False)
    data_config = replace(config, track_data=True)
    refs = 0

    # (1) Value pass: the real system against the flat model.
    system = PIMCacheSystem(data_config, n_pes)
    flat_stats = replay_access_driven(
        trace,
        system,
        values=value_for,
        on_result=_flat_checker({}, n_pes),
    )
    flat = flat_stats.as_dict()
    refs += len(trace)

    # (2) Generated kernel, no data tracking: counters must be
    # identical.  The system is kept: the checkpoint pass (2c) compares
    # full machine state against this uninterrupted run.
    fast_system = PIMCacheSystem(base, n_pes)
    fast = replay(trace, system=fast_system).as_dict()
    refs += len(trace)
    if fast != flat:
        raise Divergence(
            "kernel-stats",
            "generated kernel disagrees with the per-access system: "
            + _dict_diff("kernel", fast, "access", flat),
        )

    # (2c) Checkpoint identity: replay a prefix, snapshot through a
    # JSON round trip (exactly what crossing a process boundary does),
    # restore, replay the suffix.  Both the counters and the complete
    # machine state — cache lines, LRU clocks, lock directories,
    # directory entries, interconnect timeline — must equal the
    # uninterrupted run's.
    if len(trace) >= 2:
        import json

        from repro.serve.checkpoint import restore, snapshot

        mid = len(trace) // 2
        prefix_system = PIMCacheSystem(base, n_pes)
        replay(trace, system=prefix_system, stop=mid)
        checkpoint = json.loads(json.dumps(snapshot(prefix_system)))
        resumed_system = restore(checkpoint)
        resumed = replay(trace, system=resumed_system, start=mid).as_dict()
        refs += len(trace)
        if resumed != flat:
            raise Divergence(
                "checkpoint-stats",
                "snapshot/restore mid-run changed the counters: "
                + _dict_diff("resumed", resumed, "uninterrupted", flat),
            )
        if snapshot(resumed_system) != snapshot(fast_system):
            raise Divergence(
                "checkpoint-state",
                "snapshot/restore mid-run changed machine state (cache "
                "lines, lock directories, directory entries, or clocks)",
            )

    # (3) Checked per-access loop with the structural invariant battery.
    try:
        checked = replay(
            trace, base, n_pes=n_pes, check_invariants_every=check_every
        ).as_dict()
    except AssertionError as error:
        raise Divergence("invariant", str(error)) from error
    refs += len(trace)
    if checked != flat:
        raise Divergence(
            "checked-stats",
            "checked replay disagrees with the per-access system: "
            + _dict_diff("checked", checked, "access", flat),
        )

    # (4) Cluster paths.
    for n_clusters in cluster_counts:
        if n_pes % n_clusters:
            continue
        clustered_config = base.with_clusters(n_clusters)
        sharded = replay_clustered(
            trace, clustered_config, n_pes=n_pes
        ).as_dict()
        refs += len(trace)
        try:
            interleaved = replay_interleaved(
                trace,
                clustered_config,
                n_pes=n_pes,
                check_invariants_every=check_every,
            )
        except AssertionError as error:
            raise Divergence(
                "invariant", f"K={n_clusters}: {error}"
            ) from error
        refs += len(trace)
        if sharded != interleaved.as_dict():
            raise Divergence(
                "cluster-paths",
                f"K={n_clusters} sharded vs interleaved: "
                + _dict_diff("sharded", sharded, "interleaved",
                             interleaved.as_dict()),
            )
        if n_clusters == 1 and interleaved.stats.as_dict() != flat:
            raise Divergence(
                "cluster-flat",
                "K=1 clustered replay disagrees with the flat system: "
                + _dict_diff(
                    "clustered", interleaved.stats.as_dict(), "flat", flat
                ),
            )
        if n_clusters > 1:
            # Per-cluster value pass: clusters share nothing, so each
            # gets its own flat memory.
            replay_interleaved(
                trace,
                replace(clustered_config, track_data=True),
                n_pes=n_pes,
                values=value_for,
                on_result=_flat_checker({}, n_pes // n_clusters),
            )
            refs += len(trace)
    return refs


def run_lazypim_case(
    trace: TraceBuffer,
    config: SimulationConfig,
    n_pes: int,
    cluster_counts: Sequence[int] = (1, 2),
    check_every: int = _CHECK_EVERY,
    require_rollback: bool = False,
) -> int:
    """Run one trace through every speculative path; raise on divergence.

    The LazyPIM counterpart of :func:`run_case`: *config* runs as the
    LazyPIM config with its batch knobs, whatever its mode.  Paths
    exercised: (1) the per-access speculative driver with data tracking
    and the flat-memory value check — every read inside every batch
    (including a rolled-back batch's pessimistic re-execution) must
    match the flat model, which is exactly the "rollbacks are
    invisible" oracle; (1b) final-memory identity against a
    pessimistic replay after a full writeback; (2) the generated
    kernel driving the batches, counter-identical; (2c) two ranges
    split at a :func:`~repro.core.speculative.plan_batches` boundary
    and replayed into one system must reproduce the monolithic run bit
    for bit; (3) the checked loop with the
    invariant battery at batch boundaries; (4) sharded clustered replay
    per cluster count, with a per-shard value pass for multi-cluster
    runs (speculation is per-bus, so each
    cluster batches independently; there is no interleaved speculative
    path).  With *require_rollback* the case additionally fails unless
    at least one batch actually rolled back — the forced-conflict fuzz
    rotation uses it so a silently-too-weak conflict generator cannot
    pass.  Returns the number of references replayed, summed over paths.
    """
    config = config.with_mode("lazypim")
    base = replace(config, track_data=False)
    data_config = replace(config, track_data=True)
    refs = 0

    # (1) Value pass: the speculative driver against the flat model.
    system = PIMCacheSystem(data_config, n_pes)
    flat_stats = replay_speculative(
        trace,
        system=system,
        values=value_for,
        on_result=_flat_checker({}, n_pes),
    )
    flat = flat_stats.as_dict()
    refs += len(trace)
    if require_rollback and flat_stats.batch_rollbacks == 0:
        raise Divergence(
            "no-rollback",
            f"forced-conflict trace committed all "
            f"{flat_stats.batch_commits} batches without a single "
            "rollback — the conflict generator is too weak",
        )

    # (1b) Rollback invisibility in final state: after a full
    # writeback, the speculative run's memory image must equal a
    # pessimistic replay's.
    reference_system = PIMCacheSystem(data_config, n_pes)
    replay_access_driven(trace, reference_system, values=value_for)
    refs += len(trace)
    system.flush_all(silent=True)
    reference_system.flush_all(silent=True)
    if system.memory != reference_system.memory:
        raise Divergence(
            "lazypim-memory",
            "speculative final memory differs from the pessimistic "
            "replay's after writeback — a rollback leaked state",
        )

    # (2) Generated kernel driving the batches: counters must be
    # identical to the per-access driver.
    generated = replay(trace, base, n_pes=n_pes).as_dict()
    refs += len(trace)
    if generated != flat:
        raise Divergence(
            "lazypim-kernel",
            "speculative generated kernel disagrees with the "
            "per-access driver: "
            + _dict_diff("kernel", generated, "access", flat),
        )

    # (2c) Range composability: replaying the trace as two ranges
    # split at a batch boundary into one system must reproduce the
    # monolithic run (the property a streamed or checkpointed
    # speculative job leans on when its chunks end on batch
    # boundaries).
    spans = plan_batches(trace, config.speculation.batch_refs)
    if len(spans) >= 2:
        split = spans[len(spans) // 2][0]
        ranged_system = PIMCacheSystem(base, n_pes)
        for lo, hi in ((0, split), (split, len(trace))):
            replay_speculative(
                trace, system=ranged_system, start=lo, stop=hi
            )
        ranged = ranged_system.stats.as_dict()
        refs += len(trace)
        if ranged != flat:
            raise Divergence(
                "lazypim-ranged",
                f"speculative replay split at batch boundary {split} "
                "disagrees with the monolithic run: "
                + _dict_diff("ranged", ranged, "monolithic", flat),
            )

    # (3) Checked loop: structural invariants at batch boundaries.
    try:
        checked = replay_speculative(
            trace,
            base,
            n_pes=n_pes,
            check_invariants_every=check_every,
        ).as_dict()
    except AssertionError as error:
        raise Divergence("invariant", str(error)) from error
    refs += len(trace)
    if checked != flat:
        raise Divergence(
            "lazypim-checked",
            "checked speculative replay disagrees with the per-access "
            "driver: " + _dict_diff("checked", checked, "access", flat),
        )

    # (4) Clustered speculation: each shard batches independently.
    for n_clusters in cluster_counts:
        if n_pes % n_clusters:
            continue
        clustered_config = base.with_clusters(n_clusters)
        sharded = replay_clustered(trace, clustered_config, n_pes=n_pes)
        refs += len(trace)
        if n_clusters == 1 and sharded.stats.as_dict() != flat:
            raise Divergence(
                "lazypim-cluster",
                "K=1 speculative clustered replay disagrees with the "
                "flat system: "
                + _dict_diff("clustered", sharded.stats.as_dict(),
                             "flat", flat),
            )
        if n_clusters > 1:
            # Per-shard value pass: clusters share nothing, so each
            # shard is a closed trace with its own flat memory (and its
            # own shard-local value function — self-consistent).
            pes_per_cluster = n_pes // n_clusters
            shards = split_trace(trace, n_pes, n_clusters)
            for cluster_index, shard in enumerate(shards):
                shard_system = ClusterCacheSystem(
                    replace(clustered_config, track_data=True),
                    pes_per_cluster,
                    cluster_index,
                )
                replay_speculative(
                    shard,
                    system=shard_system,
                    values=value_for,
                    on_result=_flat_checker({}, pes_per_cluster),
                )
                refs += len(shard)
    return refs


@dataclass
class FuzzCase:
    """Outcome of one fuzz case."""

    protocol: str
    variant: str
    seed: int
    n_refs: int
    refs_run: int
    ok: bool
    kind: Optional[str] = None
    detail: Optional[str] = None
    index: Optional[int] = None
    shrunk_refs: Optional[List[str]] = None
    mode: str = "pessimistic"

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "variant": self.variant,
            "mode": self.mode,
            "seed": self.seed,
            "n_refs": self.n_refs,
            "refs_run": self.refs_run,
            "ok": self.ok,
            "kind": self.kind,
            "detail": self.detail,
            "index": self.index,
            "shrunk_refs": self.shrunk_refs,
        }


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    seed: int
    budget: int
    n_pes: int
    cluster_counts: Tuple[int, ...]
    cases: List[FuzzCase] = field(default_factory=list)

    @property
    def refs_total(self) -> int:
        return sum(case.n_refs for case in self.cases)

    @property
    def divergences(self) -> List[FuzzCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def clean(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = []
        for case in self.cases:
            status = "ok" if case.ok else f"DIVERGED [{case.kind}]"
            label = f"{case.protocol}/{case.variant}"
            if case.mode != "pessimistic":
                label = f"{case.protocol}/{case.mode}-{case.variant}"
            lines.append(
                f"{label} seed={case.seed} ({case.n_refs} refs): {status}"
            )
            if not case.ok:
                lines.append(f"  {case.detail}")
                for ref in case.shrunk_refs or []:
                    lines.append(f"  {ref}")
        verdict = "clean" if self.clean else (
            f"{len(self.divergences)} divergence(s)"
        )
        lines.append(
            f"fuzz: {len(self.cases)} case(s), {self.refs_total} references, "
            f"{self.n_pes} PEs, clusters {list(self.cluster_counts)} "
            f"— {verdict}"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "n_pes": self.n_pes,
            "cluster_counts": list(self.cluster_counts),
            "cases": [case.as_dict() for case in self.cases],
            "refs_total": self.refs_total,
            "clean": self.clean,
        }


def _variants(protocol: str) -> Dict[str, SimulationConfig]:
    """The four configurations each protocol is fuzzed under."""
    base = SimulationConfig(protocol=protocol)
    return {
        "base": base,
        # Four one-way sets: constant eviction and victim-copyback load.
        "small": base.with_cache(
            CacheConfig(block_words=4, n_sets=4, associativity=1)
        ),
        # Every optimized command demoted: the conventional-cache paths.
        "no_opt": base.with_opts(OptimizationConfig.none()),
        # Home-node directory backend: same protocol, point-to-point
        # resolution; every divergence oracle must still hold.
        "directory": base.with_interconnect("directory"),
    }


def _reproduces(
    kind: str,
    config: SimulationConfig,
    n_pes: int,
    cluster_counts: Sequence[int],
):
    """Shrinking predicate: does the candidate still diverge the same way?"""

    def predicate(candidate: TraceBuffer) -> bool:
        try:
            if config.speculation.mode == "lazypim":
                run_lazypim_case(candidate, config, n_pes, cluster_counts)
            else:
                run_case(candidate, config, n_pes, cluster_counts)
        except Divergence as divergence:
            return divergence.kind == kind
        except ReplayBlockedError:
            return False  # shrinking broke lock order; candidate invalid
        return False

    return predicate


def run_fuzz(
    seed: int = 0,
    budget: int = 10_000,
    n_pes: int = 4,
    refs_per_case: int = 2_000,
    cluster_counts: Sequence[int] = (1, 2),
    protocols: Optional[Sequence[str]] = None,
    shrink: bool = True,
    max_shrink_evals: int = 128,
    interconnect: Optional[str] = None,
    modes: Sequence[str] = ("pessimistic",),
) -> FuzzReport:
    """Fuzz every replay path until *budget* references have been run.

    Cases rotate over every registered protocol (or *protocols*) and the
    configuration variants of :func:`_variants` (including the
    directory-interconnect backend); each case draws a
    fresh contract trace from a seed derived deterministically from
    *seed* and the case number, so a report is reproducible from its
    ``(seed, budget)`` alone.  Divergent traces are shrunk (bounded by
    *max_shrink_evals* predicate evaluations) and the reduced reference
    list is attached to the case record.

    With ``"lazypim"`` in *modes*, the rotation additionally covers the
    speculative path (:func:`run_lazypim_case`): per protocol a
    forced-conflict case on a false-sharing trace (which must observe
    at least one rollback — see
    :func:`~repro.trace.synthetic.generate_false_sharing_trace`), a
    contract-trace case on the bus backend, and one on the directory
    backend.  The forced-conflict combos are ordered first so every
    fuzz budget, however small, exercises a real rollback.
    """
    names = list(protocols) if protocols else protocol_names()
    combos = []
    if "lazypim" in modes:
        # Conflict cases first: any budget covers at least one rollback.
        for protocol in names:
            base = SimulationConfig(protocol=protocol).with_mode("lazypim")
            combos.append((protocol, "conflict", base))
        for protocol in names:
            base = SimulationConfig(protocol=protocol).with_mode("lazypim")
            combos.append((protocol, "base", base))
            combos.append(
                (protocol, "directory", base.with_interconnect("directory"))
            )
    if "pessimistic" in modes:
        combos.extend(
            (protocol, variant, config)
            for protocol in names
            for variant, config in _variants(protocol).items()
        )
    if not combos:
        raise ValueError(f"no known mode in {list(modes)!r}")
    if interconnect is not None:
        # Force every variant onto one backend (the CLI's
        # ``--interconnect``); the dedicated "directory" variant is
        # dropped since it would duplicate a forced base.
        combos = [
            (protocol, variant, config.with_interconnect(interconnect))
            for protocol, variant, config in combos
            if variant != "directory"
        ]
    report = FuzzReport(
        seed=seed,
        budget=budget,
        n_pes=n_pes,
        cluster_counts=tuple(cluster_counts),
    )
    case_number = 0
    while report.refs_total < budget:
        protocol, variant, config = combos[case_number % len(combos)]
        mode = config.speculation.mode
        case_seed = seed + 7919 * case_number  # distinct, reproducible
        forced_conflict = mode == "lazypim" and variant == "conflict"
        if forced_conflict:
            trace = generate_false_sharing_trace(
                refs_per_case, n_pes=n_pes, seed=case_seed
            )
        else:
            trace = generate_contract_trace(
                refs_per_case, n_pes=n_pes, seed=case_seed, opts=config.opts
            )
        try:
            if mode == "lazypim":
                refs_run = run_lazypim_case(
                    trace, config, n_pes, cluster_counts,
                    require_rollback=forced_conflict,
                )
            else:
                refs_run = run_case(trace, config, n_pes, cluster_counts)
            report.cases.append(FuzzCase(
                protocol=protocol,
                variant=variant,
                seed=case_seed,
                n_refs=len(trace),
                refs_run=refs_run,
                ok=True,
                mode=mode,
            ))
        except Divergence as divergence:
            shrunk_refs = None
            if shrink:
                reduced = shrink_trace(
                    trace,
                    _reproduces(
                        divergence.kind, config, n_pes, cluster_counts
                    ),
                    max_evals=max_shrink_evals,
                )
                shrunk_refs = _render_refs(reduced)
            report.cases.append(FuzzCase(
                protocol=protocol,
                variant=variant,
                seed=case_seed,
                n_refs=len(trace),
                refs_run=len(trace),
                ok=False,
                kind=divergence.kind,
                detail=divergence.detail,
                index=divergence.index,
                shrunk_refs=shrunk_refs,
                mode=mode,
            ))
        case_number += 1
    return report
