"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Execute a named paper benchmark or an FGHC source file on the
    simulated machine and print the machine/cache summary.
``tables``
    Regenerate the paper's Tables 1-5.
``figures``
    Regenerate the paper's Figures 1-3 and the secondary sweeps.
``trace``
    Record a benchmark's reference stream to a file, or replay a trace
    file against a chosen cache geometry.
``listing``
    Show the compiled abstract-machine code of a program.
``bench``
    Measure replay throughput and sweep wall time, writing
    ``BENCH_replay.json``; ``--assert-overhead`` turns it into the
    no-sink overhead gate, and ``--compare`` diffs the run against the
    same-host ``BENCH_history.jsonl`` records (appending the new one)
    with a noise-aware regression threshold.
``metrics``
    Replay a benchmark or trace and print the cycle ledger — every PE
    cycle attributed to hit service, bus issue/wait/occupancy, lock
    spinning or network stalls, asserted to sum exactly to the PE
    clocks; ``--json`` emits the ``repro.obs/metrics/v1`` record,
    ``--openmetrics`` writes an OpenMetrics text exposition.
``sweep``
    Run a capacity sweep over worker processes with live fleet
    telemetry: ``--progress`` streams per-worker heartbeat lines, and
    the JSON report records the fleet summary in its manifest.
``profile``
    Replay a benchmark or trace file with the protocol probe attached
    and write the full observability bundle (Perfetto trace, windowed
    metrics, event stream, hotness histogram, manifest).
``events``
    Print (or export) the structured protocol event stream of a replay.
``protocols``
    List the registered coherence protocols, or render one spec's
    LOCKE-style transition table with ``--spec NAME``.
``compare``
    Replay one trace under several registered protocols and print the
    cross-protocol comparison table (``--json`` emits the
    schema-validated ``repro.obs/comparison/v1`` record instead).
``serve``
    The async simulation job service (``docs/SERVE.md``): ``submit``
    enqueues config + trace into a directory-backed ledger, ``run``
    drives queued jobs in supervised worker processes that checkpoint
    on chunk boundaries and retry from the last checkpoint when killed,
    ``status`` polls the ledger and windowed heartbeats, ``result``
    prints a finished job's stats + provenance manifest.
``cache``
    Inspect (``--stats``) or LRU-prune (``--prune``) the ``Workloads``
    disk trace cache (traces and their machine records); the size cap
    comes from
    ``REPRO_TRACE_CACHE_BYTES``.

``profile``, ``metrics``, ``sweep``, ``events``, ``compare`` and
``serve submit`` take one trace source: ``--benchmark NAME`` replays a
paper benchmark's trace (via the trace cache) on ``--pes`` PEs, 8 by
default; ``--trace FILE`` replays a recorded trace on the trace's own
PE count, which ``--pes`` may raise but not lower.  ``--pes 0`` means
the default of either.

``run``, ``compare`` and ``bench`` accept ``--clusters K`` to simulate
a hierarchical machine: K cluster buses joined by the
:mod:`repro.cluster` inter-cluster network.  Replay-driving commands
(and ``verify``) accept ``--interconnect`` to swap the coherence
transport between the snooping bus and the home-node directory
(``docs/INTERCONNECT.md``); ``repro protocols --spec NAME
--interconnect directory`` renders the derived directory table.

Global ``-v``/``-vv`` and ``-q`` control library logging (the
:mod:`repro.obs.log` hierarchy); they go before the subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.analysis import figures as figures_module
from repro.analysis import tables as tables_module
from repro.analysis.runner import Workloads, run_benchmark
from repro.core.config import (
    DEFAULT_BATCH_REFS,
    DEFAULT_SIGNATURE_BITS,
    MODES,
    BusConfig,
    CacheConfig,
    MachineConfig,
    OptimizationConfig,
    SimulationConfig,
    SpeculationConfig,
)
from repro.core.interconnect import interconnect_names, is_interconnect_registered
from repro.core.protocol import get_protocol, is_registered, protocol_names
from repro.core.replay import replay
from repro.machine.compiler import compile_program
from repro.machine.machine import KL1Machine
from repro.obs.log import configure as configure_logging
from repro.programs import SCALES
from repro.programs import names as benchmark_names
from repro.trace.io import read_trace, trace_header, write_trace

TABLES = {
    "1": tables_module.table1,
    "2": tables_module.table2,
    "3": tables_module.table3,
    "4": tables_module.table4,
    "5": tables_module.table5,
}

FIGURES = {
    "1": figures_module.figure1,
    "2": figures_module.figure2,
    "3": figures_module.figure3,
    "assoc": figures_module.associativity_sweep,
    "width": figures_module.bus_width_study,
    "details": figures_module.optimization_details,
}

#: PEs of an emulated run, and of a ``--benchmark`` trace source.
DEFAULT_PES = 8


class UsageError(Exception):
    """A rejected option or input: :func:`main` prints it as one
    ``error:`` line on stderr and exits 2."""


def _speculation(args) -> SpeculationConfig:
    """The coherence mode the mode options select (the default for a
    command without them); a refused value raises ``ValueError``."""
    if not hasattr(args, "mode"):
        return SpeculationConfig()
    return SpeculationConfig(args.mode, args.batch_refs, args.signature_bits)


def _sim_config(args, n_pes: int) -> SimulationConfig:
    """The machine the cache, protocol, cluster and mode options
    describe, on *n_pes* PEs; a value the config refuses is a
    :class:`UsageError`.

    ``compare`` takes a list of protocols instead of one; its base
    config keeps the default protocol.
    """
    clusters = getattr(args, "clusters", 1)
    try:
        config = SimulationConfig(
            cache=CacheConfig.from_capacity(
                args.capacity, block_words=args.block_words,
                associativity=args.ways,
            ),
            bus=BusConfig(width_words=args.bus_width),
            opts=OptimizationConfig.none() if args.no_opt else OptimizationConfig.all(),
            protocol=getattr(args, "protocol", "pim"),
            interconnect=args.interconnect,
            speculation=_speculation(args),
        )
        if clusters != 1:
            config = config.with_clusters(clusters, hop_cycles=args.hop_cycles)
    except ValueError as error:
        raise UsageError(str(error)) from None
    if n_pes % clusters:
        raise UsageError(
            f"--clusters {clusters} does not divide the {n_pes} PEs evenly"
        )
    return config


def _trace_source(args, load: bool = True):
    """Resolve the trace-source options into (trace, name, pes, key).

    ``--benchmark`` goes through the :class:`Workloads` trace cache
    (recording its cache key for the manifest) on ``--pes`` PEs, 8 by
    default.  ``--trace`` reads a recorded trace file and replays it on
    the trace's own PE count, which ``--pes`` may raise but not lower.
    ``--pes 0`` means the default of either.  With ``load=False`` a
    ``--trace`` stays a path and only its header is read.
    """
    if args.benchmark:
        pes = args.pes or DEFAULT_PES
        workloads = Workloads(scale=args.scale)
        return (
            workloads.trace(args.benchmark, pes),
            f"{args.benchmark}-{args.scale}-{pes}pe",
            pes,
            workloads.cache_key(args.benchmark, pes),
        )
    try:
        trace = read_trace(args.trace) if load else args.trace
        own = trace.n_pes if load else trace_header(args.trace).n_pes
    except OSError as error:
        raise UsageError(
            f"cannot read trace {args.trace}: {error.strerror or error}"
        ) from None
    pes = args.pes or own
    if pes < own:
        raise UsageError(
            f"--pes {pes} is fewer than the {own} PEs recorded in {args.trace}"
        )
    return trace, Path(args.trace).stem, pes, None


def _protocol_list(text: str) -> list:
    """The registered protocols a comma-separated ``--protocol`` names."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    unknown = [p for p in names if not is_registered(p)]
    if unknown:
        raise UsageError(f"unknown protocol(s) {', '.join(unknown)} "
                         f"(choose from {', '.join(protocol_names())})")
    return names


def _write_json(record: dict, validate, args, what: str) -> None:
    """Validate *record*, then write it to ``--output`` or print it."""
    validate(record)
    text = json.dumps(record, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"{what} written: {args.output}")
    else:
        print(text)


def _print_run_summary(result) -> None:
    machine = result if hasattr(result, "reductions") else result.machine
    print(f"answer:        {machine.answer}")
    print(f"reductions:    {machine.reductions:,}")
    print(f"suspensions:   {machine.suspensions:,}")
    print(f"instructions:  {machine.instructions:,}")
    print(f"memory refs:   {machine.memory_refs:,}")
    print(f"heap words:    {machine.heap_words:,}")
    print(f"per-PE load:   {machine.pe_reductions}")
    if machine.gc_collections:
        print(f"collections:   {machine.gc_collections} "
              f"({machine.gc_words_reclaimed:,} words reclaimed)")
    stats = machine.stats
    if stats is not None:
        print(f"miss ratio:    {stats.miss_ratio:.4f}")
        print(f"bus cycles:    {stats.bus_cycles_total:,}")
        print(f"sim cycles:    {stats.total_cycles:,}")
    network = getattr(machine, "network", None)
    if network is not None:
        print(f"clusters:      {network.n_clusters}  "
              f"net msgs: {network.messages:,}  "
              f"net stall: {network.stall_cycles:,} cycles")


def cmd_run(args) -> int:
    machine_config = MachineConfig(
        n_pes=args.pes, seed=args.seed, gc_threshold_words=args.gc
    )
    config = _sim_config(args, args.pes)
    # The machine's replay runs per access; a lazypim config replays
    # the recorded trace below.
    machine_sim = config.with_mode("pessimistic")
    if args.program in benchmark_names():
        result = run_benchmark(
            args.program,
            scale=args.scale,
            n_pes=args.pes,
            sim_config=machine_sim,
            machine_config=machine_config,
        )
        print(f"benchmark {args.program!r} at scale {args.scale!r} "
              f"on {args.pes} PEs  [answer verified]")
    else:
        path = Path(args.program)
        if not path.exists():
            raise UsageError(f"{args.program!r} is neither a benchmark "
                             f"({', '.join(benchmark_names())}) nor a file")
        if not args.query:
            raise UsageError("running a source file requires --query")
        result = KL1Machine(path.read_text(), machine_config, machine_sim).run(
            args.query
        )
    _print_run_summary(result)
    if args.mode == "lazypim":
        # Speculation is a property of the recorded reference stream:
        # the run's own statistics come from a per-access (pessimistic)
        # replay of its trace, then the same trace is replayed
        # speculatively (docs/SPECULATIVE.md).
        stats = replay(result.trace, config)
        print(f"speculative replay ({args.mode}) of the recorded trace:")
        print(f"  commits:    {stats.batch_commits:,}   "
              f"rollbacks: {stats.batch_rollbacks:,}")
        print(f"  settles:    {stats.signature_settles:,}   "
              f"elided invalidations: {stats.batch_elided_invalidations:,}")
        print(f"  bus cycles: {stats.bus_cycles_total:,}")
    if args.output:
        write_trace(result.trace, args.output)
        print(f"trace written: {args.output} ({len(result.trace):,} refs)")
    return 0


def cmd_artifacts(args) -> int:
    """``tables`` and ``figures``: render the ``--which`` entries of
    :data:`TABLES` or :data:`FIGURES`."""
    registry = TABLES if args.command == "tables" else FIGURES
    which = args.which.split(",") if args.which else list(registry)
    unknown = [key for key in which if key not in registry]
    if unknown:
        raise UsageError(f"unknown {args.command[:-1]} {unknown[0]!r} "
                         f"(choose from {', '.join(registry)})")
    workloads = Workloads(scale=args.scale)
    for key in which:
        print(registry[key](workloads).render())
        print()
    return 0


def cmd_trace(args) -> int:
    if args.trace_command == "record":
        result = run_benchmark(args.benchmark, scale=args.scale, n_pes=args.pes)
        write_trace(result.trace, args.output)
        print(f"{args.benchmark}/{args.scale} on {args.pes} PEs: "
              f"{len(result.trace):,} refs -> {args.output}")
        return 0
    buffer = read_trace(args.file)
    stats = replay(buffer, _sim_config(args, buffer.n_pes))
    print(f"replayed {stats.total_refs:,} refs from {args.file}")
    print(f"miss ratio:  {stats.miss_ratio:.4f}")
    print(f"bus cycles:  {stats.bus_cycles_total:,}")
    print(f"swap-ins:    {stats.swap_ins:,}   swap-outs: {stats.swap_outs:,}")
    print(f"c2c:         {stats.c2c_transfers:,}")
    if args.mode == "lazypim":
        print(f"commits:     {stats.batch_commits:,}   "
              f"rollbacks: {stats.batch_rollbacks:,}")
        print(f"settles:     {stats.signature_settles:,}   "
              f"elided invalidations: {stats.batch_elided_invalidations:,}")
    return 0


def cmd_cache(args) -> int:
    from repro.analysis.runner import prune_trace_cache, trace_cache_stats

    if args.prune:
        stats = prune_trace_cache(args.max_bytes)
        print(f"pruned: {stats['removed']} trace(s), "
              f"{stats['removed_bytes']:,} bytes reclaimed")
    else:
        stats = trace_cache_stats()
    if not stats["enabled"]:
        print("trace cache: disabled (REPRO_TRACE_CACHE=off)")
        return 0
    limit = stats["limit_bytes"]
    print(f"trace cache: {stats['dir']}")
    print(f"  files:  {stats['files']}")
    print(f"  bytes:  {stats['total_bytes']:,}")
    print(f"  limit:  {'unbounded' if limit == 0 else f'{limit:,}'}"
          "  (REPRO_TRACE_CACHE_BYTES)")
    return 0


def cmd_serve(args) -> int:
    from repro.obs.schema import SchemaError
    from repro.serve.jobs import JobError, JobStore
    from repro.trace.io import TraceFormatError

    # A rejected option, a malformed trace file or an unreadable ledger
    # record is a usage error, reported as one line rather than a
    # traceback.
    try:
        return _serve(args, JobStore(args.store))
    except (JobError, SchemaError, TraceFormatError) as error:
        raise UsageError(str(error)) from None


def _serve(args, store) -> int:
    from repro.serve.jobs import JobServer

    if args.serve_command == "submit":
        # A --trace file is submitted as its path: the store copies it.
        trace, _, pes, _ = _trace_source(args, load=False)
        job_id = store.submit(
            _sim_config(args, pes),
            trace,
            n_pes=pes,
            chunk_refs=args.chunk,
            checkpoint_every=args.checkpoint_every,
            max_retries=args.max_retries,
            seed=args.seed,
        )
        record = store.job(job_id)
        print(f"submitted: {job_id}")
        print(f"  trace:  {record['trace']} ({record['n_pes']} PEs)")
        print(f"  chunks: {record['chunk_refs']:,} refs, checkpoint every "
              f"{record['checkpoint_every']}, {record['max_retries']} retries")
        return 0
    if args.serve_command == "run":
        server = JobServer(store)
        if args.job:
            finished = [server.run_job(args.job)["id"]]
        else:
            finished = server.run_pending()
        if not finished:
            print("no queued or checkpointed jobs")
            return 0
        failed = 0
        for job_id in finished:
            record = store.job(job_id)
            line = f"{job_id}: {record['state']}"
            if record["retries"]:
                line += f" (retries: {record['retries']})"
            if record["state"] == "failed":
                failed += 1
                line += f" — {record['error']['detail']}"
            print(line)
        return 1 if failed else 0
    if args.serve_command == "status":
        records = [store.job(args.job)] if args.job else store.jobs()
        if not records:
            print("no jobs submitted")
            return 0
        for record in records:
            print(f"{record['id']}: {record['state']} "
                  f"(retries {record['retries']}/{record['max_retries']})")
            if record["error"]:
                print(f"  error: [{record['error']['kind']}] "
                      f"{record['error']['detail']}")
            beats = store.heartbeats(record["id"])
            if beats:
                last = beats[-1]
                total = last["refs_total"] or 0
                done = last["refs_done"]
                pct = f" ({100 * done / total:.1f}%)" if total else ""
                print(f"  progress: {done:,}/{total:,} refs{pct}, "
                      f"window miss ratio {last['miss_ratio']:.4f}, "
                      f"{len(beats)} heartbeat(s)")
        return 0
    # result
    record = store.job(args.job)
    result = store.result(args.job)
    if result is None:
        print(f"error: job {args.job!r} has no result yet "
              f"(state: {record['state']})", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_listing(args) -> int:
    if args.program in benchmark_names():
        from repro.programs import get

        source = get(args.program).source
    else:
        path = Path(args.program)
        if not path.exists():
            raise UsageError(f"no such benchmark or file: {args.program!r}")
        source = path.read_text()
    print(compile_program(source).listing())
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    report = generate_report(scale=args.scale)
    if args.output:
        Path(args.output).write_text(report.text)
        print(f"report written: {args.output}")
    else:
        print(report.text)
    if report.failed:
        print(f"error: claims failed: {', '.join(report.failed)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    from repro.analysis import bench

    if args.repeats is not None and args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    if args.jobs is not None and args.jobs < 2:
        raise UsageError("--jobs must be at least 2 (the sweep is timed "
                         "against a serial jobs=1 run)")
    if args.clusters < 2 or 8 % args.clusters != 0:
        raise UsageError("--clusters must be 2, 4 or 8 (the clustered "
                         "section shards the 8-PE hot trace)")
    # The previously written report (if any) is the no-sink-overhead
    # reference; read it before write_report replaces it.
    recorded = None
    recorded_path = Path(args.output)
    if recorded_path.exists():
        try:
            recorded = json.loads(recorded_path.read_text())
        except (OSError, ValueError):
            recorded = None
    if args.assert_overhead is not None and recorded is None:
        raise UsageError(f"--assert-overhead needs an existing recorded "
                         f"report at {args.output}")
    try:
        config = SimulationConfig(interconnect=args.interconnect,
                                  speculation=_speculation(args))
    except ValueError as error:
        raise UsageError(str(error)) from None
    report = bench.run_bench(
        quick=args.quick,
        jobs=args.jobs,
        repeats=args.repeats,
        recorded=recorded,
        overhead_bound=(
            args.assert_overhead if args.assert_overhead is not None else 0.95
        ),
        clusters=args.clusters,
        config=config,
    )
    print(bench.format_report(report))
    path = bench.write_report(report, args.output)
    print(f"benchmark report written: {path}")
    regressed = False
    if args.history or args.compare:
        from repro.analysis import history as history_module

        history_path = args.history or history_module.DEFAULT_HISTORY
        record = history_module.history_record(report)
        if args.compare:
            # Compare against what's already there, then append — the
            # fresh run must not be its own baseline.
            prior = history_module.load_history(history_path)
            comparison = history_module.compare_to_history(record, prior)
            print(history_module.format_comparison(comparison))
            regressed = comparison["regressed"]
        history_module.append_history(record, history_path)
        print(f"bench history appended: {history_path}")
    if args.assert_overhead is not None:
        overhead = report.get("no_sink_overhead") or {}
        if not overhead.get("within_bound", False):
            print(f"error: no-sink overhead bound violated: worst ratio "
                  f"{overhead.get('min_ratio')} < {args.assert_overhead}",
                  file=sys.stderr)
            return 1
    if args.assert_sweep:
        sweep = report.get("sweep") or {}
        speedup = sweep.get("parallel_speedup")
        if speedup == "skipped":
            # Explicitly recorded as untimeable (single usable CPU);
            # identity was still checked, so there is nothing to fail.
            print("note: sweep speedup assertion skipped "
                  f"({sweep.get('skip_reason', 'single usable CPU')})")
        elif not isinstance(speedup, (int, float)) or speedup < 1.0:
            print(f"error: sweep parallel_speedup {speedup} < 1.0 — the "
                  f"persistent pool must not lose to serial on a "
                  f"multi-CPU host", file=sys.stderr)
            return 1
    if regressed:
        print("error: bench regressed against the same-host history "
              "(see the comparison above)", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    from repro.obs.profile import profile_trace, write_profile

    buffer, name, pes, cache_key = _trace_source(args)
    result = profile_trace(
        buffer,
        config=_sim_config(args, pes),
        n_pes=pes,
        window=args.window,
        event_capacity=args.events,
        top_blocks=args.top,
        trace_cache_key=cache_key,
    )
    paths = write_profile(result, args.out_dir, name)
    stats = result.stats
    print(f"profiled {stats.total_refs:,} refs on {pes} PEs "
          f"in {result.wall_seconds:.2f}s")
    busy = (stats.bus_cycles_total / stats.total_cycles
            if stats.total_cycles else 0.0)
    print(f"miss ratio:  {stats.miss_ratio:.4f}   "
          f"bus utilization: {busy:.4f}")
    dropped = (f" ({result.events_dropped:,} dropped)"
               if result.events_dropped else "")
    print(f"events:      {result.events_emitted:,} emitted{dropped}, "
          f"{len(result.windows)} windows of {args.window:,} refs")
    for kind in ("trace", "windows", "events", "hotness", "manifest"):
        print(f"  {kind:>9}: {paths[kind]}")
    print("open the .trace.json in https://ui.perfetto.dev "
          "(or chrome://tracing)")
    return 0


def cmd_metrics(args) -> int:
    import time

    from repro.cluster.replay import replay_clustered
    from repro.obs.metrics import (
        MetricsRegistry,
        cycle_ledger,
        format_ledger,
        metrics_record,
        write_openmetrics,
    )
    from repro.obs.manifest import build_manifest
    from repro.obs.schema import validate_metrics

    buffer, name, pes, cache_key = _trace_source(args)
    config = _sim_config(args, pes)
    started = time.perf_counter()
    clustered = replay_clustered(buffer, config, n_pes=pes)
    wall = time.perf_counter() - started
    ledger = cycle_ledger(
        clustered.stats,
        network=clustered.network if clustered.n_clusters > 1 else None,
    )
    if args.openmetrics:
        registry = MetricsRegistry()
        ledger.to_registry(
            registry,
            source=name,
            protocol=config.protocol,
        )
        path = write_openmetrics(registry, args.openmetrics)
        print(f"openmetrics written: {path}")
    if args.json or args.output:
        record = metrics_record(
            ledger,
            manifest=build_manifest(
                config=config,
                trace_cache_key=cache_key,
                wall_seconds=round(wall, 3),
                command="metrics",
                extra={"kind": "metrics", "source": name, "refs": len(buffer),
                       "n_pes": pes},
            ),
        )
        _write_json(record, validate_metrics, args, "metrics")
        return 0
    print(f"cycle ledger for {name} ({len(buffer):,} refs, {pes} PEs, "
          f"{config.protocol})")
    print(format_ledger(ledger))
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis.parallel import default_jobs, run_sweep_report
    from repro.obs.telemetry import SweepTelemetry, format_heartbeat

    if args.points < 1:
        raise UsageError("--points must be at least 1")
    buffer, name, pes, cache_key = _trace_source(args)
    configs = [
        SimulationConfig(
            cache=CacheConfig(n_sets=64 << i), protocol=args.protocol
        )
        for i in range(args.points)
    ]
    jobs = args.jobs if args.jobs is not None else default_jobs()
    on_heartbeat = None
    if args.progress:
        def on_heartbeat(record):
            print(format_heartbeat(record), flush=True)
    telemetry = SweepTelemetry(
        interval_seconds=args.interval,
        chunk_refs=args.chunk,
        on_heartbeat=on_heartbeat,
    )
    report = run_sweep_report(
        buffer,
        configs,
        jobs=jobs,
        trace_cache_key=cache_key,
        telemetry=telemetry,
    )
    summary = report["manifest"]["extra"]["telemetry"]
    print(f"sweep of {name}: {len(configs)} points x {len(buffer):,} refs "
          f"on {min(jobs, len(configs))} worker(s) "
          f"in {report['wall_seconds']:.2f}s")
    print(f"telemetry: {summary['heartbeats']} heartbeats, "
          f"{summary['points_completed']} points completed, "
          f"{summary['stall_events']} stall warnings")
    for config, point in zip(configs, report["points"]):
        stats = point["stats"]
        print(f"  {config.cache.n_sets:>5} sets: "
              f"miss ratio {stats['miss_ratio']:.4f}, "
              f"bus {stats['bus_cycles_total']:,} cycles "
              f"[{point['config_hash']}]")
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"sweep report written: {args.output}")
    return 0


def cmd_events(args) -> int:
    from repro.obs.events import EVENT_KIND_NAMES
    from repro.obs.probe import ProtocolProbe
    from repro.obs.sink import CollectorSink, write_events_jsonl
    from repro.obs.windows import windowed_replay

    buffer, name, pes, _ = _trace_source(args)
    sink = CollectorSink()
    windowed_replay(
        buffer, _sim_config(args, pes), n_pes=pes, probe=ProtocolProbe(sink)
    )
    events = sink.events
    if args.kind:
        wanted = {k.strip().lower() for k in args.kind.split(",")}
        unknown = wanted - set(EVENT_KIND_NAMES)
        if unknown:
            raise UsageError(f"unknown event kind(s) "
                             f"{', '.join(sorted(unknown))} "
                             f"(choose from {', '.join(EVENT_KIND_NAMES)})")
        events = [e for e in events if EVENT_KIND_NAMES[e.kind] in wanted]
    if args.output:
        path = write_events_jsonl(events, args.output)
        print(f"{len(events):,} events written: {path}")
        return 0
    shown = events if args.limit <= 0 else events[: args.limit]
    for event in shown:
        print(event.format())
    if len(shown) < len(events):
        print(f"... {len(events) - len(shown):,} more "
              f"(raise --limit or use -o to export all)")
    return 0


def cmd_protocols(args) -> int:
    from repro.analysis.formatting import format_table

    if args.spec:
        try:
            spec = get_protocol(args.spec)
        except KeyError as error:
            raise UsageError(error.args[0]) from None
        print(spec.render_table())
        if args.interconnect == "directory":
            from repro.core.protocol import build_directory_spec

            print()
            print(build_directory_spec(spec).render_table())
        print()
        print(spec.description)
        return 0
    rows = []
    for name in protocol_names():
        summary = get_protocol(name).summary()
        rows.append((
            summary["name"],
            summary["title"],
            summary["write_policy"],
            "yes" if summary["write_allocate"] else "no",
            ",".join(summary["silent_store_states"]) or "-",
            "yes" if summary["dirty_transfer_copyback"] else "no",
        ))
    print(format_table(
        ("name", "title", "write policy", "allocate",
         "silent stores", "dirty c2c copyback"),
        rows,
        title="Registered coherence protocols "
              "(`repro protocols --spec NAME` for the transition table)",
    ))
    return 0


def cmd_compare(args) -> int:
    from repro.analysis.protocols import (
        comparison_report,
        format_protocol_comparison,
        protocol_comparison,
    )
    from repro.obs.schema import validate_comparison

    protocols = _protocol_list(args.protocols) if args.protocols else None
    buffer, name, pes, cache_key = _trace_source(args)
    base = _sim_config(args, pes)
    comparison = protocol_comparison(buffer, base, protocols, n_pes=pes)
    if args.json or args.output:
        report = comparison_report(
            comparison,
            base=base,
            extra={"source": name, "refs": len(buffer), "pes": pes,
                   "trace_cache_key": cache_key, "mode": args.mode},
        )
        _write_json(report, validate_comparison, args, "comparison")
        return 0
    print(format_protocol_comparison(
        comparison,
        title=f"Cross-protocol comparison on {name} "
              f"({len(buffer):,} refs, {pes} PEs)",
    ))
    return 0


def cmd_verify(args) -> int:
    import time

    from repro.obs.manifest import build_manifest
    from repro.obs.schema import VERIFY_SCHEMA, validate_verify
    from repro.verify import ModelCheckOptions, check_protocol, run_fuzz
    from repro.verify.model import broken_demo_spec

    if args.all and args.protocol:
        raise UsageError("--all and --protocol are mutually exclusive")
    names = (
        _protocol_list(args.protocol) if args.protocol
        else list(protocol_names())
    )
    try:
        cluster_counts = tuple(
            int(k) for k in args.clusters.split(",") if k.strip()
        )
    except ValueError:
        raise UsageError(f"--clusters expects comma-separated integers, "
                         f"got {args.clusters!r}") from None

    started = time.time()
    results = []
    fuzz_report = None
    clean = True
    try:
        if args.demo_broken:
            # Demonstrate the counterexample printer on a spec whose
            # supplier table drops a dirty state without copyback.
            results.append(check_protocol(broken_demo_spec()))
            clean = results[-1].clean  # False by construction
        else:
            if not args.fuzz_only:
                options = ModelCheckOptions(
                    n_pes=args.pes,
                    n_blocks=args.blocks,
                    block_words=args.words,
                    max_states=args.max_states,
                    interconnect=args.interconnect or "bus",
                )
                for name in names:
                    result = check_protocol(name, options)
                    results.append(result)
                    clean = clean and result.clean
            if args.fuzz or args.fuzz_only:
                modes = MODES if args.mode == "both" else (args.mode,)
                fuzz_report = run_fuzz(
                    seed=args.seed,
                    budget=args.budget,
                    n_pes=args.fuzz_pes,
                    refs_per_case=args.refs_per_case,
                    cluster_counts=cluster_counts,
                    protocols=names if args.protocol else None,
                    interconnect=args.interconnect,
                    modes=modes,
                )
                clean = clean and fuzz_report.clean
    except ValueError as error:
        raise UsageError(str(error)) from None
    wall = time.time() - started

    if args.json or args.output:
        report = {
            "schema": VERIFY_SCHEMA,
            "clean": clean,
            "model_check": [r.as_dict() for r in results] or None,
            "fuzz": fuzz_report.as_dict() if fuzz_report else None,
            "manifest": build_manifest(
                seed=args.seed,
                wall_seconds=wall,
                command="verify",
                extra={"kind": "verify"},
            ),
        }
        _write_json(report, validate_verify, args, "verification report")
        return 0 if clean else 1
    for result in results:
        print(result.render())
    if fuzz_report is not None:
        print(fuzz_report.render())
    verdict = "clean" if clean else "FAILED"
    print(f"verify: {verdict} in {wall:.1f}s")
    return 0 if clean else 1


def _pe_count(minimum: int):
    """An argparse type: a PE count of at least *minimum*."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"a PE count must be at least {minimum}, not {value}"
            )
        return value

    parse.__name__ = "PE count"  # argparse names the type in errors
    return parse


def _group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An option group: a help-less parser that subcommands inherit
    through ``parents=``.  Options show in the order they were added,
    parents' first, so ``_group(own, shared)`` puts *shared* after the
    options already in *own*."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _command(commands, name: str, handler, *groups, **kwargs):
    """Add subcommand *name*, made of *groups* in order, run by *handler*."""
    parser = commands.add_parser(name, parents=list(groups), **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIM coherent cache reproduction (ISCA 1989)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="library log level: -v INFO, -vv DEBUG "
                             "(goes before the subcommand)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")
    commands = parser.add_subparsers(dest="command", required=True)

    # The option groups the subcommands share, each declared once.
    scale = _group()
    scale.add_argument("--scale", default="small", choices=SCALES)
    machine = _group(scale)
    machine.add_argument("--pes", type=_pe_count(1), default=DEFAULT_PES)
    # The trace source, resolved by _trace_source.
    source = _group()
    one_source = source.add_mutually_exclusive_group(required=True)
    one_source.add_argument("--benchmark", choices=list(benchmark_names()),
                            help="replay a paper benchmark's trace "
                                 "(via the trace cache)")
    one_source.add_argument("--trace", help="replay a recorded trace file")
    source = _group(source, scale)
    source.add_argument("--pes", type=_pe_count(0), default=None,
                        help="PE count (default 8 with --benchmark, the "
                             "trace's own with --trace; 0 means the default)")
    geometry = _group()
    geometry.add_argument("--capacity", type=int, default=4096,
                          help="cache data capacity in words (default 4096)")
    geometry.add_argument("--block-words", type=int, default=4,
                          help="cache block size in words (default 4)")
    geometry.add_argument("--ways", type=int, default=4,
                          help="set associativity (default 4)")
    geometry.add_argument("--bus-width", type=int, default=1,
                          help="bus width in words (default 1)")
    protocol = _group()
    protocol.add_argument("--protocol", default="pim",
                          choices=list(protocol_names()),
                          help="registered coherence protocol "
                               "(see `repro protocols`)")
    # The paper's commands on or off, and the coherence transport.
    transport = _group()
    transport.add_argument("--no-opt", action="store_true",
                           help="demote DW/ER/RP/RI to plain reads and "
                                "writes")
    transport.add_argument("--interconnect", default="bus",
                           help="registered interconnect backend "
                                "(see `repro protocols`; default bus)")
    cache = _group(geometry, protocol, transport)
    clusters = _group()
    clusters.add_argument("--clusters", type=int, default=1,
                          help="partition the PEs into K clusters joined by "
                               "an inter-cluster network (default 1: one bus)")
    clusters.add_argument("--hop-cycles", type=int, default=4,
                          help="inter-cluster latency per ring hop "
                               "(default 4; needs --clusters > 1)")
    mode = _group()
    mode.add_argument("--mode", default="pessimistic", choices=list(MODES),
                      help="coherence execution mode: per-access "
                           "(pessimistic, the default) or speculative "
                           "batch coherence (lazypim; docs/SPECULATIVE.md)")
    mode.add_argument("--batch-refs", type=int, default=DEFAULT_BATCH_REFS,
                      help="lazypim: references per speculative batch "
                           "(default 256)")
    mode.add_argument("--signature-bits", type=int,
                      default=DEFAULT_SIGNATURE_BITS,
                      help="lazypim: read/write signature width in bits, "
                           "a power of two (default 256)")

    run = _group()
    run.add_argument("program",
                     help="benchmark name (tri/semi/puzzle/pascal) or .fghc path")
    run.add_argument("--query", help="query goal for source files")
    run = _group(run, machine)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--gc", type=int, default=None,
                     help="per-PE heap words triggering stop-and-copy GC")
    run.add_argument("--output", "-o",
                     help="write the trace to a file (with --gc it carries "
                          "no collection points: replaying it alone never "
                          "flushes the caches)")
    _command(commands, "run", cmd_run, run, cache, clusters, mode,
             help="run a benchmark or an FGHC source file")

    _command(commands, "tables", cmd_artifacts, scale,
             help="regenerate Tables 1-5",
             ).add_argument("--which", help="comma-separated subset, e.g. 2,4")
    _command(commands, "figures", cmd_artifacts, scale,
             help="regenerate Figures 1-3 and sweeps",
             ).add_argument("--which", help="comma-separated subset of "
                                            + ",".join(FIGURES))

    trace_parser = commands.add_parser("trace", help="record or replay traces")
    trace_commands = trace_parser.add_subparsers(dest="trace_command",
                                                 required=True)
    record = _command(trace_commands, "record", cmd_trace, machine)
    record.add_argument("benchmark", choices=list(benchmark_names()))
    record.add_argument("--output", "-o", required=True)
    _command(trace_commands, "replay", cmd_trace, cache, mode).add_argument(
        "file"
    )

    serve_parser = commands.add_parser(
        "serve",
        help="the async simulation job service: submit jobs to a "
             "directory-backed ledger, run them in supervised workers "
             "that checkpoint and survive being killed, poll status "
             "and fetch results (docs/SERVE.md)",
    )
    serve_parser.add_argument("--store", default="serve",
                              help="job-store directory (default ./serve)")
    serve_commands = serve_parser.add_subparsers(dest="serve_command",
                                                 required=True)
    submit = _group(source)
    submit.add_argument("--chunk", type=int, default=8192,
                        help="references per replay chunk — the "
                             "heartbeat cadence (default 8192)")
    submit.add_argument("--checkpoint-every", type=int, default=4,
                        help="chunks between checkpoints (default 4)")
    submit.add_argument("--max-retries", type=int, default=2,
                        help="worker deaths tolerated before the job "
                             "fails (default 2)")
    submit.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the provenance manifest")
    _command(serve_commands, "submit", cmd_serve, submit, cache, clusters,
             mode, help="enqueue one simulation (config + trace)")
    _command(serve_commands, "run", cmd_serve,
             help="run queued/checkpointed jobs under the supervisor",
             ).add_argument("job", nargs="?",
                            help="one job id (default: all pending)")
    _command(serve_commands, "status", cmd_serve,
             help="show the ledger (or one job's progress)",
             ).add_argument("job", nargs="?",
                            help="one job id (default: all jobs)")
    _command(serve_commands, "result", cmd_serve,
             help="print a finished job's result record",
             ).add_argument("job")

    cache_parser = _command(
        commands, "cache", cmd_cache,
        help="inspect or prune the Workloads disk trace cache",
    )
    cache_parser.add_argument("--stats", action="store_true",
                              help="print cache occupancy (the default "
                                   "action, spelled out for scripts)")
    cache_parser.add_argument("--prune", action="store_true",
                              help="evict least-recently-used traces "
                                   "until the cache fits the limit")
    cache_parser.add_argument("--max-bytes", type=int, default=None,
                              help="with --prune, override the limit "
                                   "(default REPRO_TRACE_CACHE_BYTES)")

    _command(commands, "listing", cmd_listing,
             help="show a program's compiled abstract-machine code",
             ).add_argument("program")

    _command(commands, "report", cmd_report, scale,
             help="regenerate the full experiment report and check the "
                  "paper's claims (exit 1 if one fails)",
             ).add_argument("--output", "-o",
                            help="write to a file instead of stdout")

    bench = _group()
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads, no emulated trace "
                            "(CI smoke mode)")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker count for the parallel sweep "
                            "(default: min(4, cpus), at least 2)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="repeats per measurement "
                            "(default: 5, or 3 with --quick)")
    bench.add_argument("--output", "-o", default="BENCH_replay.json",
                       help="report path (default BENCH_replay.json)")
    bench.add_argument("--assert-overhead", type=float, nargs="?",
                       const=0.95, default=None, metavar="RATIO",
                       help="fail (exit 1) if any workload's refs/sec "
                            "drops below RATIO (default 0.95) of the "
                            "recorded report at --output")
    bench.add_argument("--assert-sweep", action="store_true",
                       help="fail (exit 1) if the persistent-pool "
                            "sweep is slower than serial "
                            "(parallel_speedup < 1.0) on a "
                            "multi-CPU host")
    bench.add_argument("--clusters", type=int, default=2,
                       help="cluster count for the clustered-replay "
                            "section (default 2)")
    bench.add_argument("--interconnect", default="bus",
                       help="interconnect backend the replay "
                            "measurements run under (default bus)")
    bench.add_argument("--compare", action="store_true",
                       help="diff this run against the same-host "
                            "bench history (noise-aware threshold) "
                            "before appending it; exit 1 on "
                            "regression")
    bench.add_argument("--history", metavar="PATH", default=None,
                       help="history JSONL path (default "
                            "BENCH_history.jsonl; appended whenever "
                            "given or --compare is set)")
    _command(commands, "bench", cmd_bench, bench, mode,
             help="measure replay throughput and sweep wall time")

    profile = _group(source)
    profile.add_argument("--window", type=int, default=4096,
                         help="references per metrics window "
                              "(default 4096)")
    profile.add_argument("--events", type=int, default=65536,
                         help="event ring capacity; oldest events "
                              "drop past this (default 65536)")
    profile.add_argument("--top", type=int, default=20,
                         help="blocks kept in the hotness report "
                              "(default 20)")
    profile.add_argument("--out-dir", default="profile",
                         help="artifact directory (default ./profile)")
    _command(commands, "profile", cmd_profile, profile, cache,
             help="replay with the protocol probe attached and write the "
                  "observability bundle")

    metrics = _group(source)
    metrics.add_argument("--json", action="store_true",
                         help="emit the schema-validated "
                              "repro.obs/metrics/v1 JSON instead of "
                              "the table")
    metrics.add_argument("--output", "-o",
                         help="write the JSON record to a file "
                              "(implies --json)")
    metrics.add_argument("--openmetrics", metavar="PATH",
                         help="also write an OpenMetrics text "
                              "exposition of the ledger")
    _command(commands, "metrics", cmd_metrics, metrics, cache, clusters,
             help="replay and print the cycle ledger (every PE cycle "
                  "attributed, sums checked against the PE clocks)")

    sweep = _group(source)
    sweep.add_argument("--points", type=int, default=4,
                       help="capacity points, doubling set counts "
                            "from 64 (default 4)")
    sweep = _group(sweep, protocol)
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per "
                            "usable CPU; 1 = in-process)")
    sweep.add_argument("--progress", action="store_true",
                       help="print a line per worker heartbeat")
    sweep.add_argument("--interval", type=float, default=0.5,
                       help="seconds between worker heartbeats "
                            "(default 0.5)")
    sweep.add_argument("--chunk", type=int, default=32768,
                       help="references per worker replay chunk — "
                            "the heartbeat check cadence "
                            "(default 32768)")
    sweep.add_argument("--output", "-o",
                       help="write the JSON sweep report "
                            "(points + telemetry manifest)")
    _command(commands, "sweep", cmd_sweep, sweep,
             help="run a capacity sweep over worker processes with live "
                  "fleet telemetry")

    events = _group(source)
    events.add_argument("--kind",
                        help="comma-separated filter: transition, bus, "
                             "demotion, purge, lock")
    events.add_argument("--limit", type=int, default=50,
                        help="events printed (0 = all; default 50)")
    events.add_argument("--output", "-o",
                        help="write JSONL instead of printing")
    _command(commands, "events", cmd_events, events, cache,
             help="print or export a replay's protocol event stream")

    protocols_parser = _command(
        commands, "protocols", cmd_protocols,
        help="list the registered coherence protocols",
    )
    protocols_parser.add_argument("--spec", metavar="NAME",
                                  help="render one protocol's transition "
                                       "table instead of the listing")
    protocols_parser.add_argument("--interconnect", default="bus",
                                  help="with --spec, 'directory' also "
                                       "renders the derived home-node "
                                       "directory table (default bus)")

    compare = _group(source)
    compare.add_argument("--protocol", dest="protocols", metavar="A,B,...",
                         help="comma-separated protocols to compare "
                              "(default: every registered protocol)")
    compare.add_argument("--json", action="store_true",
                         help="emit the schema-validated "
                              "repro.obs/comparison/v1 JSON instead "
                              "of the table")
    compare.add_argument("--output", "-o",
                         help="write the JSON comparison to a file "
                              "(implies --json)")
    _command(commands, "compare", cmd_compare, compare, geometry, transport,
             clusters, mode,
             help="replay one trace under several protocols and compare")

    verify = _command(
        commands, "verify", cmd_verify,
        help="model-check the protocol specs and differentially fuzz "
             "every replay path against a flat-memory oracle",
    )
    verify.add_argument("--all", action="store_true",
                        help="model-check every registered protocol "
                             "(the default; spelled out for scripts)")
    verify.add_argument("--protocol", metavar="A,B,...",
                        help="comma-separated protocols to verify "
                             "(default: every registered protocol)")
    verify.add_argument("--fuzz", action="store_true",
                        help="also run the differential fuzzer "
                             "after model checking")
    verify.add_argument("--fuzz-only", action="store_true",
                        help="skip model checking, only fuzz")
    verify.add_argument("--seed", type=int, default=0,
                        help="fuzzer base seed (default 0)")
    verify.add_argument("--budget", type=int, default=10_000,
                        help="fuzzer reference budget "
                             "(default 10000)")
    verify.add_argument("--pes", type=int, default=2,
                        help="model-check PE count (default 2)")
    verify.add_argument("--blocks", type=int, default=1,
                        help="model-check blocks per cache "
                             "(default 1)")
    verify.add_argument("--words", type=int, default=2,
                        help="model-check words per block, a power "
                             "of two (default 2)")
    verify.add_argument("--max-states", type=int, default=200_000,
                        help="abort the state enumeration past this "
                             "many states (default 200000)")
    verify.add_argument("--fuzz-pes", type=int, default=4,
                        help="fuzzer PE count (default 4)")
    verify.add_argument("--refs-per-case", type=int, default=2_000,
                        help="references per fuzz case "
                             "(default 2000)")
    verify.add_argument("--clusters", default="1,2",
                        metavar="K,K,...",
                        help="cluster counts the fuzzer cross-checks "
                             "(default 1,2)")
    verify.add_argument("--interconnect", default=None,
                        help="force one interconnect backend in "
                             "both the model check and the fuzzer "
                             "(default: check the bus, rotate the "
                             "fuzz variants)")
    verify.add_argument("--mode", default="pessimistic",
                        choices=[*MODES, "both"],
                        help="execution mode(s) the fuzzer rotates "
                             "over — 'lazypim' adds the speculative "
                             "batch-coherence cases including a "
                             "forced-conflict rollback drill "
                             "(default pessimistic)")
    verify.add_argument("--demo-broken", action="store_true",
                        help="model-check a deliberately broken pim "
                             "variant and print its counterexample "
                             "(exits 1)")
    verify.add_argument("--json", action="store_true",
                        help="emit the schema-validated "
                             "repro.obs/verify/v1 JSON instead of "
                             "text")
    verify.add_argument("--output", "-o",
                        help="write the JSON report to a file "
                             "(implies --json)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    try:
        # Every subcommand that takes --interconnect shares one friendly
        # unknown-name error (mirrors the unknown-protocol message).
        backend = getattr(args, "interconnect", None)
        if backend is not None and not is_interconnect_registered(backend):
            raise UsageError(f"unknown interconnect {backend!r} "
                             f"(choose from {', '.join(interconnect_names())})")
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``): stop quietly.
        # Standard output now points at devnull, so the flush at exit
        # has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
