"""Replay-kernel throughput (the BENCH_replay.json trajectory).

Runs the same workloads as ``python -m repro bench`` through the
pytest-benchmark harness and checks the structural claims — determinism
of the measured streams, parallel/serial result identity, and (where the
host has more than one CPU) the parallel sweep beating serial wall time.
Absolute refs/sec assertions stay out of the suite: they belong to the
bench report, which records the baseline alongside the measurement.
"""

from __future__ import annotations

import os
import time

from repro.analysis.bench import (
    hot_trace,
    measure_replay,
    run_bench,
    sweep_configs,
)
from repro.analysis.parallel import SweepPool, run_sweep
from repro.trace.synthetic import generate_random_trace


def test_hot_microbenchmark(benchmark, save_result):
    trace = hot_trace()

    rate, stats = benchmark.pedantic(
        lambda: measure_replay(trace, repeats=3), rounds=1, iterations=1
    )

    total = sum(sum(row) for row in stats.refs)
    hits = sum(sum(row) for row in stats.hits)
    save_result(
        "replay_throughput",
        f"hot microbenchmark: {rate:,.0f} refs/sec "
        f"(hit ratio {hits / total:.4f}, bus {stats.bus_cycles_total})",
    )
    # The stream is deterministic: same trace, same outcome, every run.
    assert len(trace) == 400_000
    assert hits / total > 0.97
    assert rate > 0


def test_random_stream_deterministic(benchmark):
    trace = generate_random_trace(50_000, n_pes=8, seed=42)
    first = measure_replay(trace, repeats=1)[1]
    second = benchmark.pedantic(
        lambda: measure_replay(trace, repeats=1)[1], rounds=1, iterations=1
    )
    assert first.bus_cycles_total == second.bus_cycles_total
    assert first.refs == second.refs
    assert first.hits == second.hits


def test_sweep_parallel_matches_serial(benchmark):
    trace = hot_trace(100_000)
    configs = sweep_configs()

    def run_study():
        start = time.perf_counter()
        serial = run_sweep(trace, configs, jobs=1)
        serial_time = time.perf_counter() - start
        # A warm pool, as bench_sweep times it: spawning the workers and
        # loading the trace into them is set-up, not sweep throughput.
        with SweepPool(trace, jobs=2) as pool:
            pool.warm()
            start = time.perf_counter()
            parallel = pool.map(configs)
            parallel_time = time.perf_counter() - start
        return serial_time, serial, parallel_time, parallel

    serial_time, serial, parallel_time, parallel = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    for left, right in zip(serial, parallel):
        assert left.refs == right.refs
        assert left.hits == right.hits
        assert left.pe_cycles == right.pe_cycles
        assert left.bus_cycles_total == right.bus_cycles_total
    if (os.cpu_count() or 1) >= 2:
        # Replay dominates the sweep, so two workers must beat one
        # whenever a second CPU exists to run them on.
        assert parallel_time < serial_time


def test_quick_bench_report():
    report = run_bench(quick=True, jobs=2, repeats=1)
    assert report["workloads"]["hot"]["speedup"] is not None
    assert report["sweep"]["results_identical"]
