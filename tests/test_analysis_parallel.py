"""Parallel sweep executor and trace disk cache tests."""

import multiprocessing
import os
import tempfile

import pytest

from repro.analysis.parallel import (
    SweepPool,
    default_jobs,
    run_sweep,
)
from repro.analysis.runner import Workloads, trace_cache_dir
from repro.core.config import CacheConfig, SimulationConfig
from repro.core.replay import replay
from repro.trace.io import write_trace
from repro.trace.synthetic import generate_random_trace


def _sweep_points():
    return [
        SimulationConfig(cache=CacheConfig(n_sets=n_sets))
        for n_sets in (64, 128, 256)
    ]


def _assert_identical(left, right):
    assert left.refs == right.refs
    assert left.hits == right.hits
    assert left.pe_cycles == right.pe_cycles
    assert left.bus_cycles_total == right.bus_cycles_total
    assert left.pattern_cycles == right.pattern_cycles
    assert left.command_counts == right.command_counts


class TestRunSweep:
    def test_parallel_matches_serial_bit_for_bit(self):
        trace = generate_random_trace(4000, n_pes=4, seed=9)
        configs = _sweep_points()
        serial = run_sweep(trace, configs, jobs=1)
        parallel = run_sweep(trace, configs, jobs=2)
        assert len(serial) == len(parallel) == len(configs)
        for left, right in zip(serial, parallel):
            _assert_identical(left, right)

    def test_accepts_trace_path(self, tmp_path):
        trace = generate_random_trace(2000, n_pes=2, seed=5)
        path = tmp_path / "sweep.trace"
        write_trace(trace, path)
        configs = _sweep_points()[:2]
        from_path = run_sweep(path, configs, jobs=2)
        from_buffer = run_sweep(trace, configs, jobs=1)
        for left, right in zip(from_path, from_buffer):
            _assert_identical(left, right)

    def test_serial_path_input(self, tmp_path):
        trace = generate_random_trace(500, n_pes=2, seed=5)
        path = tmp_path / "one.trace"
        write_trace(trace, path)
        (stats,) = run_sweep(path, [SimulationConfig()], jobs=1)
        _assert_identical(stats, replay(trace, SimulationConfig()))

    def test_empty_configs(self):
        trace = generate_random_trace(100, n_pes=2, seed=5)
        assert run_sweep(trace, [], jobs=4) == []


class TestDefaultJobs:
    def test_respects_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() == 1


class TestSweepPool:
    def test_serial_mode_below_two_jobs(self):
        trace = generate_random_trace(400, n_pes=2, seed=3)
        with SweepPool(trace, jobs=1) as pool:
            assert pool.kind == "serial"
            pool.warm()  # no-op, must not raise
            (stats,) = pool.map([SimulationConfig()])
        _assert_identical(stats, replay(trace, SimulationConfig()))

    def test_persistent_pool_matches_serial(self):
        trace = generate_random_trace(1500, n_pes=2, seed=4)
        configs = _sweep_points()
        with SweepPool(trace, jobs=2) as pool:
            assert pool.kind == "persistent"
            pool.warm()
            first = pool.map(configs)
            second = pool.map(configs)  # the pool survives between sweeps
        serial = run_sweep(trace, configs, jobs=1)
        for left, mid, right in zip(first, second, serial):
            _assert_identical(left, right)
            _assert_identical(mid, right)

    def test_close_leaves_no_worker_process(self):
        trace = generate_random_trace(300, n_pes=2, seed=5)
        pool = SweepPool(trace, jobs=2)
        assert pool.kind == "persistent" and len(pool.pids) == 2
        assert {child.pid for child in multiprocessing.active_children()} == set(
            pool.pids
        )
        pool.close()
        assert pool.pids == []
        assert multiprocessing.active_children() == []

    def test_reuses_trace_file_without_copying(self, tmp_path, monkeypatch):
        trace = generate_random_trace(600, n_pes=2, seed=6)
        path = tmp_path / "pool.trace"
        write_trace(trace, path)

        def no_temp_copy(*args, **kwargs):
            raise AssertionError("the pool wrote a temp copy of its trace")

        monkeypatch.setattr(tempfile, "mkstemp", no_temp_copy)
        with SweepPool(path, jobs=2) as pool:
            (stats,) = pool.map([SimulationConfig()])
        _assert_identical(stats, replay(trace, SimulationConfig()))

    def test_run_sweep_serves_from_open_pool(self):
        trace = generate_random_trace(800, n_pes=2, seed=7)
        configs = _sweep_points()[:2]
        with SweepPool(trace, jobs=2) as pool:
            pool.warm()
            pooled = run_sweep(trace, configs, pool=pool)
        serial = run_sweep(trace, configs, jobs=1)
        for left, right in zip(pooled, serial):
            _assert_identical(left, right)


class TestTraceDiskCache:
    def test_cache_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert trace_cache_dir() == tmp_path
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert trace_cache_dir() is None
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert trace_cache_dir() is None

    def test_trace_round_trips_through_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = Workloads(scale="tiny")
        trace = first.trace("pascal", 2)
        files = list(tmp_path.glob("v*-pascal-tiny-2pe-seed1.trace"))
        assert len(files) == 1
        # A fresh Workloads (fresh process in real life) must load the
        # cached file instead of re-emulating.
        second = Workloads(scale="tiny")
        reloaded = second.trace("pascal", 2)
        assert list(reloaded) == list(trace)
        assert ("pascal", 2) not in second._cache  # no emulation happened

    def test_corrupt_cache_file_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        workloads = Workloads(scale="tiny")
        trace = workloads.trace("pascal", 2)
        (path,) = tmp_path.glob("*.trace")
        path.write_bytes(b"PIMTRACE\ngarbage")
        fresh = Workloads(scale="tiny")
        regenerated = fresh.trace("pascal", 2)
        assert list(regenerated) == list(trace)
        assert ("pascal", 2) in fresh._cache  # re-emulated

    def test_disabled_cache_still_works(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        workloads = Workloads(scale="tiny")
        assert len(workloads.trace("pascal", 2)) > 0


class TestRunSweepReport:
    def test_report_carries_manifest_and_fingerprints(self):
        from repro.analysis.parallel import run_sweep_report
        from repro.obs.manifest import config_fingerprint
        from repro.obs.schema import validate_manifest

        trace = generate_random_trace(1500, n_pes=4, seed=5)
        configs = _sweep_points()
        report = run_sweep_report(
            trace, configs, jobs=1, trace_cache_key="unit-test-key"
        )
        validate_manifest(report["manifest"])
        assert report["manifest"]["trace_cache_key"] == "unit-test-key"
        assert report["manifest"]["extra"]["n_points"] == len(configs)
        assert len(report["points"]) == len(configs)
        for config, point in zip(configs, report["points"]):
            assert point["config_hash"] == config_fingerprint(config)
            assert point["stats"]["refs"] == replay(trace, config).as_dict()["refs"]

    def test_report_points_match_serial_replay(self):
        from repro.analysis.parallel import run_sweep_report

        trace = generate_random_trace(800, n_pes=2, seed=6)
        configs = _sweep_points()
        report = run_sweep_report(trace, configs, jobs=1)
        for config, point in zip(configs, report["points"]):
            assert point["stats"] == replay(trace, config).as_dict()

    def test_empty_sweep_yields_well_formed_report(self):
        # Regression: an empty config list used to crash on configs[0]
        # when building the manifest.  It must produce a schema-valid
        # report with zero points instead.
        from repro.analysis.parallel import run_sweep_report
        from repro.obs.schema import validate_manifest

        trace = generate_random_trace(200, n_pes=2, seed=8)
        report = run_sweep_report(trace, [], jobs=4)
        validate_manifest(report["manifest"])
        assert report["points"] == []
        assert report["manifest"]["extra"]["n_points"] == 0
        assert report["manifest"]["config"] is None
        assert report["wall_seconds"] >= 0


class TestBenchSections:
    def test_sweep_section_skips_on_single_cpu(self, monkeypatch):
        import repro.analysis.bench as bench

        monkeypatch.setattr(bench, "default_jobs", lambda: 1)
        trace = generate_random_trace(600, n_pes=2, seed=9)
        section = bench.bench_sweep(
            trace, _sweep_points()[:2], jobs=4, repeats=1
        )
        assert section["pool"] == "persistent"
        assert section["jobs_requested"] == 4
        assert section["jobs"] == 1
        assert section["host_cpus_usable"] == 1
        assert section["parallel_speedup"] == "skipped"
        assert section["wall_seconds_parallel"] is None
        assert "skip_reason" in section
        # The pooled path's identity with serial is still checked.
        assert section["results_identical"] is True

    def test_sweep_section_records_job_ladder(self, monkeypatch):
        import repro.analysis.bench as bench

        monkeypatch.setattr(bench, "default_jobs", lambda: 2)
        trace = generate_random_trace(600, n_pes=2, seed=10)
        section = bench.bench_sweep(
            trace, _sweep_points()[:2], jobs=8, repeats=1
        )
        assert section["jobs"] == 2  # clamped by (mocked) usable CPUs
        assert set(section["wall_seconds_by_jobs"]) == {"2"}
        assert isinstance(section["parallel_speedup"], float)
        assert section["results_identical"] is True


class TestNoSinkOverhead:
    def test_comparison_intersects_workloads(self):
        from repro.analysis.bench import compare_no_sink_overhead

        fresh = {"workloads": {
            "hot": {"refs_per_sec": 980},
            "random": {"refs_per_sec": 300},
            "new_only": {"refs_per_sec": 10},
        }}
        recorded = {"workloads": {
            "hot": {"refs_per_sec": 1000},
            "random": {"refs_per_sec": 250},
            "old_only": {"refs_per_sec": 99},
        }}
        result = compare_no_sink_overhead(fresh, recorded, bound=0.95)
        assert set(result["workloads"]) == {"hot", "random"}
        assert result["workloads"]["hot"]["ratio"] == 0.98
        assert result["min_ratio"] == 0.98
        assert result["within_bound"] is True

    def test_comparison_flags_violation(self):
        from repro.analysis.bench import compare_no_sink_overhead

        fresh = {"workloads": {"hot": {"refs_per_sec": 700}}}
        recorded = {"workloads": {"hot": {"refs_per_sec": 1000}}}
        result = compare_no_sink_overhead(fresh, recorded, bound=0.95)
        assert result["min_ratio"] == 0.7
        assert result["within_bound"] is False

    def test_no_shared_workloads_passes_vacuously(self):
        from repro.analysis.bench import compare_no_sink_overhead

        result = compare_no_sink_overhead(
            {"workloads": {"a": {"refs_per_sec": 1}}},
            {"workloads": {"b": {"refs_per_sec": 1}}},
        )
        assert result["min_ratio"] is None
        assert result["within_bound"] is True
