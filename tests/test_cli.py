"""CLI tests (in-process, via repro.cli.main)."""

import re

import pytest

from repro.cli import main
from repro.core.protocol import protocol_names


def test_run_benchmark(capsys):
    assert main(["run", "pascal", "--scale", "tiny", "--pes", "2"]) == 0
    out = capsys.readouterr().out
    assert "answer verified" in out
    assert "'Sum': 2048" in out
    assert "bus cycles" in out


def test_run_benchmark_unoptimized_protocol_options(capsys):
    assert main([
        "run", "pascal", "--scale", "tiny", "--pes", "2",
        "--no-opt", "--protocol", "illinois", "--block-words", "8",
        "--capacity", "2048",
    ]) == 0
    assert "miss ratio" in capsys.readouterr().out


def test_run_source_file(tmp_path, capsys):
    source = tmp_path / "double.fghc"
    source.write_text("double(X, Y) :- Y := X * 2.\n")
    assert main(["run", str(source), "--query", "double(21, Y)", "--pes", "2"]) == 0
    assert "'Y': 42" in capsys.readouterr().out


def test_run_source_file_requires_query(tmp_path, capsys):
    source = tmp_path / "p.fghc"
    source.write_text("p(1).\n")
    assert main(["run", str(source)]) == 2
    assert "--query" in capsys.readouterr().err


def test_run_unknown_program(capsys):
    assert main(["run", "nonexistent"]) == 2
    assert "neither a benchmark" in capsys.readouterr().err


def test_run_with_gc(capsys):
    assert main([
        "run", "puzzle", "--scale", "tiny", "--pes", "2", "--gc", "500",
    ]) == 0
    assert "collections:" in capsys.readouterr().out


def test_trace_record_and_replay(tmp_path, capsys):
    trace_file = tmp_path / "t.trace"
    assert main([
        "trace", "record", "pascal", "--scale", "tiny", "--pes", "2",
        "-o", str(trace_file),
    ]) == 0
    assert trace_file.exists()
    assert main(["trace", "replay", str(trace_file), "--ways", "1"]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out
    assert "miss ratio" in out


def test_run_writes_trace(tmp_path, capsys):
    trace_file = tmp_path / "run.trace"
    assert main([
        "run", "pascal", "--scale", "tiny", "--pes", "2",
        "-o", str(trace_file),
    ]) == 0
    assert trace_file.exists()


def test_clustered_run_reports_its_trace_replayed_per_cluster(
    tmp_path, capsys
):
    """``run --clusters 2`` prints the network summary, and its bus
    cycles are those of a clustered replay of the trace it wrote."""
    from repro.cluster.replay import replay_clustered
    from repro.core.config import SimulationConfig
    from repro.trace.io import read_trace

    trace_file = tmp_path / "k2.trace"
    assert main([
        "run", "pascal", "--scale", "tiny", "--pes", "4", "--clusters", "2",
        "-o", str(trace_file),
    ]) == 0
    out = capsys.readouterr().out
    assert re.search(r"clusters: +2", out)
    assert "net msgs" in out
    replayed = replay_clustered(
        read_trace(trace_file), SimulationConfig().with_clusters(2)
    )
    assert f"bus cycles:    {replayed.stats.bus_cycles_total:,}\n" in out


def test_run_with_gc_writes_a_trace_without_flush_points(tmp_path, capsys):
    """The written trace carries no collection points: replaying it
    alone counts as if the caches survived every collection."""
    from repro.core.config import SimulationConfig
    from repro.core.replay import replay
    from repro.trace.io import read_trace

    trace_file = tmp_path / "gc.trace"
    assert main([
        "run", "pascal", "--scale", "tiny", "--pes", "2", "--gc", "200",
        "-o", str(trace_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "collections:   1 " in out
    replayed = replay(read_trace(trace_file), SimulationConfig())
    assert f"bus cycles:    {replayed.bus_cycles_total:,}\n" not in out


def test_tables_subset(capsys):
    assert main(["tables", "--scale", "tiny", "--which", "4,5"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "Table 5" in out
    assert "Table 1" not in out


def test_tables_rejects_unknown(capsys):
    assert main(["tables", "--which", "9"]) == 2


def test_figures_subset(capsys):
    assert main(["figures", "--scale", "tiny", "--which", "width"]) == 0
    assert "Two-word Bus" in capsys.readouterr().out


def test_figures_rejects_unknown(capsys):
    assert main(["figures", "--which", "bogus"]) == 2


def test_listing_benchmark(capsys):
    assert main(["listing", "tri"]) == 0
    out = capsys.readouterr().out
    assert "jump/5" in out
    assert "guard_cmp" in out


def test_listing_file(tmp_path, capsys):
    source = tmp_path / "p.fghc"
    source.write_text("p(0).\n")
    assert main(["listing", str(source)]) == 0
    assert "p/1" in capsys.readouterr().out


def test_listing_missing(capsys):
    assert main(["listing", "missing.fghc"]) == 2


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_profile_benchmark_writes_bundle(tmp_path, capsys):
    assert main([
        "profile", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--window", "64", "--out-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "profiled" in out
    assert "miss ratio" in out
    stem = "pascal-tiny-2pe"
    for suffix in (
        ".trace.json", ".windows.jsonl", ".events.jsonl",
        ".hotness.json", ".manifest.json",
    ):
        assert (tmp_path / f"{stem}{suffix}").exists(), suffix


def test_profile_artifacts_are_schema_valid(tmp_path):
    import json

    from repro.obs import schema

    assert main([
        "profile", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--window", "128", "--out-dir", str(tmp_path),
    ]) == 0
    stem = "pascal-tiny-2pe"
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    schema.validate_manifest(manifest)
    assert manifest["extra"]["kind"] == "profile"
    schema.validate_chrome_trace(
        json.loads((tmp_path / f"{stem}.trace.json").read_text())
    )
    schema.validate_hotness(
        json.loads((tmp_path / f"{stem}.hotness.json").read_text())
    )
    events = (tmp_path / f"{stem}.events.jsonl").read_text().splitlines()
    assert schema.validate_jsonl(events, schema.validate_event) > 0
    windows = (tmp_path / f"{stem}.windows.jsonl").read_text().splitlines()
    assert schema.validate_jsonl(windows, schema.validate_window) > 0


def test_profile_trace_file_source(tmp_path, capsys):
    trace_file = tmp_path / "t.trace"
    assert main([
        "trace", "record", "pascal", "--scale", "tiny", "--pes", "2",
        "-o", str(trace_file),
    ]) == 0
    capsys.readouterr()
    assert main([
        "profile", "--trace", str(trace_file), "--pes", "2",
        "--out-dir", str(tmp_path / "out"),
    ]) == 0
    assert (tmp_path / "out" / "t.trace.json").exists()


def test_events_prints_human_readable(capsys):
    assert main([
        "events", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--limit", "5",
    ]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 5
    assert "PE" in lines[0]


def test_events_kind_filter(capsys):
    assert main([
        "events", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--kind", "bus", "--limit", "0",
    ]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert lines
    assert all(" bus " in line for line in lines)


def test_events_rejects_unknown_kind(capsys):
    assert main([
        "events", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--kind", "bogus",
    ]) == 2
    assert "unknown event kind" in capsys.readouterr().err


def test_events_jsonl_export(tmp_path, capsys):
    from repro.obs.schema import validate_event, validate_jsonl

    out_file = tmp_path / "events.jsonl"
    assert main([
        "events", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "-o", str(out_file),
    ]) == 0
    lines = out_file.read_text().splitlines()
    assert validate_jsonl(lines, validate_event) == len(lines) > 0


def test_bench_assert_overhead_requires_recorded_report(tmp_path, capsys):
    missing = tmp_path / "nothing.json"
    assert main([
        "bench", "--quick", "-o", str(missing), "--assert-overhead",
    ]) == 2
    assert "existing recorded report" in capsys.readouterr().err


def test_verbose_flag_enables_library_logging(tmp_path, capsys):
    import logging

    assert main([
        "-v", "profile", "--benchmark", "pascal", "--scale", "tiny",
        "--pes", "2", "--out-dir", str(tmp_path),
    ]) == 0
    assert logging.getLogger("repro").level == logging.INFO
    assert main([
        "-q", "events", "--benchmark", "pascal", "--scale", "tiny",
        "--pes", "2", "--limit", "1",
    ]) == 0
    assert logging.getLogger("repro").level == logging.ERROR


def test_protocols_lists_registered(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    for name in protocol_names():
        assert name in out
    assert "write policy" in out


@pytest.mark.parametrize("protocol", protocol_names())
def test_protocols_spec_renders_transition_table(protocol, capsys):
    assert main(["protocols", "--spec", protocol]) == 0
    out = capsys.readouterr().out
    assert f"({protocol})" in out
    assert "EM" in out and "INV" in out


def test_protocols_spec_rejects_unknown(capsys):
    assert main(["protocols", "--spec", "mesi2"]) == 2
    assert "pim" in capsys.readouterr().err


def test_compare_benchmark(capsys):
    assert main([
        "compare", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
    ]) == 0
    out = capsys.readouterr().out
    for name in ("pim", "illinois", "write_through", "write_update",
                 "write_once"):
        assert name in out
    assert "bus cycles" in out


def test_compare_protocol_subset_and_trace(tmp_path, capsys):
    trace_file = tmp_path / "c.trace"
    assert main([
        "trace", "record", "pascal", "--scale", "tiny", "--pes", "2",
        "-o", str(trace_file),
    ]) == 0
    capsys.readouterr()
    assert main([
        "compare", "--trace", str(trace_file),
        "--protocol", "pim,write_once",
    ]) == 0
    out = capsys.readouterr().out
    assert "pim" in out and "write_once" in out
    assert "illinois" not in out


def test_compare_rejects_unknown_protocol(capsys):
    assert main([
        "compare", "--benchmark", "pascal", "--scale", "tiny",
        "--protocol", "pim,mesi2",
    ]) == 2
    err = capsys.readouterr().err
    assert "mesi2" in err and "write_once" in err


def test_bench_quick_writes_schema_valid_report(tmp_path, capsys):
    import json

    from repro.obs.schema import validate_manifest

    out_file = tmp_path / "bench.json"
    assert main([
        "bench", "--quick", "--repeats", "1", "-o", str(out_file),
    ]) == 0
    report = json.loads(out_file.read_text())
    assert report["benchmark"] == "replay"
    assert report["workloads"]["hot"]["refs_per_sec"] > 0
    assert report["sweep"]["results_identical"]
    validate_manifest(report["manifest"])


def test_compare_json_is_schema_valid(capsys):
    import json

    from repro.obs.schema import validate_comparison

    assert main([
        "compare", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--protocol", "pim,illinois", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    validate_comparison(report)
    assert {row["protocol"] for row in report["rows"]} == {"pim", "illinois"}


def test_compare_json_config_hash_names_the_mode(pe_traces, capsys):
    import json

    manifests = {}
    for mode in ("pessimistic", "lazypim"):
        assert main([
            "compare", "--trace", str(pe_traces[4]), "--protocol", "pim",
            "--mode", mode, "--json",
        ]) == 0
        manifests[mode] = json.loads(capsys.readouterr().out)["manifest"]
    assert (manifests["pessimistic"]["config_hash"]
            != manifests["lazypim"]["config_hash"])
    assert manifests["lazypim"]["config"]["speculation"]["mode"] == "lazypim"


def test_verify_single_protocol(capsys):
    assert main(["verify", "--protocol", "pim"]) == 0
    out = capsys.readouterr().out
    assert "pim: clean" in out
    assert "verify: clean" in out


def test_verify_all_protocols(capsys):
    assert main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    for name in protocol_names():
        assert f"{name}: clean" in out


def test_verify_demo_broken_prints_counterexample(capsys):
    assert main(["verify", "--demo-broken"]) == 1
    out = capsys.readouterr().out
    assert "counterexample (dirty-loss)" in out
    assert "verify: FAILED" in out


def test_verify_fuzz_only_json_is_schema_valid(capsys):
    import json

    from repro.obs.schema import validate_verify

    assert main([
        "verify", "--fuzz-only", "--seed", "0", "--budget", "2000",
        "--refs-per-case", "500", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    validate_verify(report)
    assert report["clean"] is True
    assert report["model_check"] is None
    assert report["fuzz"]["refs_total"] >= 2000
    assert report["manifest"]["extra"]["kind"] == "verify"


def test_verify_writes_report_file(tmp_path, capsys):
    import json

    from repro.obs.schema import validate_verify

    out_file = tmp_path / "verify.json"
    assert main([
        "verify", "--protocol", "pim", "--fuzz", "--budget", "1000",
        "--refs-per-case", "500", "-o", str(out_file),
    ]) == 0
    report = json.loads(out_file.read_text())
    validate_verify(report)
    assert report["model_check"][0]["protocol"] == "pim"
    assert report["fuzz"] is not None


def test_verify_rejects_all_with_protocol(capsys):
    assert main(["verify", "--all", "--protocol", "pim"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_verify_rejects_unknown_protocol(capsys):
    assert main(["verify", "--protocol", "mesi2"]) == 2
    assert "mesi2" in capsys.readouterr().err


def test_verify_rejects_malformed_clusters(capsys):
    assert main([
        "verify", "--fuzz-only", "--clusters", "two,4",
    ]) == 2
    assert "--clusters" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The --interconnect surface.


def test_run_on_the_directory_interconnect(capsys):
    assert main([
        "run", "pascal", "--scale", "tiny", "--pes", "2",
        "--interconnect", "directory",
    ]) == 0
    assert "bus cycles" in capsys.readouterr().out


def test_unknown_interconnect_lists_registered(capsys):
    assert main([
        "run", "pascal", "--scale", "tiny", "--interconnect", "crossbar",
    ]) == 2
    err = capsys.readouterr().err
    assert "crossbar" in err and "bus, directory" in err


def test_compare_rejects_unknown_interconnect(capsys):
    assert main([
        "compare", "--benchmark", "pascal", "--scale", "tiny",
        "--interconnect", "mesh",
    ]) == 2
    err = capsys.readouterr().err
    assert "mesh" in err and "choose from" in err


def test_protocols_spec_renders_directory_table(capsys):
    assert main([
        "protocols", "--spec", "pim", "--interconnect", "directory",
    ]) == 0
    out = capsys.readouterr().out
    assert "home-node directory (pim_dir)" in out
    assert "transient" in out and "MO_F" in out


def test_verify_on_the_directory_interconnect(capsys):
    assert main([
        "verify", "--protocol", "write_through",
        "--interconnect", "directory",
    ]) == 0
    out = capsys.readouterr().out
    assert "directory interconnect" in out
    assert "clean" in out


def test_metrics_table_from_trace(tmp_path, capsys):
    trace_file = tmp_path / "m.trace"
    assert main([
        "trace", "record", "pascal", "--scale", "tiny", "--pes", "2",
        "-o", str(trace_file),
    ]) == 0
    capsys.readouterr()
    assert main(["metrics", "--trace", str(trace_file), "--pes", "0"]) == 0
    out = capsys.readouterr().out
    assert "cycle ledger" in out
    assert "identity verified" in out
    assert "hit_service" in out


def test_metrics_json_is_schema_valid(capsys):
    import json

    from repro.obs.schema import validate_metrics

    assert main([
        "metrics", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--json",
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    validate_metrics(record)
    assert record["manifest"]["extra"]["kind"] == "metrics"


def test_metrics_openmetrics_export(tmp_path, capsys):
    out_file = tmp_path / "metrics.txt"
    assert main([
        "metrics", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
        "--openmetrics", str(out_file),
    ]) == 0
    text = out_file.read_text()
    assert text.endswith("# EOF\n")
    assert 'bucket="hit_service"' in text
    assert 'protocol="pim"' in text


def test_metrics_clustered_ledger_includes_network(capsys):
    assert main([
        "metrics", "--benchmark", "pascal", "--scale", "tiny", "--pes", "4",
        "--clusters", "2",
    ]) == 0
    assert "network_stall" in capsys.readouterr().out


def test_sweep_serial_progress_smoke(tmp_path, capsys):
    import json

    from repro.obs.schema import validate_manifest

    # The serial in-process sweep and a two-worker pooled one.
    for jobs in ("1", "2"):
        out_file = tmp_path / f"sweep-{jobs}.json"
        assert main([
            "sweep", "--benchmark", "pascal", "--scale", "tiny", "--pes", "2",
            "--points", "2", "--jobs", jobs, "--progress",
            "--interval", "0.001", "--chunk", "1024",
            "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "worker" in out          # heartbeat lines streamed
        assert "2 points completed" in out
        report = json.loads(out_file.read_text())
        validate_manifest(report["manifest"])
        assert report["manifest"]["extra"]["telemetry"]["points_completed"] == 2


def test_sweep_progress_into_a_closed_pipe_stops_quietly(tmp_path):
    import os
    import subprocess
    import sys

    import repro

    # The reader is gone before the first line: every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        REPRO_TRACE_CACHE=str(tmp_path / "traces"),
    )
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--benchmark", "pascal",
             "--scale", "tiny", "--pes", "2", "--points", "2", "--jobs", "1",
             "--progress", "--interval", "0.001", "--chunk", "1024"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert completed.returncode == 1
    assert completed.stderr == ""


def test_sweep_rejects_bad_points(capsys):
    assert main([
        "sweep", "--benchmark", "pascal", "--scale", "tiny", "--points", "0",
    ]) == 2


def test_bench_compare_flags_injected_regression(tmp_path, capsys, monkeypatch):
    import json

    from repro.analysis import bench, history

    fake_report = {
        "benchmark": "replay",
        "quick": True,
        "host_cpus": 2,
        "repeats": 1,
        "workloads": {
            "hot": {
                "refs": 1000,
                "refs_per_sec": 1_000_000.0,
                "hit_ratio": 0.9,
            },
        },
    }
    monkeypatch.setattr(bench, "run_bench", lambda **kwargs: dict(fake_report))
    monkeypatch.setattr(bench, "format_report", lambda report: "(stubbed)")
    history_path = tmp_path / "history.jsonl"
    out_file = tmp_path / "bench.json"

    # Baseline run: nothing to compare against, appends, exits clean.
    assert main([
        "bench", "--quick", "-o", str(out_file),
        "--compare", "--history", str(history_path),
    ]) == 0
    assert "no baseline yet" in capsys.readouterr().out

    # Identical rerun stays clean.
    out_file.unlink()  # leave no no-sink-overhead reference behind
    assert main([
        "bench", "--quick", "-o", str(out_file),
        "--compare", "--history", str(history_path),
    ]) == 0
    assert "verdict: clean" in capsys.readouterr().out

    # A 25% drop in refs/sec must fail the run.
    fake_report["workloads"]["hot"]["refs_per_sec"] = 750_000.0
    out_file.unlink()
    assert main([
        "bench", "--quick", "-o", str(out_file),
        "--compare", "--history", str(history_path),
    ]) == 1
    captured = capsys.readouterr()
    assert "verdict: REGRESSED" in captured.out
    assert "regression" in captured.err
    # Every run appended its record, regressed or not.
    assert len(history.load_history(history_path)) == 3


# ---------------------------------------------------------------------------
# The trace source: with --trace, --pes follows the trace.


@pytest.fixture(scope="module")
def pe_traces(tmp_path_factory):
    """Tiny tri traces recorded on 16 and on 4 PEs."""
    from repro.analysis.runner import run_benchmark
    from repro.trace.io import write_trace

    root = tmp_path_factory.mktemp("pe-traces")
    paths = {}
    for pes in (16, 4):
        paths[pes] = root / f"t{pes}.trace"
        write_trace(run_benchmark("tri", scale="tiny", n_pes=pes).trace,
                    paths[pes])
    return paths


@pytest.mark.parametrize("pes", [16, 4])
def test_metrics_trace_replays_on_the_traces_own_pes(pe_traces, pes, capsys):
    assert main(["metrics", "--trace", str(pe_traces[pes])]) == 0
    assert f" refs, {pes} PEs, pim)" in capsys.readouterr().out


@pytest.mark.parametrize("pes", [16, 4])
def test_compare_trace_replays_on_the_traces_own_pes(pe_traces, pes, capsys):
    assert main([
        "compare", "--trace", str(pe_traces[pes]), "--protocol", "pim,illinois",
    ]) == 0
    assert f" refs, {pes} PEs)" in capsys.readouterr().out


def test_serve_submit_trace_takes_the_traces_own_pes(pe_traces, tmp_path, capsys):
    assert main(["serve", "--store", str(tmp_path / "store"), "submit",
                 "--trace", str(pe_traces[4])]) == 0
    assert "(4 PEs)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [["metrics"], ["compare"], ["events"], ["profile"], ["sweep"],
     ["serve", "--store", "unused", "submit"]],
    ids=lambda command: command[-1],
)
def test_pes_below_the_traces_own_is_a_one_line_error(
    tmp_path, monkeypatch, pe_traces, command, capsys
):
    monkeypatch.chdir(tmp_path)  # serve's store is made in the cwd
    assert main([*command, "--trace", str(pe_traces[16]), "--pes", "4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "--pes 4" in err and "16 PEs" in err


@pytest.mark.parametrize(
    "command",
    [["metrics"], ["compare"], ["events"], ["profile"], ["sweep"],
     ["serve", "--store", "unused", "submit"]],
    ids=lambda command: command[-1],
)
def test_missing_trace_file_is_a_one_line_error(
    tmp_path, monkeypatch, command, capsys
):
    monkeypatch.chdir(tmp_path)  # serve's store is made in the cwd
    missing = tmp_path / "missing.trace"
    assert main([*command, "--trace", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(missing) in err and "No such file" in err


#: The commands that take the mode options; ``TRACE`` stands for a
#: recorded trace file.
MODE_COMMANDS = {
    "run": ["run", "pascal", "--scale", "tiny", "--pes", "2"],
    "trace-replay": ["trace", "replay", "TRACE"],
    "compare": ["compare", "--trace", "TRACE"],
    "bench": ["bench", "--quick"],
    "submit": ["serve", "--store", "unused", "submit", "--trace", "TRACE"],
}

#: Batch knobs the config refuses, in either mode.
BAD_KNOBS = {
    "batch-refs-0": (["--mode", "lazypim", "--batch-refs", "0"],
                     "batch_refs must be >= 1"),
    "batch-refs-negative": (["--mode", "lazypim", "--batch-refs", "-1"],
                            "batch_refs must be >= 1"),
    "signature-bits-3": (["--mode", "lazypim", "--signature-bits", "3"],
                         "signature_bits must be a power of two >= 2"),
    "pessimistic": (["--batch-refs", "0", "--signature-bits", "3"],
                    "batch_refs must be >= 1"),
}

_METRICS = ["metrics", "--benchmark", "pascal", "--scale", "tiny"]


@pytest.mark.parametrize(
    "command,options,message",
    [
        (_METRICS, ["--capacity", "-5"],
         "capacity_words must be a positive power of two"),
        (_METRICS, ["--block-words", "3"],
         "block_words must be a positive power of two"),
        (_METRICS, ["--ways", "3"], "n_sets must be a positive power of two"),
        (_METRICS, ["--ways", "0"], "associativity must be >= 1"),
        (_METRICS, ["--bus-width", "-1"], "width_words must be >= 1"),
        (_METRICS, ["--clusters", "3"],
         "--clusters 3 does not divide the 8 PEs"),
        (_METRICS, ["--clusters", "2", "--hop-cycles", "-2"],
         "hop_cycles must be >= 1"),
        *(
            (MODE_COMMANDS[name], *BAD_KNOBS[knobs])
            for name in MODE_COMMANDS for knobs in BAD_KNOBS
        ),
    ],
    ids=["capacity", "block-words", "ways", "zero-ways", "bus-width",
         "clusters", "hop-cycles",
         *(f"{name}-{knobs}"
           for name in MODE_COMMANDS for knobs in BAD_KNOBS)],
)
def test_bad_cache_or_cluster_option_is_a_one_line_error(
    command, options, message, capsys, monkeypatch, tmp_path, pe_traces
):
    from repro.analysis import bench
    from repro.machine.machine import KL1Machine

    def refuse(*args, **kwargs):
        raise AssertionError("a refused option ran the simulation")

    if command is not _METRICS:
        # A refused knob comes first: nothing is emulated or measured.
        # (``metrics --benchmark`` may emulate its trace on a cold cache.)
        monkeypatch.setattr(KL1Machine, "run", refuse)
        monkeypatch.setattr(bench, "run_bench", refuse)
    monkeypatch.chdir(tmp_path)  # serve's store is made in the cwd
    trace = str(pe_traces[4])
    argv = [trace if part == "TRACE" else part for part in command]
    assert main([*argv, *options]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "command",
    [["metrics", "--benchmark", "pascal"], ["run", "pascal"],
     ["trace", "record", "pascal", "-o", "unused.trace"]],
    ids=lambda command: command[0],
)
def test_negative_pes_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exit:
        main([*command, "--scale", "tiny", "--pes", "-1"])
    assert exit.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --pes: a PE count must be at least" in err
    assert "-1" in err


def test_run_on_zero_pes_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["run", "pascal", "--scale", "tiny", "--pes", "0"])
    assert exit.value.code == 2
    assert "at least 1, not 0" in capsys.readouterr().err


def test_pes_above_the_traces_own_is_honoured(pe_traces, capsys):
    assert main(["metrics", "--trace", str(pe_traces[4]), "--pes", "8"]) == 0
    assert " refs, 8 PEs, pim)" in capsys.readouterr().out


def test_pes_zero_means_the_default_of_either_source(pe_traces, capsys):
    assert main(["metrics", "--trace", str(pe_traces[4]), "--pes", "0"]) == 0
    assert " refs, 4 PEs, pim)" in capsys.readouterr().out
    assert main(["metrics", "--benchmark", "pascal", "--scale", "tiny",
                 "--pes", "0"]) == 0
    assert " refs, 8 PEs, pim)" in capsys.readouterr().out
