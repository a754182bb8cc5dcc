"""Bench-history regression tracking: record distillation, the JSONL
store, and the noise-aware comparison semantics."""

import json
from pathlib import Path

import pytest

from repro.analysis.history import (
    MAX_THRESHOLD,
    MIN_THRESHOLD,
    append_history,
    compare_to_history,
    format_comparison,
    history_record,
    host_fingerprint,
    load_history,
    section_threshold,
)
from repro.obs.schema import (
    SchemaError,
    validate_bench,
    validate_bench_history,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def sample_report(rate: float = 1_000_000.0) -> dict:
    return {
        "benchmark": "replay",
        "quick": True,
        "host_cpus": 4,
        "repeats": 3,
        "workloads": {
            "hot": {"refs": 50_000, "refs_per_sec": rate, "hit_ratio": 0.9},
            "random": {
                "refs": 50_000,
                "refs_per_sec": rate / 4,
                "hit_ratio": 0.5,
            },
        },
        # Reports written before the bench lost its kernel comparison
        # still carry this section; it is not a comparable rate.
        "kernels": {
            "interpreted_refs_per_sec": rate / 2,
            "generated_refs_per_sec": "skipped",
        },
        "sweep": {"points": 4, "refs": 50_000, "parallel_speedup": "skipped"},
        "cluster": {
            "refs_per_sec_serial": rate / 3,
            "refs_per_sec_parallel": "skipped",
        },
    }


def scaled_record(factor: float = 1.0) -> dict:
    return history_record(sample_report(rate=1_000_000.0 * factor))


# ----------------------------------------------------------------------
# Fingerprint and record distillation
# ----------------------------------------------------------------------


def test_host_fingerprint_is_stable_and_complete():
    first, second = host_fingerprint(), host_fingerprint()
    assert first == second
    assert set(first) == {"hostname", "machine", "cpus", "fingerprint"}
    assert len(first["fingerprint"]) == 16


def test_history_record_keeps_only_positive_numeric_sections():
    record = scaled_record()
    validate_bench_history(record)
    assert set(record["sections"]) == {
        "workload.hot.refs_per_sec",
        "workload.random.refs_per_sec",
        "cluster.refs_per_sec_serial",
    }
    assert record["quick"] is True
    assert record["repeats"] == 3


def test_history_record_rejects_report_without_rates():
    with pytest.raises(ValueError):
        history_record({"workloads": {}})


# ----------------------------------------------------------------------
# The JSONL store
# ----------------------------------------------------------------------


def test_append_load_roundtrip(tmp_path):
    path = tmp_path / "history.jsonl"
    first, second = scaled_record(), scaled_record(1.1)
    append_history(first, path)
    append_history(second, path)
    assert load_history(path) == [first, second]


def test_load_missing_history_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.jsonl") == []


def test_load_rejects_corrupt_lines_with_location(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(scaled_record(), path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    with pytest.raises(SchemaError, match=":2"):
        load_history(path)


def test_load_rejects_non_object_lines_with_location(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(scaled_record(), path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("5\n")
    with pytest.raises(SchemaError, match=":2"):
        load_history(path)


def test_load_rejects_invalid_records(tmp_path):
    path = tmp_path / "history.jsonl"
    broken = scaled_record()
    broken["sections"] = {}
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(broken) + "\n")
    with pytest.raises(SchemaError, match=":1"):
        load_history(path)


# ----------------------------------------------------------------------
# Threshold and comparison semantics
# ----------------------------------------------------------------------


def test_section_threshold_clamps_both_ways():
    # MAD of a single-entry (or constant) history is zero: the floor.
    assert section_threshold([100.0]) == MIN_THRESHOLD
    assert section_threshold([100.0, 100.0, 100.0]) == MIN_THRESHOLD
    # A wildly noisy history hits the ceiling.
    assert section_threshold([100.0, 10.0, 1000.0]) == MAX_THRESHOLD
    assert section_threshold([]) == MIN_THRESHOLD


def test_identical_rerun_is_clean():
    baseline = scaled_record()
    comparison = compare_to_history(scaled_record(), [baseline])
    assert comparison["baseline_records"] == 1
    assert comparison["regressed"] is False
    assert "verdict: clean" in format_comparison(comparison)


def test_twenty_percent_drop_regresses():
    comparison = compare_to_history(scaled_record(0.8), [scaled_record()])
    assert comparison["regressed"] is True
    hot = comparison["sections"]["workload.hot.refs_per_sec"]
    assert hot["regressed"] is True
    assert hot["ratio"] == pytest.approx(0.8)
    assert "verdict: REGRESSED" in format_comparison(comparison)


def test_small_drop_stays_under_the_floor():
    comparison = compare_to_history(scaled_record(0.95), [scaled_record()])
    assert comparison["regressed"] is False


def test_other_host_history_is_ignored():
    baseline = scaled_record()
    baseline["host"] = dict(
        baseline["host"], fingerprint="f" * 16, hostname="elsewhere"
    )
    comparison = compare_to_history(scaled_record(0.5), [baseline])
    assert comparison["baseline_records"] == 0
    assert comparison["regressed"] is False
    entry = comparison["sections"]["workload.hot.refs_per_sec"]
    assert entry["baseline"] is None


def test_quick_and_full_histories_do_not_mix():
    full = scaled_record()
    full["quick"] = False
    comparison = compare_to_history(scaled_record(0.5), [full])
    assert comparison["baseline_records"] == 0
    assert comparison["regressed"] is False


def test_history_with_legacy_kernel_sections_still_compares():
    # Older history records carry ``kernels.*`` sections that fresh
    # records no longer produce: they load, and the shared sections
    # compare as usual.
    legacy = scaled_record()
    legacy["sections"]["kernels.interpreted_refs_per_sec"] = 500_000.0
    legacy["sections"]["kernels.generated_refs_per_sec"] = 900_000.0
    validate_bench_history(legacy)
    comparison = compare_to_history(scaled_record(0.8), [legacy])
    assert not any(name.startswith("kernels.")
                   for name in comparison["sections"])
    assert comparison["sections"]["workload.hot.refs_per_sec"]["regressed"]


def test_baseline_is_the_same_host_median():
    history = [scaled_record(f) for f in (0.9, 1.0, 1.1)]
    comparison = compare_to_history(scaled_record(), history)
    hot = comparison["sections"]["workload.hot.refs_per_sec"]
    assert hot["baseline"] == pytest.approx(1_000_000.0)
    assert comparison["regressed"] is False


# ----------------------------------------------------------------------
# Bench-report schema
# ----------------------------------------------------------------------


def test_validate_bench_accepts_synthetic_report():
    validate_bench(sample_report())


def test_validate_bench_accepts_committed_report():
    path = REPO_ROOT / "BENCH_replay.json"
    if not path.exists():
        pytest.skip("no committed BENCH_replay.json")
    validate_bench(json.loads(path.read_text()))


def test_committed_history_validates():
    path = REPO_ROOT / "BENCH_history.jsonl"
    if not path.exists():
        pytest.skip("no committed BENCH_history.jsonl")
    assert load_history(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("workloads"),
        lambda r: r.__setitem__("benchmark", "other"),
        lambda r: r["workloads"]["hot"].__setitem__("hit_ratio", 1.5),
        lambda r: r["workloads"]["hot"].__setitem__("refs_per_sec", -1),
    ],
)
def test_validate_bench_rejects_malformed_reports(mutate):
    report = sample_report()
    mutate(report)
    with pytest.raises(SchemaError):
        validate_bench(report)
