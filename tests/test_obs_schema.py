"""The table-driven artifact validators: malformed records of any shape
raise :class:`SchemaError`, counts never accept booleans, and JSONL
errors name their line."""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.system import PIMCacheSystem
from repro.obs import schema
from repro.obs.events import EventKind, ProtocolEvent
from repro.obs.export import HOTNESS_SCHEMA, TRACE_SCHEMA
from repro.obs.manifest import build_manifest
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.schema import SchemaError
from repro.obs.windows import WINDOW_SCHEMA
from repro.serve.checkpoint import snapshot
from repro.trace.events import Area, Op


def _event():
    return ProtocolEvent(
        0, 0, 0, EventKind.BUS, 0, Op.R, Area.HEAP, 0, "swap_in", 13
    ).to_dict()


def _window():
    return {
        "schema": WINDOW_SCHEMA, "index": 0, "start": 0, "refs": 4, "hits": 3,
        "misses": 1, "cycles": 40, "bus_cycles": 8, "memory_busy_cycles": 8,
        "lh_responses": 0, "unlocks_with_waiter": 0, "miss_ratio": 0.25,
        "bus_utilization": 0.2, "refs_by_area": [4], "misses_by_area": [1],
        "bus_cycles_by_area": [8], "pe_cycles": [20, 20],
    }


def _comparison():
    row = {
        "protocol": "pim", "bus_cycles": 8, "memory_busy_cycles": 8,
        "swap_outs": 0, "c2c_transfers": 1, "miss_ratio": 0.25,
    }
    return {"schema": schema.COMPARISON_SCHEMA, "rows": [row]}


def _verify():
    return {
        "schema": schema.VERIFY_SCHEMA, "clean": True,
        "model_check": [{
            "protocol": "pim", "clean": True, "states": 10, "transitions": 20,
            "complete": True, "counterexample": None,
        }],
        "fuzz": {
            "seed": 1, "budget": 10, "n_pes": 2, "refs_total": 100,
            "clean": True, "cases": [{"protocol": "pim", "variant": "k1", "ok": True}],
        },
    }


def _hotness():
    return {
        "schema": HOTNESS_SCHEMA, "block_words": 4, "total_refs": 10,
        "distinct_blocks": 2, "shared_blocks": 1, "sharing_histogram": {"1": 1},
        "top_blocks": [{
            "block": 0, "address": 0, "refs": 6, "writes": 2, "reads": 4,
            "pes": 2, "area": "heap",
        }],
    }


def _chrome_trace():
    return {
        "traceEvents": [
            {"ph": "M", "pid": 0, "name": "process_name"},
            {"ph": "X", "pid": 0, "name": "R", "ts": 0, "dur": 2},
            {"ph": "C", "pid": 0, "name": "bus", "ts": 1, "args": {"busy": 1}},
        ],
        "otherData": {"schema": TRACE_SCHEMA},
    }


def _metrics():
    return {
        "schema": METRICS_SCHEMA, "manifest": None,
        "ledger": {
            "pe_cycles_total": 10, "attributed_total": 10,
            "entries": {"hit": 6, "bus_swap_in": 4}, "off_ledger": {},
            "fractions": {"hit": 0.6, "bus_swap_in": 0.4},
        },
    }


def _bench():
    return {
        "benchmark": "replay", "quick": True, "host_cpus": 2, "repeats": 3,
        "workloads": {"hot": {"refs": 100, "refs_per_sec": 1e6, "hit_ratio": 0.9}},
    }


def _bench_history():
    return {
        "schema": schema.BENCH_HISTORY_SCHEMA, "created_unix": 1.0,
        "host": {"fingerprint": "f", "hostname": "h", "machine": "m", "cpus": 2},
        "git_sha": None, "quick": True, "repeats": 3,
        "sections": {"workload.hot.refs_per_sec": 1e6},
    }


def _checkpoint():
    return snapshot(PIMCacheSystem(SimulationConfig(), 2))


def _job():
    return {
        "schema": schema.JOB_SCHEMA, "id": "0001-pim-abc", "state": "queued",
        "trace": "abc", "n_pes": 2, "chunk_refs": 500, "checkpoint_every": 2,
        "retries": 0, "max_retries": 2, "error": None, "manifest": build_manifest(),
    }


#: Every validator with a builder for one valid record.
VALID = {
    schema.validate_manifest: build_manifest,
    schema.validate_event: _event,
    schema.validate_window: _window,
    schema.validate_comparison: _comparison,
    schema.validate_verify: _verify,
    schema.validate_hotness: _hotness,
    schema.validate_chrome_trace: _chrome_trace,
    schema.validate_metrics: _metrics,
    schema.validate_bench: _bench,
    schema.validate_bench_history: _bench_history,
    schema.validate_checkpoint: _checkpoint,
    schema.validate_job: _job,
}


def _broken(validator, path, value):
    """A valid record with the value at *path* replaced, validated first
    so a test cannot pass on a record that was already invalid."""
    record = VALID[validator]()
    validator(copy.deepcopy(record))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return record


@pytest.mark.parametrize("record", [None, [], 5], ids=["None", "list", "int"])
@pytest.mark.parametrize("validator", list(VALID), ids=lambda v: v.__name__)
def test_non_object_record_is_a_schema_error(validator, record):
    with pytest.raises(SchemaError):
        validator(record)


@pytest.mark.parametrize("validator, path", [
    (schema.validate_hotness, ("top_blocks",)),
    (schema.validate_chrome_trace, ("traceEvents",)),
    (schema.validate_comparison, ("rows",)),
    (schema.validate_checkpoint, ("systems", 0, "caches")),
    (schema.validate_checkpoint, ("systems", 0, "locks")),
    (schema.validate_verify, ("model_check",)),
    (schema.validate_verify, ("fuzz", "cases")),
], ids=lambda p: p.__name__ if callable(p) else ".".join(map(str, p)))
def test_non_object_entry_is_a_schema_error(validator, path):
    with pytest.raises(SchemaError, match=r"\[0\]"):
        validator(_broken(validator, path, [5]))


@pytest.mark.parametrize("validator, path, value", [
    (schema.validate_window, ("cycles",), True),
    (schema.validate_hotness, ("total_refs",), True),
    (schema.validate_hotness, ("top_blocks", 0, "refs"), True),
    (schema.validate_bench, ("workloads", "hot", "refs"), True),
    (schema.validate_chrome_trace, ("traceEvents", 0, "pid"), False),
    (schema.validate_comparison, ("rows", 0, "miss_ratio"), True),
    (schema.validate_bench_history, ("repeats",), 0),
    (schema.validate_bench_history, ("repeats",), True),
], ids=lambda p: p.__name__ if callable(p) else repr(p))
def test_counts_reject_booleans_and_history_repeats_match_bench(
    validator, path, value
):
    with pytest.raises(SchemaError):
        validator(_broken(validator, path, value))


def test_errors_carry_the_dotted_path():
    path = ("systems", 0, "caches", 1, "tick")
    record = _broken(schema.validate_checkpoint, path, -1)
    where = r"^checkpoint\.systems\[0\]\.caches\[1\]\.tick:"
    with pytest.raises(SchemaError, match=where):
        schema.validate_checkpoint(record)


def test_jsonl_schema_errors_name_their_line():
    bad = dict(_event(), kind="bogus")
    lines = [json.dumps(_event()), json.dumps(bad)]
    with pytest.raises(SchemaError, match=r"^line 2: event\.kind: unknown kind"):
        schema.validate_jsonl(lines, schema.validate_event)
