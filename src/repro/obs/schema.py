"""Hand-rolled validators for the observability artifacts.

No external JSON-schema dependency: each ``validate_*`` function checks
the required keys and types of one artifact (manifest, event record,
window record, hotness report, Chrome trace) and raises
:class:`SchemaError` with a readable path on the first violation.  CI
runs these over the ``repro profile`` outputs so a drive-by field
rename cannot silently break downstream tooling.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.events import EVENT_KIND_NAMES
from repro.obs.export import HOTNESS_SCHEMA, TRACE_SCHEMA
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.windows import WINDOW_SCHEMA
from repro.trace.events import AREA_NAMES, OP_NAMES


class SchemaError(ValueError):
    """An artifact does not match its published schema."""


def _require(record: Mapping, where: str, key: str, types) -> object:
    if key not in record:
        raise SchemaError(f"{where}: missing required key {key!r}")
    value = record[key]
    if types is not None and not isinstance(value, types):
        raise SchemaError(
            f"{where}.{key}: expected {types}, got {type(value).__name__}"
        )
    return value


def _require_number_list(record: Mapping, where: str, key: str) -> list:
    value = _require(record, where, key, list)
    for index, item in enumerate(value):
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise SchemaError(
                f"{where}.{key}[{index}]: expected a number, "
                f"got {type(item).__name__}"
            )
    return value


def validate_manifest(record: Mapping) -> Mapping:
    where = "manifest"
    schema = _require(record, where, "schema", str)
    if schema != MANIFEST_SCHEMA:
        raise SchemaError(f"{where}.schema: expected {MANIFEST_SCHEMA!r}, got {schema!r}")
    _require(record, where, "created_unix", (int, float))
    _require(record, where, "python_version", str)
    _require(record, where, "platform", str)
    _require(record, where, "command", str)
    for key in ("git_sha", "config_hash", "trace_cache_key"):
        value = _require(record, where, key, None)
        if value is not None and not isinstance(value, str):
            raise SchemaError(f"{where}.{key}: expected str or null")
    if "protocol" in record and record["protocol"] is not None:
        if not isinstance(record["protocol"], str):
            raise SchemaError(f"{where}.protocol: expected str or null")
    if "clusters" in record and record["clusters"] is not None:
        clusters = record["clusters"]
        if not isinstance(clusters, int) or isinstance(clusters, bool) or clusters < 1:
            raise SchemaError(f"{where}.clusters: expected a positive int or null")
    config = _require(record, where, "config", None)
    if config is not None and not isinstance(config, Mapping):
        raise SchemaError(f"{where}.config: expected an object or null")
    if "wall_seconds" in record and record["wall_seconds"] is not None:
        if not isinstance(record["wall_seconds"], (int, float)):
            raise SchemaError(f"{where}.wall_seconds: expected a number or null")
    return record


def validate_event(record: Mapping) -> Mapping:
    where = "event"
    for key in ("seq", "ref", "cycle", "pe", "address", "value"):
        value = _require(record, where, key, int)
        if isinstance(value, bool):
            raise SchemaError(f"{where}.{key}: expected int, got bool")
    kind = _require(record, where, "kind", str)
    if kind not in EVENT_KIND_NAMES:
        raise SchemaError(f"{where}.kind: unknown kind {kind!r}")
    op = _require(record, where, "op", str)
    if op not in OP_NAMES:
        raise SchemaError(f"{where}.op: unknown operation {op!r}")
    area = _require(record, where, "area", str)
    if area not in AREA_NAMES:
        raise SchemaError(f"{where}.area: unknown area {area!r}")
    _require(record, where, "detail", str)
    if "protocol" in record and not isinstance(record["protocol"], str):
        raise SchemaError(f"{where}.protocol: expected str")
    return record


def validate_window(record: Mapping) -> Mapping:
    where = "window"
    schema = _require(record, where, "schema", str)
    if schema != WINDOW_SCHEMA:
        raise SchemaError(f"{where}.schema: expected {WINDOW_SCHEMA!r}, got {schema!r}")
    for key in (
        "index", "start", "refs", "hits", "misses", "cycles", "bus_cycles",
        "memory_busy_cycles", "lh_responses", "unlocks_with_waiter",
    ):
        _require(record, where, key, int)
    for key in ("miss_ratio", "bus_utilization"):
        value = _require(record, where, key, (int, float))
        if not 0.0 <= float(value) <= 1.0 and key == "miss_ratio":
            raise SchemaError(f"{where}.{key}: {value} outside [0, 1]")
    for key in ("refs_by_area", "misses_by_area", "bus_cycles_by_area", "pe_cycles"):
        _require_number_list(record, where, key)
    if record["refs"] < 1:
        raise SchemaError(f"{where}.refs: windows are never empty, got {record['refs']}")
    if record["refs"] != record["hits"] + record["misses"]:
        raise SchemaError(f"{where}: refs != hits + misses")
    return record


#: Schema tag of ``repro compare --json`` output (the producer lives in
#: :mod:`repro.analysis.protocols`; the tag lives here so the validator
#: has no upward dependency on the analysis layer).
COMPARISON_SCHEMA = "repro.obs/comparison/v1"


def validate_comparison(record: Mapping) -> Mapping:
    """Validate one machine-readable protocol/cluster comparison."""
    where = "comparison"
    schema = _require(record, where, "schema", str)
    if schema != COMPARISON_SCHEMA:
        raise SchemaError(
            f"{where}.schema: expected {COMPARISON_SCHEMA!r}, got {schema!r}"
        )
    rows = _require(record, where, "rows", list)
    if not rows:
        raise SchemaError(f"{where}.rows: a comparison needs at least one row")
    for index, row in enumerate(rows):
        entry = f"{where}.rows[{index}]"
        if not isinstance(row, Mapping):
            raise SchemaError(f"{entry}: expected an object")
        _require(row, entry, "protocol", str)
        for key in (
            "bus_cycles", "memory_busy_cycles", "swap_outs", "c2c_transfers",
        ):
            value = _require(row, entry, key, int)
            if isinstance(value, bool):
                raise SchemaError(f"{entry}.{key}: expected int, got bool")
        ratio = _require(row, entry, "miss_ratio", (int, float))
        if not 0.0 <= float(ratio) <= 1.0:
            raise SchemaError(f"{entry}.miss_ratio: {ratio} outside [0, 1]")
        for key in ("network_messages", "network_stall_cycles"):
            if key in row and (
                not isinstance(row[key], int) or isinstance(row[key], bool)
            ):
                raise SchemaError(f"{entry}.{key}: expected int")
    if "clusters" in record and record["clusters"] is not None:
        clusters = record["clusters"]
        if not isinstance(clusters, int) or isinstance(clusters, bool) or clusters < 1:
            raise SchemaError(f"{where}.clusters: expected a positive int or null")
    if "manifest" in record and record["manifest"] is not None:
        validate_manifest(record["manifest"])
    return record


#: Schema tag of ``repro verify --json`` output (produced by
#: :mod:`repro.cli` from :mod:`repro.verify` results; the tag lives here
#: with the other artifact tags).
VERIFY_SCHEMA = "repro.obs/verify/v1"


def validate_verify(record: Mapping) -> Mapping:
    """Validate one machine-readable verification report."""
    where = "verify"
    schema = _require(record, where, "schema", str)
    if schema != VERIFY_SCHEMA:
        raise SchemaError(
            f"{where}.schema: expected {VERIFY_SCHEMA!r}, got {schema!r}"
        )
    clean = _require(record, where, "clean", bool)
    model_check = _require(record, where, "model_check", None)
    fuzz = _require(record, where, "fuzz", None)
    if model_check is None and fuzz is None:
        raise SchemaError(f"{where}: needs model_check results or a fuzz report")
    if model_check is not None:
        if not isinstance(model_check, list) or not model_check:
            raise SchemaError(f"{where}.model_check: expected a non-empty list")
        for index, result in enumerate(model_check):
            entry = f"{where}.model_check[{index}]"
            if not isinstance(result, Mapping):
                raise SchemaError(f"{entry}: expected an object")
            _require(result, entry, "protocol", str)
            _require(result, entry, "clean", bool)
            for key in ("states", "transitions"):
                value = _require(result, entry, key, int)
                if isinstance(value, bool) or value < 0:
                    raise SchemaError(f"{entry}.{key}: expected a count")
            _require(result, entry, "complete", bool)
            counterexample = _require(result, entry, "counterexample", None)
            if result["clean"] != (counterexample is None):
                raise SchemaError(
                    f"{entry}: clean results carry no counterexample "
                    "and violations carry one"
                )
            if counterexample is not None:
                ce = f"{entry}.counterexample"
                if not isinstance(counterexample, Mapping):
                    raise SchemaError(f"{ce}: expected an object")
                _require(counterexample, ce, "invariant", str)
                _require(counterexample, ce, "detail", str)
                steps = _require(counterexample, ce, "steps", list)
                if not steps:
                    raise SchemaError(f"{ce}.steps: expected at least one step")
    if fuzz is not None:
        entry = f"{where}.fuzz"
        if not isinstance(fuzz, Mapping):
            raise SchemaError(f"{entry}: expected an object")
        for key in ("seed", "budget", "n_pes", "refs_total"):
            value = _require(fuzz, entry, key, int)
            if isinstance(value, bool):
                raise SchemaError(f"{entry}.{key}: expected int, got bool")
        _require(fuzz, entry, "clean", bool)
        cases = _require(fuzz, entry, "cases", list)
        for index, case in enumerate(cases):
            case_where = f"{entry}.cases[{index}]"
            if not isinstance(case, Mapping):
                raise SchemaError(f"{case_where}: expected an object")
            _require(case, case_where, "protocol", str)
            _require(case, case_where, "variant", str)
            _require(case, case_where, "ok", bool)
    if "manifest" in record and record["manifest"] is not None:
        validate_manifest(record["manifest"])
    return record


def validate_hotness(record: Mapping) -> Mapping:
    where = "hotness"
    schema = _require(record, where, "schema", str)
    if schema != HOTNESS_SCHEMA:
        raise SchemaError(f"{where}.schema: expected {HOTNESS_SCHEMA!r}, got {schema!r}")
    for key in ("block_words", "total_refs", "distinct_blocks", "shared_blocks"):
        _require(record, where, key, int)
    _require(record, where, "sharing_histogram", Mapping)
    top = _require(record, where, "top_blocks", list)
    for index, entry in enumerate(top):
        for key in ("block", "address", "refs", "writes", "reads", "pes"):
            _require(entry, f"{where}.top_blocks[{index}]", key, int)
        _require(entry, f"{where}.top_blocks[{index}]", "area", str)
    return record


def validate_chrome_trace(record: Mapping) -> Mapping:
    where = "chrome-trace"
    events = _require(record, where, "traceEvents", list)
    other = _require(record, where, "otherData", Mapping)
    if other.get("schema") != TRACE_SCHEMA:
        raise SchemaError(f"{where}.otherData.schema: expected {TRACE_SCHEMA!r}")
    for index, event in enumerate(events):
        entry = f"{where}.traceEvents[{index}]"
        phase = _require(event, entry, "ph", str)
        _require(event, entry, "pid", int)
        _require(event, entry, "name", str)
        if phase == "X":
            ts = _require(event, entry, "ts", (int, float))
            dur = _require(event, entry, "dur", (int, float))
            if ts < 0 or dur < 0:
                raise SchemaError(f"{entry}: negative ts/dur")
        elif phase == "i":
            _require(event, entry, "ts", (int, float))
        elif phase == "C":
            # Counter sample: a timestamp plus at least one series value.
            _require(event, entry, "ts", (int, float))
            args = _require(event, entry, "args", Mapping)
            if not args:
                raise SchemaError(f"{entry}.args: a counter sample needs a value")
        elif phase != "M":
            raise SchemaError(f"{entry}.ph: unexpected phase {phase!r}")
    return record


def validate_metrics(record: Mapping) -> Mapping:
    """Validate one ``repro metrics`` record, identity included.

    Beyond shape, this re-checks the cycle-ledger accounting identity —
    the attributed buckets must sum exactly to ``pe_cycles_total`` — so
    a record that passed through ``round``-happy tooling cannot claim
    attribution it does not have.
    """
    where = "metrics"
    schema = _require(record, where, "schema", str)
    if schema != METRICS_SCHEMA:
        raise SchemaError(f"{where}.schema: expected {METRICS_SCHEMA!r}, got {schema!r}")
    ledger = _require(record, where, "ledger", Mapping)
    entry = f"{where}.ledger"
    total = _require(ledger, entry, "pe_cycles_total", int)
    attributed = _require(ledger, entry, "attributed_total", int)
    entries = _require(ledger, entry, "entries", Mapping)
    if not entries:
        raise SchemaError(f"{entry}.entries: a ledger needs at least one bucket")
    for name, value in entries.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SchemaError(f"{entry}.entries[{name!r}]: expected a count")
    if sum(entries.values()) != total or attributed != total:
        raise SchemaError(
            f"{entry}: attribution identity violated "
            f"(entries sum {sum(entries.values())}, attributed {attributed}, "
            f"pe_cycles_total {total})"
        )
    off_ledger = _require(ledger, entry, "off_ledger", Mapping)
    for name, value in off_ledger.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SchemaError(f"{entry}.off_ledger[{name!r}]: expected a count")
    fractions = _require(ledger, entry, "fractions", Mapping)
    for name, value in fractions.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{entry}.fractions[{name!r}]: expected a number")
    manifest = _require(record, where, "manifest", None)
    if manifest is not None:
        validate_manifest(manifest)
    return record


def _require_rate(record: Mapping, where: str, key: str) -> object:
    """A refs/sec-style field: a positive number or the ``"skipped"``
    marker some sections record on hosts that cannot run them."""
    value = _require(record, where, key, None)
    if value == "skipped":
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise SchemaError(f"{where}.{key}: expected a positive rate or 'skipped'")
    return value


def validate_bench(record: Mapping) -> Mapping:
    """Validate one ``repro bench`` report (``BENCH_replay.json``)."""
    where = "bench"
    benchmark = _require(record, where, "benchmark", str)
    if benchmark != "replay":
        raise SchemaError(f"{where}.benchmark: expected 'replay', got {benchmark!r}")
    _require(record, where, "quick", bool)
    for key in ("host_cpus", "repeats"):
        value = _require(record, where, key, int)
        if isinstance(value, bool) or value < 1:
            raise SchemaError(f"{where}.{key}: expected a positive int")
    workloads = _require(record, where, "workloads", Mapping)
    if not workloads:
        raise SchemaError(f"{where}.workloads: a bench report needs workloads")
    for name, entry in workloads.items():
        sub = f"{where}.workloads[{name!r}]"
        if not isinstance(entry, Mapping):
            raise SchemaError(f"{sub}: expected an object")
        _require(entry, sub, "refs", int)
        _require_rate(entry, sub, "refs_per_sec")
        ratio = _require(entry, sub, "hit_ratio", (int, float))
        if not 0.0 <= float(ratio) <= 1.0:
            raise SchemaError(f"{sub}.hit_ratio: {ratio} outside [0, 1]")
    sweep = record.get("sweep")
    if sweep is not None:
        sub = f"{where}.sweep"
        if not isinstance(sweep, Mapping):
            raise SchemaError(f"{sub}: expected an object")
        _require(sweep, sub, "points", int)
        _require(sweep, sub, "refs", int)
        speedup = _require(sweep, sub, "parallel_speedup", None)
        if speedup is not None and speedup != "skipped":
            if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
                raise SchemaError(
                    f"{sub}.parallel_speedup: expected a number, 'skipped' or null"
                )
    cluster = record.get("cluster")
    if cluster is not None:
        sub = f"{where}.cluster"
        if not isinstance(cluster, Mapping):
            raise SchemaError(f"{sub}: expected an object")
        _require_rate(cluster, sub, "refs_per_sec_serial")
        _require_rate(cluster, sub, "refs_per_sec_parallel")
    manifest = record.get("manifest")
    if manifest is not None:
        validate_manifest(manifest)
    return record


#: Schema tag of ``BENCH_history.jsonl`` records (the producer lives in
#: :mod:`repro.analysis.history`; the tag lives here so the validator
#: has no upward dependency on the analysis layer).
BENCH_HISTORY_SCHEMA = "repro.obs/bench-history/v1"


def validate_bench_history(record: Mapping) -> Mapping:
    """Validate one bench-history JSONL record."""
    where = "bench-history"
    schema = _require(record, where, "schema", str)
    if schema != BENCH_HISTORY_SCHEMA:
        raise SchemaError(
            f"{where}.schema: expected {BENCH_HISTORY_SCHEMA!r}, got {schema!r}"
        )
    _require(record, where, "created_unix", (int, float))
    host = _require(record, where, "host", Mapping)
    _require(host, f"{where}.host", "fingerprint", str)
    _require(host, f"{where}.host", "hostname", str)
    _require(host, f"{where}.host", "machine", str)
    cpus = _require(host, f"{where}.host", "cpus", int)
    if isinstance(cpus, bool) or cpus < 1:
        raise SchemaError(f"{where}.host.cpus: expected a positive int")
    git_sha = _require(record, where, "git_sha", None)
    if git_sha is not None and not isinstance(git_sha, str):
        raise SchemaError(f"{where}.git_sha: expected str or null")
    _require(record, where, "quick", bool)
    _require(record, where, "repeats", int)
    sections = _require(record, where, "sections", Mapping)
    if not sections:
        raise SchemaError(f"{where}.sections: a history record needs sections")
    for name, value in sections.items():
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or value <= 0
        ):
            raise SchemaError(f"{where}.sections[{name!r}]: expected a positive number")
    return record


#: Schema tag of simulator checkpoints (produced by
#: :mod:`repro.serve.checkpoint`; the tag lives here with the other
#: artifact tags so the validator has no upward dependency).
CHECKPOINT_SCHEMA = "repro.obs/checkpoint/v1"

#: Schema tag of job-ledger records (produced by
#: :mod:`repro.serve.jobs`).
JOB_SCHEMA = "repro.obs/job/v1"

#: The job lifecycle.  ``queued`` → ``running`` → (``checkpointed`` ⇄
#: ``running``) → ``done`` | ``failed``.
JOB_STATES = ("queued", "running", "checkpointed", "done", "failed")


def _require_pair_list(record: Mapping, where: str, key: str, width: int) -> list:
    value = _require(record, where, key, list)
    for index, item in enumerate(value):
        if not isinstance(item, (list, tuple)) or len(item) != width:
            raise SchemaError(
                f"{where}.{key}[{index}]: expected a {width}-element row"
            )
    return value


def _validate_checkpoint_stats(stats: Mapping, where: str) -> None:
    for key in ("refs", "hits"):
        rows = _require(stats, where, key, list)
        for index, row in enumerate(rows):
            if not isinstance(row, list):
                raise SchemaError(f"{where}.{key}[{index}]: expected a list")
    for key in (
        "pattern_counts", "pattern_cycles", "bus_cycles_by_area",
        "command_counts", "pe_cycles",
    ):
        _require_number_list(stats, where, key)
    scalars = _require(stats, where, "scalars", Mapping)
    for name, value in scalars.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{where}.scalars[{name!r}]: expected an int")


def _validate_checkpoint_system(state: Mapping, where: str) -> None:
    caches = _require(state, where, "caches", list)
    if not caches:
        raise SchemaError(f"{where}.caches: a system has at least one cache")
    for index, cache in enumerate(caches):
        entry = f"{where}.caches[{index}]"
        if not isinstance(cache, Mapping):
            raise SchemaError(f"{entry}: expected an object")
        tick = _require(cache, entry, "tick", int)
        if isinstance(tick, bool) or tick < 0:
            raise SchemaError(f"{entry}.tick: expected a non-negative int")
        # Each line is [block, state, area, lru, data].
        _require_pair_list(cache, entry, "lines", 5)
    locks = _require(state, where, "locks", list)
    for index, lock in enumerate(locks):
        entry = f"{where}.locks[{index}]"
        if not isinstance(lock, Mapping):
            raise SchemaError(f"{entry}: expected an object")
        _require_pair_list(lock, entry, "entries", 2)
        for key in ("max_occupancy", "overflows"):
            value = _require(lock, entry, key, int)
            if isinstance(value, bool) or value < 0:
                raise SchemaError(f"{entry}.{key}: expected a count")
    _require_pair_list(state, where, "memory", 2)
    _require_pair_list(state, where, "locked_words", 2)
    _require_pair_list(state, where, "waiting", 2)
    stats = _require(state, where, "stats", Mapping)
    _validate_checkpoint_stats(stats, f"{where}.stats")
    interconnect = _require(state, where, "interconnect", Mapping)
    entry = f"{where}.interconnect"
    free_at = _require(interconnect, entry, "free_at", int)
    if isinstance(free_at, bool) or free_at < 0:
        raise SchemaError(f"{entry}.free_at: expected a non-negative int")
    if interconnect.get("entries") is not None:
        # Each directory entry is [block, state, owner, sharers].
        _require_pair_list(interconnect, entry, "entries", 4)
    if "network" in state and state["network"] is not None:
        network = state["network"]
        entry = f"{where}.network"
        if not isinstance(network, Mapping):
            raise SchemaError(f"{entry}: expected an object")
        _require(network, entry, "link_free_at", int)
        net_stats = _require(network, entry, "stats", Mapping)
        for name, value in net_stats.items():
            if name == "forwards_by_home":
                _require_number_list(net_stats, entry + ".stats", name)
            elif not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(
                    f"{entry}.stats[{name!r}]: expected an int"
                )
        cluster_index = _require(state, where, "cluster_index", int)
        if isinstance(cluster_index, bool) or cluster_index < 0:
            raise SchemaError(f"{where}.cluster_index: expected an index")


def validate_checkpoint(record: Mapping) -> Mapping:
    """Validate one full-simulator checkpoint."""
    where = "checkpoint"
    schema = _require(record, where, "schema", str)
    if schema != CHECKPOINT_SCHEMA:
        raise SchemaError(
            f"{where}.schema: expected {CHECKPOINT_SCHEMA!r}, got {schema!r}"
        )
    kind = _require(record, where, "kind", str)
    if kind not in ("flat", "clustered"):
        raise SchemaError(f"{where}.kind: unknown kind {kind!r}")
    _require(record, where, "config", Mapping)
    n_pes = _require(record, where, "n_pes", int)
    if isinstance(n_pes, bool) or n_pes < 1:
        raise SchemaError(f"{where}.n_pes: expected a positive int")
    systems = _require(record, where, "systems", list)
    if not systems:
        raise SchemaError(f"{where}.systems: expected at least one system")
    if kind == "flat" and len(systems) != 1:
        raise SchemaError(
            f"{where}.systems: a flat checkpoint holds one system, "
            f"got {len(systems)}"
        )
    for index, state in enumerate(systems):
        entry = f"{where}.systems[{index}]"
        if not isinstance(state, Mapping):
            raise SchemaError(f"{entry}: expected an object")
        _validate_checkpoint_system(state, entry)
    return record


def validate_job(record: Mapping) -> Mapping:
    """Validate one job-ledger record."""
    where = "job"
    schema = _require(record, where, "schema", str)
    if schema != JOB_SCHEMA:
        raise SchemaError(f"{where}.schema: expected {JOB_SCHEMA!r}, got {schema!r}")
    job_id = _require(record, where, "id", str)
    if not job_id:
        raise SchemaError(f"{where}.id: expected a non-empty id")
    state = _require(record, where, "state", str)
    if state not in JOB_STATES:
        raise SchemaError(f"{where}.state: unknown state {state!r}")
    _require(record, where, "trace", str)
    for key in ("n_pes", "chunk_refs", "checkpoint_every", "max_retries"):
        value = _require(record, where, key, int)
        if isinstance(value, bool) or value < 1:
            raise SchemaError(f"{where}.{key}: expected a positive int")
    retries = _require(record, where, "retries", int)
    if isinstance(retries, bool) or retries < 0:
        raise SchemaError(f"{where}.retries: expected a non-negative int")
    # Optional speculative-mode fields (absent in pre-mode ledgers).
    # Older ledgers also carry a ``kernel`` field, which is ignored.
    mode = record.get("mode")
    if mode is not None and mode not in ("pessimistic", "lazypim"):
        raise SchemaError(f"{where}.mode: unknown mode {mode!r}")
    for key in ("batch_refs", "signature_bits"):
        value = record.get(key)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < 1
        ):
            raise SchemaError(f"{where}.{key}: expected a positive int or null")
    error = _require(record, where, "error", None)
    if error is not None:
        entry = f"{where}.error"
        if not isinstance(error, Mapping):
            raise SchemaError(f"{entry}: expected an object or null")
        _require(error, entry, "kind", str)
        _require(error, entry, "detail", str)
    if state == "failed" and error is None:
        raise SchemaError(f"{where}: failed jobs record a structured error")
    manifest = _require(record, where, "manifest", Mapping)
    validate_manifest(manifest)
    return record


def validate_jsonl(lines: Iterable[str], validator) -> int:
    """Validate every JSONL line with *validator*; returns the count."""
    import json

    count = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise SchemaError(f"line {number}: invalid JSON ({error})") from error
        validator(record)
        count += 1
    return count
