"""Table-driven validators for the observability artifacts.

No external JSON-schema dependency: each artifact is one table of
:class:`Field` descriptors, and every ``validate_*`` function hands its
table to one interpreter, :func:`check`, which raises
:class:`SchemaError` with the dotted path of the first violation
(``checkpoint.systems[0].caches[1].tick``).  A fact a table cannot state
(``refs == hits + misses``, the cycle-ledger identity) is the table's
rule.  The test suite runs every validator over freshly produced
artifacts, so a drive-by field rename cannot break downstream tooling.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Tuple

from repro.core.speculative import MODES
from repro.obs.events import EVENT_KIND_NAMES
from repro.obs.export import HOTNESS_SCHEMA, TRACE_SCHEMA
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.windows import WINDOW_SCHEMA
from repro.trace.events import AREA_NAMES, OP_NAMES


class SchemaError(ValueError):
    """An artifact does not match its published schema."""


class Field(NamedTuple):
    """What one value must look like.

    ``kind`` is ``int`` or ``number`` (never a bool), ``str``, ``bool``,
    ``list`` (a list or tuple) or ``object`` (a mapping).
    ``null`` admits ``None`` and ``opt`` lets the key be absent.
    ``ge``/``gt``/``le`` bound a number; ``one_of`` is an enum (with one
    member, a constant); ``marker`` is one more literal accepted as is
    (``"skipped"``); ``nonempty`` and ``width`` constrain a length.
    ``items`` checks every list item, ``fields`` the named keys of an
    object and ``values`` its other values.  ``by`` is ``(key, specs)``:
    the object must also match ``specs[value[key]]``.  ``rule`` is a
    ``(holds, problem)`` pair for a fact across fields.
    """

    kind: str
    null: bool = False
    opt: bool = False
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    one_of: tuple = ()
    marker: Optional[str] = None
    nonempty: bool = False
    width: Optional[int] = None
    items: Optional[Field] = None
    fields: Optional[Mapping[str, Field]] = None
    values: Optional[Field] = None
    by: Optional[Tuple[str, Mapping[str, Field]]] = None
    rule: Optional[Tuple[Callable[[Mapping], bool], str]] = None


_TYPES = {
    "int": int, "number": (int, float), "str": str, "bool": bool,
    "list": (list, tuple), "object": Mapping,
}


def check(spec: Field, value, where: str):
    """Check *value* against *spec*; returns it, raises :class:`SchemaError`."""
    if value is None and spec.null or spec.marker is not None and value == spec.marker:
        return value
    if not isinstance(value, _TYPES[spec.kind]) or (
        isinstance(value, bool) and spec.kind in ("int", "number")
    ):
        got = "null" if value is None else type(value).__name__
        raise SchemaError(f"{where}: expected {spec.kind}, got {got}")
    if spec.one_of and value not in spec.one_of:
        if len(spec.one_of) == 1:
            raise SchemaError(f"{where}: expected {spec.one_of[0]!r}, got {value!r}")
        raise SchemaError(f"{where}: unknown {where.rpartition('.')[2]} {value!r}")
    if spec.ge is not None and value < spec.ge:
        raise SchemaError(f"{where}: expected >= {spec.ge}, got {value!r}")
    if spec.gt is not None and value <= spec.gt:
        raise SchemaError(f"{where}: expected > {spec.gt}, got {value!r}")
    if spec.le is not None and value > spec.le:
        raise SchemaError(f"{where}: expected <= {spec.le}, got {value!r}")
    if spec.nonempty and not value:
        raise SchemaError(f"{where}: expected a non-empty {spec.kind}")
    if spec.width is not None and len(value) != spec.width:
        raise SchemaError(f"{where}: expected a {spec.width}-element row")
    if spec.items is not None:
        for index, item in enumerate(value):
            check(spec.items, item, f"{where}[{index}]")
    fields = spec.fields or {}
    for key, field in fields.items():
        if key in value:
            check(field, value[key], f"{where}.{key}")
        elif not field.opt:
            raise SchemaError(f"{where}: missing required key {key!r}")
    if spec.values is not None:
        for key, item in value.items():
            if key not in fields:
                check(spec.values, item, f"{where}[{key!r}]")
    if spec.by is not None:
        key, specs = spec.by
        check(specs[value[key]], value, where)
    if spec.rule is not None and not spec.rule[0](value):
        raise SchemaError(f"{where}: {spec.rule[1]}")
    return value


def obj(fields: Mapping[str, Field], **facets) -> Field:
    return Field("object", fields=fields, **facets)


def list_of(items: Field, **facets) -> Field:
    return Field("list", items=items, **facets)


def rows(width: int) -> Field:
    return list_of(Field("list", width=width))


def maybe(spec: Field) -> Field:
    return spec._replace(opt=True, null=True)


def tag(schema: str) -> Field:
    return Field("str", one_of=(schema,))


def each(keys: str, spec: Field) -> dict:
    return dict.fromkeys(keys.split(), spec)


INT, COUNT, POSITIVE = Field("int"), Field("int", ge=0), Field("int", ge=1)
NUMBER, RATIO = Field("number"), Field("number", ge=0, le=1)
STR, BOOL, OBJECT = Field("str"), Field("bool"), Field("object")
NUMBERS = list_of(NUMBER)
#: A refs/sec-style field: a positive number, or the ``"skipped"`` marker
#: some sections record on hosts that cannot run them.
RATE = Field("number", gt=0, marker="skipped")

# The tags of artifacts produced above this layer live here, so the
# validators have no upward dependency.
COMPARISON_SCHEMA = "repro.obs/comparison/v1"  # analysis.protocols
VERIFY_SCHEMA = "repro.obs/verify/v1"  # repro verify --json
BENCH_HISTORY_SCHEMA = "repro.obs/bench-history/v1"  # analysis.history
CHECKPOINT_SCHEMA = "repro.obs/checkpoint/v1"  # serve.checkpoint
JOB_SCHEMA = "repro.obs/job/v1"  # serve.jobs

#: The job lifecycle.  ``queued`` → ``running`` → (``checkpointed`` ⇄
#: ``running``) → ``done`` | ``failed``.
JOB_STATES = ("queued", "running", "checkpointed", "done", "failed")

MANIFEST = obj({
    "schema": tag(MANIFEST_SCHEMA), "created_unix": NUMBER,
    "python_version": STR, "platform": STR, "command": STR,
    **each("git_sha config_hash trace_cache_key", STR._replace(null=True)),
    "protocol": maybe(STR), "clusters": maybe(POSITIVE),
    "config": OBJECT._replace(null=True), "wall_seconds": maybe(NUMBER),
})

EVENT = obj({
    **each("seq ref cycle pe address value", INT),
    "kind": Field("str", one_of=EVENT_KIND_NAMES),
    "op": Field("str", one_of=OP_NAMES), "area": Field("str", one_of=AREA_NAMES),
    "detail": STR, "protocol": STR._replace(opt=True),
})

WINDOW = obj({
    "schema": tag(WINDOW_SCHEMA), "refs": POSITIVE,
    **each("index start hits misses cycles bus_cycles memory_busy_cycles", INT),
    **each("lh_responses unlocks_with_waiter", INT),
    "miss_ratio": RATIO, "bus_utilization": NUMBER,
    **each("refs_by_area misses_by_area bus_cycles_by_area pe_cycles", NUMBERS),
}, rule=(lambda w: w["refs"] == w["hits"] + w["misses"], "refs != hits + misses"))

COMPARISON = obj({
    "schema": tag(COMPARISON_SCHEMA),
    "rows": list_of(obj({
        "protocol": STR, "miss_ratio": RATIO,
        **each("bus_cycles memory_busy_cycles swap_outs c2c_transfers", INT),
        **each("network_messages network_stall_cycles", INT._replace(opt=True)),
    }), nonempty=True),
    "clusters": maybe(POSITIVE), "manifest": maybe(MANIFEST),
})

VERIFY = obj({
    "schema": tag(VERIFY_SCHEMA), "clean": BOOL,
    "model_check": list_of(obj({
        "protocol": STR, "clean": BOOL, "complete": BOOL,
        "states": COUNT, "transitions": COUNT,
        "counterexample": obj({
            "invariant": STR, "detail": STR, "steps": Field("list", nonempty=True),
        }, null=True),
    }, rule=(
        lambda result: result["clean"] == (result["counterexample"] is None),
        "clean results carry no counterexample and violations carry one",
    )), nonempty=True, null=True),
    "fuzz": obj({
        **each("seed budget n_pes refs_total", INT),
        "clean": BOOL,
        "cases": list_of(obj({"protocol": STR, "variant": STR, "ok": BOOL})),
    }, null=True),
    "manifest": maybe(MANIFEST),
}, rule=(
    lambda report: report["model_check"] is not None or report["fuzz"] is not None,
    "needs model_check results or a fuzz report",
))

HOTNESS = obj({
    "schema": tag(HOTNESS_SCHEMA),
    **each("block_words total_refs distinct_blocks shared_blocks", INT),
    "sharing_histogram": OBJECT,
    "top_blocks": list_of(obj({
        **each("block address refs writes reads pes", INT),
        "area": STR,
    })),
})

#: What each Chrome-trace phase adds: a complete slice, an instant, a counter
#: sample (a timestamp plus at least one series value) and metadata.
_PHASES = {
    "X": obj(each("ts dur", Field("number", ge=0))),
    "i": obj({"ts": NUMBER}),
    "C": obj({"ts": NUMBER, "args": Field("object", nonempty=True)}),
    "M": OBJECT,
}

CHROME_TRACE = obj({
    "traceEvents": list_of(obj({
        "ph": Field("str", one_of=tuple(_PHASES)), "pid": INT, "name": STR,
    }, by=("ph", _PHASES))),
    "otherData": obj({"schema": tag(TRACE_SCHEMA)}),
})

# The ledger rule re-checks the cycle-ledger identity, so a record that passed
# through ``round``-happy tooling cannot claim attribution it does not have.
METRICS = obj({
    "schema": tag(METRICS_SCHEMA),
    "ledger": obj({
        "pe_cycles_total": INT, "attributed_total": INT,
        "entries": Field("object", values=COUNT, nonempty=True),
        "off_ledger": Field("object", values=COUNT),
        "fractions": Field("object", values=NUMBER),
    }, rule=(
        lambda ledger: sum(ledger["entries"].values())
        == ledger["attributed_total"] == ledger["pe_cycles_total"],
        "attribution identity violated: entries must sum to attributed_total, "
        "which must equal pe_cycles_total",
    )),
    "manifest": MANIFEST._replace(null=True),
})

BENCH = obj({
    "benchmark": tag("replay"), "quick": BOOL,
    "host_cpus": POSITIVE, "repeats": POSITIVE,
    "workloads": Field("object", nonempty=True, values=obj({
        "refs": INT, "refs_per_sec": RATE, "hit_ratio": RATIO,
    })),
    "sweep": maybe(obj({
        "points": INT, "refs": INT,
        "parallel_speedup": NUMBER._replace(null=True, marker="skipped"),
    })),
    "cluster": maybe(obj(each("refs_per_sec_serial refs_per_sec_parallel", RATE))),
    "manifest": maybe(MANIFEST),
})

BENCH_HISTORY = obj({
    "schema": tag(BENCH_HISTORY_SCHEMA), "created_unix": NUMBER,
    "host": obj({**each("fingerprint hostname machine", STR), "cpus": POSITIVE}),
    "git_sha": STR._replace(null=True), "quick": BOOL, "repeats": POSITIVE,
    "sections": Field("object", nonempty=True, values=Field("number", gt=0)),
})

SYSTEM = obj({
    # Each cache line is [block, state, area, lru, data].
    "caches": list_of(obj({"tick": COUNT, "lines": rows(5)}), nonempty=True),
    "locks": list_of(obj({"entries": rows(2), **each("max_occupancy overflows", COUNT)})),
    **each("memory locked_words waiting", rows(2)),
    "stats": obj({
        "refs": list_of(Field("list")), "hits": list_of(Field("list")),
        **each("pattern_counts pattern_cycles bus_cycles_by_area", NUMBERS),
        **each("command_counts pe_cycles", NUMBERS),
        "scalars": Field("object", values=INT),
    }),
    # Each directory entry is [block, state, owner, sharers].
    "interconnect": obj({"free_at": COUNT, "entries": maybe(rows(4))}),
    "network": maybe(obj({
        "link_free_at": INT,
        "stats": obj({"forwards_by_home": NUMBERS._replace(opt=True)}, values=INT),
    })),
    "cluster_index": COUNT._replace(opt=True),
}, rule=(
    lambda state: state.get("network") is None or "cluster_index" in state,
    "a cluster's system records its cluster_index",
))

CHECKPOINT = obj({
    "schema": tag(CHECKPOINT_SCHEMA),
    "kind": Field("str", one_of=("flat", "clustered")),
    "config": OBJECT, "n_pes": POSITIVE,
    "systems": list_of(SYSTEM, nonempty=True),
}, rule=(
    lambda record: record["kind"] != "flat" or len(record["systems"]) == 1,
    "a flat checkpoint holds exactly one system",
))

JOB = obj({
    "schema": tag(JOB_SCHEMA), "id": Field("str", nonempty=True),
    "state": Field("str", one_of=JOB_STATES), "trace": STR,
    **each("n_pes chunk_refs checkpoint_every max_retries", POSITIVE),
    "retries": COUNT,
    # Optional speculative-mode fields (absent in pre-mode ledgers).
    # Older ledgers also carry a ``kernel`` field, which is ignored.
    "mode": maybe(Field("str", one_of=MODES)),
    "batch_refs": maybe(POSITIVE), "signature_bits": maybe(POSITIVE),
    "error": obj({"kind": STR, "detail": STR}, null=True),
    "manifest": MANIFEST,
}, rule=(
    lambda record: record["state"] != "failed" or record["error"] is not None,
    "failed jobs record a structured error",
))


def validate_manifest(record: Mapping) -> Mapping:
    return check(MANIFEST, record, "manifest")


def validate_event(record: Mapping) -> Mapping:
    return check(EVENT, record, "event")


def validate_window(record: Mapping) -> Mapping:
    return check(WINDOW, record, "window")


def validate_comparison(record: Mapping) -> Mapping:
    return check(COMPARISON, record, "comparison")


def validate_verify(record: Mapping) -> Mapping:
    return check(VERIFY, record, "verify")


def validate_hotness(record: Mapping) -> Mapping:
    return check(HOTNESS, record, "hotness")


def validate_chrome_trace(record: Mapping) -> Mapping:
    return check(CHROME_TRACE, record, "chrome-trace")


def validate_metrics(record: Mapping) -> Mapping:
    return check(METRICS, record, "metrics")


def validate_bench(record: Mapping) -> Mapping:
    """Validate one ``repro bench`` report (``BENCH_replay.json``)."""
    return check(BENCH, record, "bench")


def validate_bench_history(record: Mapping) -> Mapping:
    return check(BENCH_HISTORY, record, "bench-history")


def validate_checkpoint(record: Mapping) -> Mapping:
    return check(CHECKPOINT, record, "checkpoint")


def validate_job(record: Mapping) -> Mapping:
    return check(JOB, record, "job")


def validate_jsonl(lines: Iterable[str], validator, prefix: str = "line ") -> int:
    """Validate every JSONL line with *validator*; returns the count.
    Every error starts with ``{prefix}{number}:`` (``line 2:``)."""
    count = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            validator(json.loads(line))
        except json.JSONDecodeError as error:
            raise SchemaError(f"{prefix}{number}: invalid JSON ({error})") from error
        except SchemaError as error:
            raise SchemaError(f"{prefix}{number}: {error}") from error
        count += 1
    return count
