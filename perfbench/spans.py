"""Host-time spans around the program's layer functions.

A :class:`Tracer` replaces each public layer function, at the name its
caller looks it up by, with a wrapper that records a span (name, start,
end, parent) in memory.  Nothing is wrapped unless :meth:`Tracer.install`
runs, so an untraced run executes the program unchanged.

A span's *self time* is its duration minus its children's durations, so
the self times of all spans add up to the time the top-level spans
cover; whatever the traced window spends outside every top-level span is
reported as ``unattributed_s``.  The first dotted part of a span's name
is its layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.config import OptimizationConfig

# Every patched module is imported here, before any patch, so names the
# program binds at import time (``repro.core.speculative.replay``,
# ``repro.cluster.replay.replay``) keep pointing at the originals: a
# kernel call inside a speculative batch or a cluster shard is that
# layer's own time.  ``import_module`` returns the module itself:
# ``repro.core`` re-exports the ``replay`` function under the
# submodule's name.
_runner = importlib.import_module("repro.analysis.runner")
_parallel = importlib.import_module("repro.analysis.parallel")
_cluster_system = importlib.import_module("repro.cluster.system")
_replay = importlib.import_module("repro.core.replay")
_speculative = importlib.import_module("repro.core.speculative")
_checkpoint = importlib.import_module("repro.serve.checkpoint")
_synthetic = importlib.import_module("repro.trace.synthetic")


class Span:
    __slots__ = ("name", "parent", "start", "end", "args")

    def __init__(self, name: str, parent: Optional[int]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.args: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _buffer_arg(args, kwargs):
    return args[0] if args else kwargs.get("buffer", kwargs.get("trace"))


def _config_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("config")


def _replay_name(args, kwargs) -> str:
    return "spec.dispatch" if kwargs.get("mode") == "lazypim" else "replay.run"


def _replay_args(args, kwargs, result) -> dict:
    config = _config_arg(args, kwargs)
    return {
        "buffer": _buffer_arg(args, kwargs),
        "refs": len(_buffer_arg(args, kwargs)),
        "interconnect": config.interconnect,
        "opts": config.opts,
        "c2c_transfers": result.c2c_transfers,
        "directory_forwards": result.directory_forwards,
        "directory_invalidations": result.directory_invalidations,
    }


def _spec_args(args, kwargs, result) -> dict:
    buffer = _buffer_arg(args, kwargs)
    return {
        "buffer": buffer,
        "refs": len(buffer),
        "commits": result.batch_commits,
        "rollbacks": result.batch_rollbacks,
    }


def _emulate_args(args, kwargs, result) -> dict:
    return {
        "refs": result.machine.memory_refs,
        "reductions": result.machine.reductions,
    }


def _file_args(path_index: int):
    def args_of(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(args[path_index])}
    return args_of


def _lookup_args(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _cluster_args(args, kwargs, result) -> dict:
    return {
        "refs": len(_buffer_arg(args, kwargs)),
        "network_messages": result.network.messages,
        "network_stall_cycles": result.network.stall_cycles,
    }


#: (owner, attribute, span name, args_of).  Each function is wrapped at
#: the name its caller looks up: ``runner`` binds ``read_trace`` /
#: ``write_trace`` / ``run_benchmark`` as module globals, ``parallel``
#: binds ``split_trace`` / ``replay_shard``, ``ClusterStats`` calls
#: ``merged_system_stats`` from its own module, and ``replay`` and
#: ``speculative`` import ``replay_speculative`` / ``snapshot`` /
#: ``restore_into`` inside a function, so those are wrapped on their
#: defining modules.
LAYER_FUNCTIONS = (
    (_runner, "run_benchmark", "machine.emulate", _emulate_args),
    (_runner, "write_trace", "trace.store", _file_args(1)),
    (_runner, "read_trace", "trace.load", _file_args(0)),
    (_runner.Workloads, "_load_trace", "trace.lookup", _lookup_args),
    (_synthetic, "generate_random_trace", "trace.generate", None),
    (_replay, "replay", _replay_name, _replay_args),
    (_speculative, "replay_speculative", "spec.replay", _spec_args),
    (_checkpoint, "snapshot", "spec.snapshot", None),
    (_checkpoint, "restore_into", "spec.restore", None),
    (_parallel, "run_clustered", "cluster.run", _cluster_args),
    (_parallel, "split_trace", "cluster.split", None),
    (_parallel, "replay_shard", "cluster.shard", None),
    (_cluster_system, "merged_system_stats", "cluster.merge", None),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: list = []

    def install(self) -> None:
        for owner, attr, name, args_of in LAYER_FUNCTIONS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, args_of))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name, args_of) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(
                name(args, kwargs) if callable(name) else name,
                stack[-1] if stack else None,
            )
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if args_of is not None:
                span.args.update(args_of(args, kwargs, result))
            return result

        return traced

    # -- analysis --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's durations."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def top_level_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def write_chrome_trace(self, path: Path, origin: float) -> None:
        """Dump the spans as Chrome trace-event JSON (opens in Perfetto
        next to ``repro profile`` traces, which use pids 1-3)."""
        events = [{
            "name": "process_name", "ph": "M", "pid": 4, "tid": 0,
            "args": {"name": "host spans (perfbench)"},
        }]
        for span in self.spans:
            args = {
                key: value for key, value in span.args.items()
                if isinstance(value, (int, float, str, bool))
            }
            if span.parent is not None:
                args["parent"] = self.spans[span.parent].name
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "pid": 4, "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: Span name -> the self-time metric it is charged to.
_SELF_METRIC = {
    "machine.emulate": "machine.emulate_s",
    "trace.store": "trace.store_s",
    "trace.load": "trace.load_s",
    "trace.lookup": "trace.load_s",
    "trace.generate": "trace.generate_s",
    "replay.run": "replay.self_s",
    "spec.dispatch": "spec.self_s",
    "spec.replay": "spec.self_s",
    "spec.snapshot": "spec.snapshot_s",
    "spec.restore": "spec.restore_s",
    "cluster.run": "cluster.self_s",
    "cluster.split": "cluster.split_s",
    "cluster.shard": "cluster.shard_s",
    "cluster.merge": "cluster.merge_s",
}

#: Per-layer metrics that are self times; with ``unattributed_s`` they
#: add up to ``traced_wall_s``.
SELF_TIME_METRICS = tuple(dict.fromkeys(_SELF_METRIC.values()))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_pass: float,
                  traced_pass: float) -> Dict[str, float]:
    """Every per-layer metric from the traced window's spans.

    A layer the workload does not exercise reports 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    metrics: Dict[str, float] = defaultdict(float)
    for name in SELF_TIME_METRICS:
        metrics[name] = 0.0
    for span, seconds in zip(spans, own):
        metrics[_SELF_METRIC[span.name]] += seconds

    def of(name):
        return [s for s in spans if s.name == name]

    emulations = of("machine.emulate")
    metrics["machine.runs"] = len(emulations)
    metrics["machine.refs"] = sum(s.args["refs"] for s in emulations)
    metrics["machine.reductions"] = sum(s.args["reductions"] for s in emulations)
    metrics["machine.refs_per_s"] = _rate(
        metrics["machine.refs"], sum(s.duration for s in emulations)
    )

    metrics["trace.bytes"] = sum(
        s.args["bytes"] for s in of("trace.store") + of("trace.load")
    )
    lookups = of("trace.lookup")
    metrics["runner.cache_hits"] = sum(s.args["hit"] for s in lookups)
    metrics["runner.cache_misses"] = len(lookups) - metrics["runner.cache_hits"]

    replays = of("replay.run")
    seen, first, repeat = set(), [], []
    for span in replays:
        key = id(span.args["buffer"])
        (repeat if key in seen else first).append(span.duration)
        seen.add(key)
    metrics["replay.calls"] = len(replays)
    metrics["replay.refs"] = sum(s.args["refs"] for s in replays)
    metrics["replay.refs_per_s"] = _rate(
        metrics["replay.refs"], sum(s.duration for s in replays)
    )
    metrics["replay.first_s"] = sum(first) / len(first) if first else 0.0
    metrics["replay.repeat_s"] = sum(repeat) / len(repeat) if repeat else 0.0

    # Backend rates over the same traces and configs: the None/All
    # command columns, which the sweep runs on both backends.
    paired = (OptimizationConfig.none(), OptimizationConfig.all())
    for backend in ("bus", "directory"):
        chosen = [
            s for s in replays
            if s.args["interconnect"] == backend and s.args["opts"] in paired
        ]
        metrics[f"interconnect.{backend}_refs_per_s"] = _rate(
            sum(s.args["refs"] for s in chosen), sum(s.duration for s in chosen)
        )
    for counter in ("c2c_transfers", "directory_forwards", "directory_invalidations"):
        metrics[f"interconnect.{counter}"] = sum(s.args[counter] for s in replays)

    speculative = of("spec.replay")
    metrics["spec.refs_per_s"] = _rate(
        sum(s.args["refs"] for s in speculative),
        sum(s.duration for s in speculative),
    )
    commits = sum(s.args["commits"] for s in speculative)
    rollbacks = sum(s.args["rollbacks"] for s in speculative)
    metrics["spec.commits"] = commits
    metrics["spec.rollbacks"] = rollbacks
    metrics["spec.commit_ratio"] = _rate(commits, commits + rollbacks)
    metrics["spec.snapshot_calls"] = len(of("spec.snapshot"))
    metrics["spec.restore_calls"] = len(of("spec.restore"))
    # Worst trace's lazypim rate over its pessimistic rate (the ROADMAP
    # target is >= 1/3 on every trace).
    ratios = []
    for span in speculative:
        buffer = span.args["buffer"]
        pessimistic = [s for s in replays if s.args["buffer"] is buffer]
        if pessimistic:
            ratios.append(_rate(
                _rate(span.args["refs"], span.duration),
                _rate(sum(s.args["refs"] for s in pessimistic),
                      sum(s.duration for s in pessimistic)),
            ))
    metrics["spec.vs_pessimistic"] = min(ratios) if ratios else 0.0

    clustered = of("cluster.run")
    metrics["cluster.network_messages"] = sum(
        s.args["network_messages"] for s in clustered
    )
    metrics["cluster.network_stall_cycles"] = sum(
        s.args["network_stall_cycles"] for s in clustered
    )

    metrics["traced_wall_s"] = traced_wall
    metrics["unattributed_s"] = traced_wall - tracer.top_level_time()
    metrics["trace_overhead_ratio"] = traced_pass / untraced_pass - 1.0
    return dict(metrics)


def format_layer_table(metrics: Dict[str, float]) -> str:
    """Self time per layer metric with its share of the traced wall time,
    then every count and rate."""
    wall = metrics["traced_wall_s"]
    lines = [f"{'self time':<24}{'s':>10}{'share':>8}"]
    for name in SELF_TIME_METRICS + ("unattributed_s",):
        lines.append(f"{name:<24}{metrics[name]:>10.3f}{metrics[name] / wall:>8.1%}")
    lines.append(f"{'traced_wall_s':<24}{wall:>10.3f}")
    for name, value in metrics.items():
        if name not in SELF_TIME_METRICS and name not in (
            "unattributed_s", "traced_wall_s"
        ):
            lines.append(f"{name:<38}{value:>14.6g}")
    return "\n".join(lines)
