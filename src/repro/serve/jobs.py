"""The simulation job service: a persistent ledger plus worker monitor.

A *job* is one simulation — config + trace + replay options — owned by
a :class:`JobStore` directory:

.. code-block:: text

    <root>/
      traces/<sha256-prefix>.trace     content-addressed traces
      jobs/<id>/job.json               the ledger record (repro.obs/job/v1)
      jobs/<id>/checkpoint.json        last checkpoint (repro.obs/checkpoint/v1)
      jobs/<id>/heartbeats.jsonl       windowed progress (repro.obs/heartbeat/v1)
      jobs/<id>/result.json            final stats + provenance manifest

Lifecycle: ``queued`` → ``running`` → (``checkpointed`` ⇄ ``running``)
→ ``done`` | ``failed``.  :class:`JobServer` runs each job's replay in
a separate process and watches its exit code; an abnormal death (e.g.
SIGKILL mid-chunk) is surfaced as a structured error and the job is
retried *from its last checkpoint* up to ``max_retries`` times — the
final counters are bit-identical to an uninterrupted run because
checkpoints land on chunk boundaries and streaming replay composes
(see :mod:`repro.serve.stream` and :mod:`repro.serve.checkpoint`).

Traces are stored content-addressed, so resubmitting the same trace
under a different config reuses the bytes already on disk — the
job-fleet analogue of the ``Workloads`` trace cache.

Fault injection for tests and CI: when ``REPRO_SERVE_FAULT_KILL_AFTER``
is set to *N*, a worker on its **first** attempt SIGKILLs itself after
replaying N chunks (a real kill signal, mid-stream); retries run clean.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.core.config import SimulationConfig
from repro.core.speculative import MODES, check_batch_knobs
from repro.obs.manifest import build_manifest, config_from_dict
from repro.obs.schema import (
    JOB_SCHEMA,
    JOB_STATES,
    validate_checkpoint,
    validate_job,
)
from repro.obs.telemetry import heartbeat
from repro.serve.checkpoint import restore, snapshot
from repro.serve.stream import replay_stream
from repro.trace.buffer import TraceBuffer
from repro.trace.io import trace_header, write_trace

#: Environment hook: SIGKILL the worker after N chunks (first attempt
#: only).  Exists so the retry path is exercised deterministically.
FAULT_KILL_ENV = "REPRO_SERVE_FAULT_KILL_AFTER"

DEFAULT_CHUNK_REFS = 8_192
DEFAULT_CHECKPOINT_EVERY = 4
DEFAULT_MAX_RETRIES = 2

#: Read size when hashing a stored trace, so storing a trace holds one
#: block of it in memory, never the whole file.
HASH_BLOCK_BYTES = 1 << 20


class JobError(RuntimeError):
    """A job could not be submitted, run, or fetched."""


class JobStore:
    """Directory-backed job ledger (safe to reopen across processes)."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self.jobs_dir = self.root / "jobs"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -- trace storage --------------------------------------------------

    def store_trace(self, trace: Union[TraceBuffer, str, Path]) -> str:
        """Store *trace* content-addressed; returns its key.

        An in-memory buffer is serialized with :func:`write_trace`; a
        path is header-checked and copied verbatim.  Workers stream
        either by range.  Identical content maps to the same key, so
        repeated submissions share bytes.
        """
        scratch = self.traces_dir / f".incoming-{os.getpid()}.trace"
        if isinstance(trace, TraceBuffer):
            write_trace(trace, scratch)
        else:
            trace_header(trace)
            shutil.copyfile(trace, scratch)
        digest = hashlib.sha256()
        with open(scratch, "rb") as handle:
            for block in iter(lambda: handle.read(HASH_BLOCK_BYTES), b""):
                digest.update(block)
        key = f"{digest.hexdigest()[:24]}.trace"
        final = self.traces_dir / key
        if final.exists():
            scratch.unlink()
        else:
            scratch.replace(final)
        return key

    def trace_path(self, key: str) -> Path:
        return self.traces_dir / key

    # -- the ledger -----------------------------------------------------

    def _job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def _job_file(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "job.json"

    def submit(
        self,
        config: SimulationConfig,
        trace: Union[TraceBuffer, str, Path],
        n_pes: Optional[int] = None,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        max_retries: int = DEFAULT_MAX_RETRIES,
        seed: Optional[int] = None,
        mode: Optional[str] = None,
        batch_refs: Optional[int] = None,
        signature_bits: Optional[int] = None,
    ) -> str:
        """Enqueue one simulation; returns its job id.

        *mode*, *batch_refs* and *signature_bits* select the coherence
        execution mode (see :func:`repro.core.replay.replay`); they are
        recorded in the ledger so retried workers replay under exactly
        the submitted mode.
        """
        if chunk_refs < 1 or checkpoint_every < 1 or max_retries < 1:
            raise JobError(
                "chunk_refs, checkpoint_every and max_retries must be >= 1"
            )
        if mode is not None and mode not in MODES:
            raise JobError(f"unknown replay mode {mode!r}")
        try:
            check_batch_knobs(batch_refs, signature_bits)
        except ValueError as error:
            raise JobError(str(error)) from None
        trace_key = self.store_trace(trace)
        if n_pes is None:
            n_pes = trace_header(self.trace_path(trace_key)).n_pes
        sequence = len(list(self.jobs_dir.iterdir())) + 1
        job_id = f"{sequence:04d}-{config.protocol}-{trace_key[:8]}"
        record = {
            "schema": JOB_SCHEMA,
            "id": job_id,
            "state": "queued",
            "trace": trace_key,
            "n_pes": n_pes,
            "chunk_refs": chunk_refs,
            "checkpoint_every": checkpoint_every,
            "retries": 0,
            "max_retries": max_retries,
            "mode": mode,
            "batch_refs": batch_refs,
            "signature_bits": signature_bits,
            "error": None,
            "manifest": build_manifest(
                config=config,
                seed=seed,
                trace_cache_key=trace_key,
                command="repro serve submit",
                extra={"kind": "serve-job"},
            ),
        }
        validate_job(record)
        self._job_dir(job_id).mkdir(parents=True, exist_ok=True)
        self._write_record(job_id, record)
        return job_id

    def _write_record(self, job_id: str, record: dict) -> None:
        path = self._job_file(job_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)

    def job(self, job_id: str) -> dict:
        path = self._job_file(job_id)
        if not path.exists():
            raise JobError(f"unknown job {job_id!r}")
        return validate_job(json.loads(path.read_text()))

    def jobs(self) -> List[dict]:
        """Every ledger record, in submission order."""
        return [
            validate_job(json.loads((entry / "job.json").read_text()))
            for entry in sorted(self.jobs_dir.iterdir())
            if (entry / "job.json").exists()
        ]

    def update(self, job_id: str, **fields) -> dict:
        record = self.job(job_id)
        record.update(fields)
        if record["state"] not in JOB_STATES:
            raise JobError(f"unknown job state {record['state']!r}")
        validate_job(record)
        self._write_record(job_id, record)
        return record

    # -- per-job artifacts ----------------------------------------------

    def checkpoint_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "checkpoint.json"

    def checkpoint(self, job_id: str) -> Optional[dict]:
        """The job's last checkpoint: progress markers plus the
        schema-validated simulator snapshot under ``"state"``."""
        path = self.checkpoint_path(job_id)
        if not path.exists():
            return None
        record = json.loads(path.read_text())
        if not isinstance(record, dict):
            raise JobError(f"job {job_id!r}: checkpoint record is not an object")
        validate_checkpoint(record.get("state"))
        return record

    def write_job_checkpoint(self, job_id: str, record: dict) -> None:
        path = self.checkpoint_path(job_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
        tmp.replace(path)

    def heartbeats(self, job_id: str) -> List[dict]:
        """The job's windowed progress records, oldest first."""
        path = self._job_dir(job_id) / "heartbeats.jsonl"
        if not path.exists():
            return []
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]

    def append_heartbeat(self, job_id: str, record: dict) -> None:
        path = self._job_dir(job_id) / "heartbeats.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def result(self, job_id: str) -> Optional[dict]:
        path = self._job_dir(job_id) / "result.json"
        return json.loads(path.read_text()) if path.exists() else None

    def write_result(self, job_id: str, result: dict) -> None:
        path = self._job_dir(job_id) / "result.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)


# ---------------------------------------------------------------------------
# The worker (runs in its own process; must be module-level picklable).


def _job_worker(root: str, job_id: str) -> None:
    store = JobStore(root)
    record = store.job(job_id)
    config = config_from_dict(record["manifest"]["config"])
    trace_path = store.trace_path(record["trace"])
    checkpoint_every = record["checkpoint_every"]

    kill_after = None
    if record["retries"] == 0:
        raw = os.environ.get(FAULT_KILL_ENV, "")
        if raw:
            kill_after = int(raw)

    system = None
    start_chunk = 0
    saved = store.checkpoint(job_id)
    if saved is not None:
        system = restore(saved["state"])
        start_chunk = saved["chunks_done"]

    refs_total = trace_header(trace_path).n_refs
    started = time.monotonic()
    progress = {
        "seq": len(store.heartbeats(job_id)),
        "refs_done": saved["refs_done"] if saved else 0,
        "hits_done": saved["hits_done"] if saved else 0,
        "replayed": 0,
    }

    def on_chunk(index: int, _refs: int, live_system) -> None:
        done_index = start_chunk + index + 1
        stats = live_system.stats
        refs_done = stats.total_refs
        hits_done = stats.total_hits
        # Windowed metrics: this chunk's miss ratio, not the cumulative.
        window_refs = refs_done - progress["refs_done"]
        window_hits = hits_done - progress["hits_done"]
        window_miss = (
            (window_refs - window_hits) / window_refs if window_refs else 0.0
        )
        elapsed = time.monotonic() - started
        store.append_heartbeat(
            job_id,
            heartbeat(
                worker=os.getpid(),
                seq=progress["seq"],
                point=done_index,
                points_done=done_index,
                refs_done=refs_done,
                refs_total=refs_total,
                refs_per_sec=(
                    (refs_done - (saved["refs_done"] if saved else 0))
                    / elapsed
                    if elapsed > 0
                    else 0.0
                ),
                miss_ratio=window_miss,
            ),
        )
        progress["seq"] += 1
        progress["refs_done"] = refs_done
        progress["hits_done"] = hits_done
        progress["replayed"] += 1
        if done_index % checkpoint_every == 0:
            store.write_job_checkpoint(
                job_id,
                {
                    "state": snapshot(live_system),
                    "chunks_done": done_index,
                    "refs_done": refs_done,
                    "hits_done": hits_done,
                },
            )
            store.update(job_id, state="checkpointed")
        if kill_after is not None and progress["replayed"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    result = replay_stream(
        trace_path,
        config=config,
        n_pes=record["n_pes"],
        chunk_refs=record["chunk_refs"],
        system=system,
        on_chunk=on_chunk,
        mode=record.get("mode"),
        batch_refs=record.get("batch_refs"),
        signature_bits=record.get("signature_bits"),
        start=start_chunk * record["chunk_refs"],
    )
    stats_dict = result.as_dict()
    store.append_heartbeat(
        job_id,
        heartbeat(
            worker=os.getpid(),
            seq=progress["seq"],
            point=start_chunk + progress["replayed"],
            points_done=start_chunk + progress["replayed"],
            refs_done=refs_total,
            refs_total=refs_total,
            refs_per_sec=0.0,
            miss_ratio=0.0,
            done=True,
        ),
    )
    store.write_result(
        job_id,
        {
            "job": job_id,
            "stats": stats_dict,
            "clustered": hasattr(result, "per_cluster"),
            "manifest": record["manifest"],
        },
    )
    store.update(job_id, state="done")


# ---------------------------------------------------------------------------
# The monitor.


class JobServer:
    """Runs ledger jobs in worker processes and supervises them.

    One job at a time (jobs themselves fan out via clusters and the
    sweep pool); the value added here is surviving worker death.
    """

    def __init__(self, store: JobStore, poll_seconds: float = 0.05):
        self.store = store
        self.poll_seconds = poll_seconds

    def run_pending(self) -> List[str]:
        """Run every queued/checkpointed job to completion or failure."""
        finished = []
        for record in self.store.jobs():
            if record["state"] in ("queued", "checkpointed"):
                self.run_job(record["id"])
                finished.append(record["id"])
        return finished

    def run_job(self, job_id: str) -> dict:
        """Drive one job to ``done`` or ``failed``; returns the record."""
        record = self.store.job(job_id)
        if record["state"] in ("done", "failed"):
            return record
        context = multiprocessing.get_context()
        while True:
            self.store.update(job_id, state="running")
            worker = context.Process(
                target=_job_worker, args=(str(self.store.root), job_id)
            )
            worker.start()
            worker.join()
            record = self.store.job(job_id)
            if record["state"] == "done" and worker.exitcode == 0:
                return record
            # Abnormal death (negative exitcode = killed by signal) or
            # an exception that escaped the worker.
            detail = (
                f"worker pid {worker.pid} exited with "
                f"{worker.exitcode}"
                + (
                    f" (signal {-worker.exitcode})"
                    if worker.exitcode and worker.exitcode < 0
                    else ""
                )
            )
            has_checkpoint = self.store.checkpoint_path(job_id).exists()
            if record["retries"] < record["max_retries"]:
                self.store.update(
                    job_id,
                    state="checkpointed" if has_checkpoint else "queued",
                    retries=record["retries"] + 1,
                    error={
                        "kind": "worker-death",
                        "detail": detail + "; retrying from "
                        + ("last checkpoint" if has_checkpoint else "scratch"),
                    },
                )
                continue
            return self.store.update(
                job_id,
                state="failed",
                error={
                    "kind": "worker-death",
                    "detail": detail + f"; gave up after "
                    f"{record['retries']} retries",
                },
            )
