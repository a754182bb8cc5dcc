"""Simulation-as-a-service: streaming replay, checkpoints, jobs.

Three layers, each usable on its own:

* :mod:`repro.serve.stream` — constant-memory replay over trace files
  (read one range at a time by :mod:`repro.trace.io`), bit-identical
  to in-memory replay for flat and clustered systems.
* :mod:`repro.serve.checkpoint` — :func:`snapshot`/:func:`restore` of
  full simulator state (cache arrays, lock directories, directory
  entries, clocks, every ledger counter), schema-validated as
  ``repro.obs/checkpoint/v1``.
* :mod:`repro.serve.jobs` — a persistent job ledger plus a worker
  monitor: submit config+trace, run asynchronously with periodic
  checkpoints and heartbeats, retry from the last checkpoint when a
  worker dies, fetch schema-validated results.  ``repro serve`` is the
  CLI front end.
"""

from repro.serve.checkpoint import (  # noqa: F401
    read_checkpoint,
    restore,
    snapshot,
    write_checkpoint,
)
from repro.serve.jobs import JobServer, JobStore  # noqa: F401
from repro.serve.stream import replay_stream  # noqa: F401
