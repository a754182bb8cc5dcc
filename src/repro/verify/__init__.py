"""Protocol verification: model checking and differential fuzzing.

Two independent oracles over the same table-driven protocol machinery:

* :mod:`repro.verify.model` — exhaustive breadth-first enumeration of a
  spec's reachable state space on a tiny configuration, with an
  invariant battery (single-writer/multiple-reader, data value,
  dirty-copy durability, lock-directory consistency) and
  shortest-path counterexample traces.
* :mod:`repro.verify.oracle` — differential fuzzing of every replay
  path (per-access system, generated kernel, sharded and interleaved
  cluster replay) against a flat-memory reference model, with automatic
  trace shrinking on divergence.
"""

from repro.verify.model import (
    CheckResult,
    Counterexample,
    ModelCheckOptions,
    Violation,
    check_protocol,
)
from repro.verify.oracle import (
    Divergence,
    FuzzCase,
    FuzzReport,
    run_case,
    run_fuzz,
    run_lazypim_case,
)
from repro.verify.reference import (
    READ_VALUE_OPS,
    WRITE_OPS,
    FlatMemory,
    value_for,
)
from repro.verify.shrink import shrink_trace, subset

__all__ = [
    "CheckResult",
    "Counterexample",
    "Divergence",
    "FlatMemory",
    "FuzzCase",
    "FuzzReport",
    "ModelCheckOptions",
    "READ_VALUE_OPS",
    "Violation",
    "WRITE_OPS",
    "check_protocol",
    "run_case",
    "run_fuzz",
    "run_lazypim_case",
    "shrink_trace",
    "subset",
    "value_for",
]
