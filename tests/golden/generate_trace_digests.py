"""Regenerate the trace-digest goldens.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_trace_digests.py

For every run of ``generate_machine_goldens.py`` (tri, semi, pascal and
puzzle at tiny scale on 8 PEs; pascal and tri in two clusters; the GC
churn run) this records the SHA-256 of each of the recorded trace's five
columns, the instruction-fetch count and the GC marks.  The machine
goldens pin what replaying a trace reports; these pin the trace itself,
so a change to how the emulator records references is held to the
stream it recorded before, byte for byte.  Regenerate only for a
deliberate change to the emulator (and say so in the commit message).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from array import array
from pathlib import Path

from repro.machine.machine import MachineResult

GOLDEN_DIR = Path(__file__).parent
DIGEST_PATH = GOLDEN_DIR / "trace_digests.json"
COLUMNS = ("pe", "op", "area", "addr", "flags")


def load_machine_generator():
    """``generate_machine_goldens.py``, loaded by path (tests/golden is
    run as a script, not imported as a package)."""
    spec = importlib.util.spec_from_file_location(
        "generate_machine_goldens", GOLDEN_DIR / "generate_machine_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def column_digest(column: array) -> str:
    """SHA-256 of a column's little-endian bytes."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return hashlib.sha256(column.tobytes()).hexdigest()


def digest_record(result: MachineResult) -> dict:
    columns = result.trace.columns()
    return {
        "refs": len(result.trace),
        "columns": {
            name: column_digest(column) for name, column in zip(COLUMNS, columns)
        },
        "instruction_refs": result.instructions,
        "gc_marks": list(result.gc_marks),
    }


def runs():
    """``(key, thunk)`` for every digested run, keyed as the machine
    goldens are."""
    gen = load_machine_generator()
    out = [(f"k1/{name}", lambda name=name: gen.run(name))
           for name in gen.FLAT_BENCHMARKS]
    out += [
        (f"k{gen.N_CLUSTERS}/{name}",
         lambda name=name: gen.run(name, gen.N_CLUSTERS))
        for name in gen.CLUSTERED_BENCHMARKS
    ]
    out.append((
        f"gc/churn{gen.GC_THRESHOLD}",
        lambda: gen.load_churn()(gc_threshold=gen.GC_THRESHOLD)[1],
    ))
    return out


def generate() -> dict:
    return {key: digest_record(thunk()) for key, thunk in runs()}


if __name__ == "__main__":
    digests = generate()
    DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} trace digests to {DIGEST_PATH}")
