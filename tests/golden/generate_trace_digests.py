"""Regenerate (or check) the trace-digest goldens.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_trace_digests.py
    PYTHONPATH=src python tests/golden/generate_trace_digests.py --scale small --check

For every run of ``generate_machine_goldens.py`` (tri, semi, pascal and
puzzle at tiny scale on 8 PEs; pascal and tri in two clusters; the GC
churn run), and for ``opcodes.fghc`` (every instruction, guard operator
and guard leaf kind, on 8 PEs), this records the SHA-256 of each of the
recorded trace's five columns, the instruction-fetch count and the GC
marks into ``trace_digests.json``.  ``--scale small`` does the same for
tri, semi and pascal at small scale on 8 PEs, the runs perfbench's
``capture`` emulates, into ``trace_digests_small.json`` (about 5 s, so
CI runs it rather than the tier-1 suite).  ``--check`` compares
instead of writing and exits 1 on any difference.  The machine
goldens pin what replaying a trace reports; these pin the trace itself,
so a change to how the emulator records references is held to the
stream it recorded before, byte for byte.  Regenerate only for a
deliberate change to the emulator (and say so in the commit message).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from array import array
from pathlib import Path

from repro.core.config import MachineConfig
from repro.machine.machine import KL1Machine, MachineResult
from repro.programs import get as get_benchmark

GOLDEN_DIR = Path(__file__).parent
DIGEST_PATHS = {
    "tiny": GOLDEN_DIR / "trace_digests.json",
    "small": GOLDEN_DIR / "trace_digests_small.json",
}
COLUMNS = ("pe", "op", "area", "addr", "flags")
OPCODES_PATH = GOLDEN_DIR / "opcodes.fghc"
OPCODES_QUERY = "main(6, R, Ts, U)"
SMALL_BENCHMARKS = ("tri", "semi", "pascal")


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


def emulate(source: str, query: str) -> MachineResult:
    """Record *query*'s trace on 8 PEs without replaying it."""
    machine = KL1Machine(source, MachineConfig(n_pes=8, seed=1), sim_config=None)
    return machine.run(query)


def runs(scale: str = "tiny"):
    """``(key, thunk)`` for every digested run at *scale*, keyed as the
    machine goldens are."""
    if scale == "small":
        return [
            (f"k1/{name}", lambda name=name: emulate(
                get_benchmark(name).source, get_benchmark(name).query("small")))
            for name in SMALL_BENCHMARKS
        ]
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
    out.append((
        "k1/opcodes",
        lambda: emulate(OPCODES_PATH.read_text(), OPCODES_QUERY),
    ))
    return out


def generate(scale: str = "tiny") -> dict:
    return {key: digest_record(thunk()) for key, thunk in runs(scale)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(DIGEST_PATHS), default="tiny")
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digests; write nothing")
    args = parser.parse_args(argv)
    path = DIGEST_PATHS[args.scale]
    digests = generate(args.scale)
    if args.check:
        recorded = json.loads(path.read_text())
        differ = sorted(
            key for key in set(digests) | set(recorded)
            if digests.get(key) != recorded.get(key)
        )
        for key in differ:
            print(f"{key}: trace differs from {path.name}")
        print(f"checked {len(digests)} trace digests: {len(differ)} differ")
        return 1 if differ else 0
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} trace digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
