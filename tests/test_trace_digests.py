"""The emulator records the same reference stream, byte for byte.

``tests/golden/trace_digests.json`` holds the SHA-256 of each column of
the traces the machine-golden runs record, with their instruction-fetch
counts and GC marks (``tests/golden/generate_trace_digests.py``).  The
machine goldens pin what replaying those traces reports; these pin the
traces themselves, so a change to how references are recorded must
reproduce them exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.config import MachineConfig
from repro.machine.errors import LimitExceededError
from repro.machine.machine import KL1Machine
from repro.programs import get as get_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN_DIR / "trace_digests.json").read_text())


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_trace_digests", GOLDEN_DIR / "generate_trace_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
RUNS = dict(GEN.runs())


def test_digests_cover_every_run():
    assert sorted(DIGESTS) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_trace_matches_its_digest(key):
    assert GEN.digest_record(RUNS[key]()) == DIGESTS[key]


def test_a_cut_off_run_keeps_its_trace_prefix():
    benchmark = get_benchmark("pascal")
    query = benchmark.query("tiny")

    def machine():
        return KL1Machine(
            benchmark.source, MachineConfig(n_pes=8, seed=1), sim_config=None
        )

    full = machine().run(query).trace
    cut = machine()
    with pytest.raises(LimitExceededError):
        cut.run(query, max_reductions=20)
    n = len(cut.trace)
    assert 0 < n < len(full)
    assert cut.port.total_refs == n
    for prefix, whole in zip(cut.trace.columns(), full.columns()):
        assert prefix == whole[:n]
