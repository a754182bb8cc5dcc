"""Regenerate the machine-stats goldens.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_machine_goldens.py

The goldens pin what an execution-driven run reports: the cache
statistics (every ``SystemStats`` field, ``pe_cycles`` included), the
inter-cluster network counters of clustered runs, and the machine-level
counts, for

* tri, semi, pascal and puzzle at tiny scale on 8 PEs (one bus);
* pascal and tri at tiny scale on 8 PEs in two clusters;
* the stop-and-copy GC churn run of ``tests/test_machine_gc.py``.

They were recorded while the machine still drove a cache system live,
reference by reference, so ``tests/test_machine_stats.py`` holds the
replay that now produces those statistics to the old numbers
bit-for-bit.  Regenerate only for a deliberate change to the emulator
or the simulated architecture (and say so in the commit message).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.core.config import MachineConfig, SimulationConfig
from repro.machine.machine import KL1Machine, MachineResult
from repro.programs import get as get_benchmark

GOLDEN_PATH = Path(__file__).parent / "machine_stats.json"

SCALE = "tiny"
N_PES = 8
FLAT_BENCHMARKS = ("tri", "semi", "pascal", "puzzle")
CLUSTERED_BENCHMARKS = ("pascal", "tri")
N_CLUSTERS = 2
GC_THRESHOLD = 2000


def load_churn():
    """``tests/test_machine_gc.py``'s ``run_churn`` (tests/golden is run
    as a script, so the test module is loaded by path)."""
    path = Path(__file__).parents[1] / "test_machine_gc.py"
    spec = importlib.util.spec_from_file_location("test_machine_gc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_churn


def machine_record(result: MachineResult) -> dict:
    """The machine-level counts of one run."""
    return {
        "reductions": result.reductions,
        "suspensions": result.suspensions,
        "instructions": result.instructions,
        "memory_refs": result.memory_refs,
        "heap_words": result.heap_words,
        "pe_reductions": list(result.pe_reductions),
        "gc_collections": result.gc_collections,
        "gc_words_reclaimed": result.gc_words_reclaimed,
    }


def golden_record(result: MachineResult) -> dict:
    record = {
        "machine": machine_record(result),
        "stats": result.stats.as_dict(),
    }
    if result.network is not None:
        record["network"] = result.network.as_dict()
    return record


def run(name: str, n_clusters: int = 1) -> MachineResult:
    benchmark = get_benchmark(name)
    sim_config = SimulationConfig()
    if n_clusters != 1:
        sim_config = sim_config.with_clusters(n_clusters)
    machine = KL1Machine(
        benchmark.source, MachineConfig(n_pes=N_PES, seed=1), sim_config
    )
    return machine.run(benchmark.query(SCALE))


def generate() -> dict:
    goldens = {}
    for name in FLAT_BENCHMARKS:
        goldens[f"k1/{name}"] = golden_record(run(name))
    for name in CLUSTERED_BENCHMARKS:
        goldens[f"k{N_CLUSTERS}/{name}"] = golden_record(run(name, N_CLUSTERS))
    _, churn = load_churn()(gc_threshold=GC_THRESHOLD)
    goldens[f"gc/churn{GC_THRESHOLD}"] = golden_record(churn)
    return goldens


if __name__ == "__main__":
    goldens = generate()
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} golden records to {GOLDEN_PATH}")
