"""Protocol and command ablations on one workload.

Compares, on the Puzzle benchmark's reference stream:

* the five optimization configurations of Table 4 (None / Heap / Goal /
  Comm / All), and
* the SM-state ablation — the PIM protocol against the Illinois
  protocol it extends (Section 3.1): identical hit behaviour, very
  different shared-memory pressure.

Usage::

    python examples/protocol_comparison.py [benchmark] [scale]
"""

import sys

from repro.analysis.protocols import protocol_comparison
from repro.analysis.runner import run_benchmark
from repro.core.config import TABLE4_COLUMNS, SimulationConfig
from repro.core.replay import replay


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "puzzle"
    scale = sys.argv[2] if len(sys.argv) > 2 else "tiny"

    print(f"Capturing the {name!r} ({scale}) reference stream on 8 PEs ...")
    result = run_benchmark(name, scale=scale, n_pes=8)
    trace = result.trace
    print(f"{len(trace):,} references captured\n")

    print("Optimized-command ablation (Table 4's columns):")
    baseline = None
    for label, opts in TABLE4_COLUMNS:
        stats = replay(trace, SimulationConfig(opts=opts))
        if baseline is None:
            baseline = stats.bus_cycles_total
        relative = stats.bus_cycles_total / baseline
        bar = "#" * round(relative * 40)
        print(f"  {label:<5} {stats.bus_cycles_total:>10,} cycles  "
              f"{relative:.2f}  {bar}")

    print("\nSM-state ablation (PIM vs Illinois):")
    comparison = protocol_comparison(trace, protocols=("pim", "illinois"))
    for protocol in ("pim", "illinois"):
        numbers = comparison[protocol]
        print(f"  {protocol:<8} bus {numbers['bus_cycles']:>10,}  "
              f"memory-module busy {numbers['memory_busy_cycles']:>10,}  "
              f"swap-outs {numbers['swap_outs']:>7,}")
    extra = (
        comparison["illinois"]["memory_busy_cycles"]
        / comparison["pim"]["memory_busy_cycles"]
    )
    print(f"\nWithout the SM state the shared-memory modules are "
          f"{extra:.2f}x busier — the paper's reason for the fifth state.")


if __name__ == "__main__":
    main()
