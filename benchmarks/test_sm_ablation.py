"""The SM-state ablation (Section 3.1's design rationale).

The PIM protocol is Illinois plus the shared-modified state.  Without
SM, every cache-to-cache transfer of a dirty block must also write
shared memory; with KL1's high cache-to-cache rate that drives up the
busy ratio of the memory modules — the reason the state was added.
"""

from repro.analysis.formatting import format_table
from repro.analysis.protocols import protocol_comparison


def test_sm_ablation(benchmark, workloads, save_result):
    def run_ablation():
        results = {}
        for name in ("tri", "semi", "puzzle", "pascal"):
            results[name] = protocol_comparison(
                workloads.trace(name), protocols=("pim", "illinois")
            )
        return results

    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for name, comparison in results.items():
        pim, illinois = comparison["pim"], comparison["illinois"]
        rows.append(
            (
                name,
                pim["memory_busy_cycles"],
                illinois["memory_busy_cycles"],
                f"{illinois['memory_busy_cycles'] / pim['memory_busy_cycles']:.2f}",
                pim["swap_outs"],
                illinois["swap_outs"],
            )
        )
    save_result(
        "sm_ablation",
        format_table(
            ("bench", "PIM mem busy", "Illinois mem busy", "x", "PIM swapouts",
             "Illinois swapouts"),
            rows,
            title="SM-state ablation: PIM vs Illinois protocol",
        ),
    )

    for name, comparison in results.items():
        pim, illinois = comparison["pim"], comparison["illinois"]
        # Removing SM strictly increases memory-module pressure.
        assert pim["memory_busy_cycles"] < illinois["memory_busy_cycles"], name
        assert pim["swap_outs"] < illinois["swap_outs"], name
        # The protocols see the same stream: identical hit behaviour.
        assert pim["miss_ratio"] == illinois["miss_ratio"], name
