"""The SM-state ablation: PIM (five states) vs Illinois (no SM)."""

from repro.analysis.protocols import protocol_comparison
from repro.core.illinois import illinois_config, pim_config
from repro.core.config import SimulationConfig
from repro.trace.synthetic import AuroraTraceConfig, generate_aurora_trace


def test_config_factories():
    assert pim_config().protocol == "pim"
    assert illinois_config().protocol == "illinois"
    base = SimulationConfig(lock_entries=4)
    assert illinois_config(base).lock_entries == 4


def test_sm_state_saves_memory_copybacks():
    """Section 3.1's rationale: without SM, every dirty cache-to-cache
    transfer writes memory, raising the memory modules' busy ratio."""
    trace = generate_aurora_trace(AuroraTraceConfig(n_pes=4, steps_per_pe=400))
    comparison = protocol_comparison(trace, protocols=("pim", "illinois"))
    pim, illinois = comparison["pim"], comparison["illinois"]
    assert pim["memory_busy_cycles"] < illinois["memory_busy_cycles"]
    assert pim["swap_outs"] < illinois["swap_outs"]
    # Both protocols serve the same stream: identical hit behaviour.
    assert pim["miss_ratio"] == illinois["miss_ratio"]
    assert pim["c2c_transfers"] == illinois["c2c_transfers"]


def test_protocols_agree_on_bus_cycles_modulo_swapout_pattern():
    """Bus cycles differ only through the with/without-swap-out pattern
    split, which is second-order; the memory-side pressure is the real
    difference."""
    trace = generate_aurora_trace(AuroraTraceConfig(n_pes=4, steps_per_pe=200))
    comparison = protocol_comparison(trace, protocols=("pim", "illinois"))
    pim, illinois = comparison["pim"], comparison["illinois"]
    assert abs(pim["bus_cycles"] - illinois["bus_cycles"]) < 0.1 * illinois[
        "bus_cycles"
    ]
