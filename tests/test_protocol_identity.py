"""Counter-identity gates for the table-driven protocol layer.

Three layers of defence around the ``PIMCacheSystem`` refactor:

1. **Golden identity** — every pre-existing protocol must reproduce the
   stats committed in ``tests/golden/protocol_stats.json`` bit-for-bit
   (``pe_cycles`` included).  The goldens were generated at the commit
   *before* the protocol layer existed, so these tests fail if the
   refactor changed any observable counter of any original protocol.
2. **Path identity** — for every *registered* protocol (the new
   ``write_once`` included), both replay loops (the generated kernel
   and the per-access loop, see ``tests/replay_loops.py``) and the
   checked per-access system path must agree on every counter.
3. **Property identity** — the same, under randomized mixed
   DW/ER/RP/RI/R/W traces (hypothesis), with coherence invariants
   checked along the full-system pass.

Tests are parametrized by protocol name, so ``-k <protocol>`` selects
one protocol's gates.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig, OptimizationConfig, SimulationConfig
from repro.core.protocol import protocol_names
from repro.core.replay import replay
from repro.obs.windows import windowed_replay
from repro.trace.synthetic import (
    AuroraTraceConfig,
    generate_aurora_trace,
    generate_random_trace,
)
from tests.replay_loops import LOOPS, replay_through

GOLDEN_PATH = Path(__file__).parent / "golden" / "protocol_stats.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

#: The protocols that existed before the refactor (golden coverage).
GOLDEN_PROTOCOLS = ("pim", "illinois", "write_through", "write_update")

#: Config variants, mirroring tests/golden/generate_goldens.py exactly.
CONFIG_NAMES = ("base", "no_opt", "small")


def _config(protocol: str, name: str) -> SimulationConfig:
    if name == "base":
        return SimulationConfig(protocol=protocol)
    if name == "no_opt":
        return SimulationConfig(
            protocol=protocol, opts=OptimizationConfig.none()
        )
    return SimulationConfig(
        protocol=protocol, cache=CacheConfig(n_sets=16, associativity=2)
    )


@pytest.fixture(scope="module")
def golden_traces():
    """The exact traces the goldens were generated from."""
    return {
        "random": generate_random_trace(24_000, n_pes=4, seed=123),
        "aurora": generate_aurora_trace(
            AuroraTraceConfig(n_pes=4, steps_per_pe=300, seed=11)
        ),
    }


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("trace_name", ("random", "aurora"))
@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_fast_kernel_matches_pre_refactor_goldens(
    golden_traces, protocol, trace_name, config_name, kernel
):
    buffer = golden_traces[trace_name]
    stats = replay_through(
        kernel, buffer, _config(protocol, config_name), n_pes=4
    )
    golden = GOLDENS[f"{trace_name}/{protocol}/{config_name}"]
    assert stats.as_dict() == golden


@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_system_path_matches_pre_refactor_goldens(golden_traces, protocol):
    """The checked windowed path reproduces the goldens too."""
    buffer = golden_traces["random"]
    stats, _ = windowed_replay(
        buffer, _config(protocol, "base"), n_pes=4,
        check_invariants_every=len(buffer),
    )
    assert stats.as_dict() == GOLDENS[f"random/{protocol}/base"]


@pytest.mark.parametrize("kernel", LOOPS)
@pytest.mark.parametrize("protocol", protocol_names())
def test_fast_kernel_matches_system_path(golden_traces, protocol, kernel):
    """Every registered protocol: each replay loop matches the checked
    per-access system path, counter for counter."""
    buffer = golden_traces["random"]
    config = SimulationConfig(protocol=protocol)
    fast = replay_through(kernel, buffer, config, n_pes=4)
    full, _ = windowed_replay(
        buffer, config, n_pes=4, check_invariants_every=len(buffer)
    )
    assert fast.as_dict() == full.as_dict()


@pytest.mark.parametrize("protocol", protocol_names())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_random_traces_counter_identical_across_paths(protocol, seed):
    """Property: randomized mixed op traces agree across both paths
    under every registered protocol, with invariants checked."""
    buffer = generate_random_trace(1_200, n_pes=3, seed=seed)
    config = SimulationConfig(protocol=protocol)
    fast = replay(buffer, config, n_pes=3)
    full, _ = windowed_replay(
        buffer, config, n_pes=3, check_invariants_every=400
    )
    assert fast.as_dict() == full.as_dict()


@pytest.mark.parametrize("protocol", protocol_names())
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_random_traces_with_data_tracking(protocol, seed):
    """Data-tracking runs stay coherent (invariants include value
    agreement between caches and memory) under every protocol."""
    buffer = generate_random_trace(600, n_pes=2, seed=seed)
    config = SimulationConfig(protocol=protocol, track_data=True)
    replay(buffer, config, n_pes=2, check_invariants_every=150)
