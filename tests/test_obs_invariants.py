"""REPRO_CHECK_INVARIANTS debug mode and blocked-reference diagnostics."""

import pytest

from repro.analysis.parallel import SweepPool, run_clustered
from repro.cluster.replay import replay_clustered
from repro.core.config import SimulationConfig
from repro.core.replay import (
    DEFAULT_INVARIANT_INTERVAL,
    ReplayBlockedError,
    invariant_check_interval,
    replay,
)
from repro.core.system import PIMCacheSystem
from repro.obs.windows import windowed_replay
from repro.serve.stream import replay_stream
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, Area, Op
from repro.trace.synthetic import generate_random_trace


@pytest.mark.parametrize("raw", [None, "0", "off", "no", "false", "", "none"])
def test_interval_disabled(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    else:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", raw)
    assert invariant_check_interval() is None


@pytest.mark.parametrize("raw", ["1", "on", "yes", "true", "ON"])
def test_interval_default_granularity(monkeypatch, raw):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", raw)
    assert invariant_check_interval() == DEFAULT_INVARIANT_INTERVAL


def test_interval_explicit_period(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "500")
    assert invariant_check_interval() == 500
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "-3")
    assert invariant_check_interval() == 1  # clamped to at least 1
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "garbage")
    assert invariant_check_interval() == DEFAULT_INVARIANT_INTERVAL


@pytest.mark.parametrize(
    "raw, expected",
    [
        (" 8 ", 8),  # surrounding whitespace is stripped
        ("\t500\n", 500),
        (" OFF ", None),
        (" -7", 1),  # negative clamps to 1 even with whitespace
        ("-0", 1),  # not the literal "0": parses to 0, clamps to 1
        ("  ", None),  # all-whitespace strips to the empty string
        (" not a number ", DEFAULT_INVARIANT_INTERVAL),
        ("12.5", DEFAULT_INVARIANT_INTERVAL),  # floats are garbage too
        ("1e3", DEFAULT_INVARIANT_INTERVAL),
        ("0x10", DEFAULT_INVARIANT_INTERVAL),
    ],
)
def test_interval_edge_cases(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", raw)
    assert invariant_check_interval() == expected


def test_checked_replay_matches_fast_kernel():
    trace = generate_random_trace(2000, n_pes=4, seed=21)
    config = SimulationConfig()
    checked = replay(trace, config, check_invariants_every=100)
    assert checked.as_dict() == replay(trace, config).as_dict()


def test_env_toggle_routes_to_checked_loop(monkeypatch):
    trace = generate_random_trace(500, n_pes=2, seed=33)
    config = SimulationConfig()
    plain = replay(trace, config)
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "64")
    assert replay(trace, config).as_dict() == plain.as_dict()


def blocking_trace():
    """PE0 locks a word; PE1 then touches the same block (index 1)."""
    buffer = TraceBuffer(n_pes=2)
    address = AREA_BASE[Area.HEAP]
    buffer.append(0, Op.LR, Area.HEAP, address)
    buffer.append(1, Op.R, Area.HEAP, address)
    return buffer


def test_fast_kernel_blocked_error_carries_trace_position():
    with pytest.raises(ReplayBlockedError) as info:
        replay(blocking_trace(), SimulationConfig())
    error = info.value
    assert error.index == 1
    assert error.pe == 1
    assert error.op == Op.R
    assert error.area == Area.HEAP
    assert error.address == AREA_BASE[Area.HEAP]
    message = str(error)
    assert "trace index 1" in message
    assert "PE1" in message
    assert "heap" in message


def test_checked_loop_blocked_error_carries_trace_position():
    with pytest.raises(ReplayBlockedError) as info:
        replay(blocking_trace(), SimulationConfig(), check_invariants_every=1)
    assert info.value.index == 1


def late_blocking_trace():
    """130 unrelated reads across 4 PEs, then PE2 locks a word and PE3
    reads its block: the blocked reference is index 131, past several
    ranges of every segment driver below and inside a multi-reference
    range.  With two clusters, PE2 and PE3 are cluster 1's local PEs 0
    and 1, and the blocked read is index 65 of that cluster's shard."""
    buffer = TraceBuffer(n_pes=4)
    address = AREA_BASE[Area.HEAP]
    for i in range(130):
        buffer.append(i % 4, Op.R, Area.HEAP, address + 64 + 4 * i)
    buffer.append(2, Op.LR, Area.HEAP, address)
    buffer.append(3, Op.R, Area.HEAP, address)
    for i in range(20):
        buffer.append(0, Op.R, Area.HEAP, address + 64 + 4 * i)
    return buffer


def sweep_pool_map(trace):
    with SweepPool(trace, jobs=2) as pool:
        return pool.map([SimulationConfig()])


CLUSTERED = SimulationConfig().with_clusters(2)


@pytest.mark.parametrize(
    "driver",
    {
        "replay": lambda trace: replay(trace, SimulationConfig()),
        "replay_system": lambda trace: replay(
            trace, system=PIMCacheSystem(SimulationConfig(), 4)
        ),
        "replay_stream": lambda trace: replay_stream(
            trace, SimulationConfig(), chunk_refs=64
        ),
        "windowed": lambda trace: windowed_replay(
            trace, SimulationConfig(), window=64
        ),
        "lazypim": lambda trace: replay(
            trace, SimulationConfig(), mode="lazypim", batch_refs=16
        ),
        "sweep_pool": sweep_pool_map,
        "replay_clustered": lambda trace: replay_clustered(trace, CLUSTERED),
        "run_clustered_serial": lambda trace: run_clustered(
            trace, CLUSTERED, jobs=1
        ),
        "run_clustered_pooled": lambda trace: run_clustered(
            trace, CLUSTERED, jobs=2
        ),
        "replay_stream_clustered": lambda trace: replay_stream(
            trace, CLUSTERED, chunk_refs=64
        ),
    }.items(),
    ids=lambda item: item[0],
)
def test_segment_drivers_report_the_global_blocked_index(driver):
    _, run = driver
    with pytest.raises(ReplayBlockedError) as info:
        run(late_blocking_trace())
    assert info.value.index == 131
    assert info.value.pe == 3


def test_machine_run_with_invariant_checking(monkeypatch):
    from repro.analysis.runner import run_benchmark

    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "100")
    result = run_benchmark("pascal", scale="tiny", n_pes=2)
    assert result.stats is not None
    assert result.stats.total_refs > 0
