"""Windowed metrics: bucketing edge cases and aggregate consistency."""

import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.replay import ReplayBlockedError, replay
from repro.obs.schema import validate_jsonl, validate_window
from repro.obs.windows import (
    WindowedMetrics,
    windowed_replay,
    write_windows_jsonl,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_BASE, Area, Op
from repro.trace.synthetic import generate_random_trace


def simple_trace(n_refs: int, n_pes: int = 2) -> TraceBuffer:
    """A deterministic mixed hit/miss stream of exactly *n_refs*."""
    buffer = TraceBuffer(n_pes=n_pes)
    base = AREA_BASE[Area.HEAP]
    for i in range(n_refs):
        pe = i % n_pes
        # Alternate a striding miss-heavy address with a hot word.
        address = base + (i * 64 if i % 3 else pe)
        buffer.append(pe, Op.R if i % 2 else Op.W, Area.HEAP, address)
    return buffer


def test_remainder_trace_gets_a_short_final_window():
    trace = simple_trace(10)
    _, windows = windowed_replay(trace, window=4)
    assert [w.refs for w in windows] == [4, 4, 2]
    assert [w.start for w in windows] == [0, 4, 8]
    assert [w.index for w in windows] == [0, 1, 2]


def test_exact_multiple_has_no_empty_trailing_window():
    trace = simple_trace(12)
    _, windows = windowed_replay(trace, window=4)
    assert [w.refs for w in windows] == [4, 4, 4]


def test_window_larger_than_trace_yields_one_window():
    trace = simple_trace(5)
    _, windows = windowed_replay(trace, window=100)
    assert len(windows) == 1
    assert windows[0].refs == 5


def test_empty_trace_yields_no_windows():
    stats, windows = windowed_replay(TraceBuffer(n_pes=2), window=4)
    assert windows == []
    assert stats.total_refs == 0


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        windowed_replay(simple_trace(4), window=0)


def test_additive_fields_sum_to_aggregate():
    trace = generate_random_trace(3000, n_pes=4, seed=9)
    stats, windows = windowed_replay(trace, window=256)
    assert sum(w.refs for w in windows) == stats.total_refs
    assert sum(w.hits for w in windows) == stats.total_hits
    assert sum(w.misses for w in windows) == stats.total_refs - stats.total_hits
    assert sum(w.bus_cycles for w in windows) == stats.bus_cycles_total
    assert (
        sum(w.memory_busy_cycles for w in windows) == stats.memory_busy_cycles
    )
    assert sum(w.lh_responses for w in windows) == stats.lh_responses
    for area in range(len(windows[0].refs_by_area)):
        assert sum(w.refs_by_area[area] for w in windows) == sum(
            stats.refs[area]
        )
        assert sum(w.bus_cycles_by_area[area] for w in windows) == (
            stats.bus_cycles_by_area[area]
        )
    for pe in range(4):
        assert sum(w.pe_cycles[pe] for w in windows) == stats.pe_cycles[pe]


def test_per_window_ratios_are_consistent():
    trace = generate_random_trace(2000, n_pes=2, seed=4)
    _, windows = windowed_replay(trace, window=300)
    for window in windows:
        assert window.misses == window.refs - window.hits
        assert window.miss_ratio == pytest.approx(window.misses / window.refs)
        if window.cycles > 0:
            assert window.bus_utilization == pytest.approx(
                window.bus_cycles / window.cycles
            )


def test_windowed_stats_match_fast_replay_exactly():
    trace = generate_random_trace(5000, n_pes=4, seed=11)
    config = SimulationConfig()
    windowed_stats, _ = windowed_replay(trace, config, window=512)
    assert windowed_stats.as_dict() == replay(trace, config).as_dict()


def test_blocked_reference_reports_trace_index():
    buffer = TraceBuffer(n_pes=2)
    address = AREA_BASE[Area.HEAP]
    buffer.append(0, Op.LR, Area.HEAP, address)
    buffer.append(1, Op.R, Area.HEAP, address)  # remotely held lock
    with pytest.raises(ReplayBlockedError) as info:
        windowed_replay(buffer, n_pes=2, window=4)
    assert info.value.index == 1
    assert info.value.pe == 1


def test_close_window_discards_zero_ref_delta(system):
    metrics = WindowedMetrics(system.stats, window=4)
    assert metrics.close_window() is None
    system.access(0, Op.R, Area.HEAP, AREA_BASE[Area.HEAP])
    window = metrics.close_window()
    assert window is not None and window.refs == 1


def test_windows_jsonl_round_trip_validates(tmp_path):
    trace = simple_trace(10)
    _, windows = windowed_replay(trace, window=4)
    path = write_windows_jsonl(windows, tmp_path / "w.jsonl")
    lines = path.read_text().splitlines()
    assert validate_jsonl(lines, validate_window) == 3
    first = json.loads(lines[0])
    assert first["schema"] == "repro.obs/window/v1"
    assert first["refs"] == 4


def test_kernel_tier_matches_access_driven_windows_exactly():
    # No probe and no invariant checks: window segments replay through
    # the generated kernel.  Invariant checks force the per-access loop.
    trace = generate_random_trace(5000, n_pes=4, seed=17)
    config = SimulationConfig()
    stats, windows = windowed_replay(trace, config, window=512)
    base_stats, base_windows = windowed_replay(
        trace, config, window=512, check_invariants_every=len(trace)
    )
    assert stats.as_dict() == base_stats.as_dict()
    assert [w.to_dict() for w in windows] == [
        w.to_dict() for w in base_windows
    ]
