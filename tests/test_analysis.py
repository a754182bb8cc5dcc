"""Experiment-harness tests on the session-scoped tiny workloads.

These check the *machinery* (tables assemble, figures sweep, numbers are
internally consistent); the paper-shape assertions on realistic scales
are the report's claims (``repro.analysis.claims``).
"""

import pytest

from repro.analysis import figures, tables
from repro.analysis.runner import replay_trace, run_benchmark, unoptimized_config
from repro.core.config import OptimizationConfig, SimulationConfig


class TestRunner:
    def test_run_benchmark_verifies_answers(self):
        result = run_benchmark("pascal", scale="tiny", n_pes=2)
        assert result.machine.reductions > 0
        assert result.stats is not None
        assert result.trace is not None

    def test_replay_trace_accepts_result_objects(self):
        result = run_benchmark("pascal", scale="tiny", n_pes=2)
        stats = replay_trace(result, SimulationConfig())
        assert stats.total_refs == len(result.trace)

    def test_workloads_memoize(self, tiny_workloads):
        first = tiny_workloads.result("pascal", 2)
        second = tiny_workloads.result("pascal", 2)
        assert first is second

    def test_replay_memoizes(self, tiny_workloads):
        config = SimulationConfig()
        first = tiny_workloads.replay("pascal", config, 2)
        second = tiny_workloads.replay("pascal", config, 2)
        assert first is second


class TestTables:
    def test_table1_columns(self, tiny_workloads):
        table = tables.table1(tiny_workloads)
        assert [row["bench"] for row in table.rows] == [
            "Tri", "Semi", "Puzzle", "Pascal",
        ]
        for row in table.rows:
            assert row["reductions"] > 0
            assert row["refs"] > row["instructions"]
        assert "Table 1" in table.render()

    def test_table2_percentages_consistent(self, tiny_workloads):
        table = tables.table2(tiny_workloads)
        assert table.ref_mean["inst"] + table.ref_mean["data"] == pytest.approx(100)
        assert table.bus_mean["inst"] + table.bus_mean["data"] == pytest.approx(100)
        data_parts = sum(
            table.ref_data_mean[c] for c in ("heap", "goal", "susp", "comm")
        )
        assert data_parts == pytest.approx(100, abs=0.5)
        assert len(table.bus_rows) == 4

    def test_table3_rows_sum_to_100(self, tiny_workloads):
        table = tables.table3(tiny_workloads)
        for mix in (table.overall_mean, table.data_mean, table.heap_mean):
            assert sum(mix.values()) == pytest.approx(100, abs=0.5)

    def test_table4_normalized_to_none(self, tiny_workloads):
        table = tables.table4(tiny_workloads)
        for row in table.rows:
            assert row["None"] == 1.0
            assert row["All"] <= 1.0
        assert set(table.raw) == {"tri", "semi", "puzzle", "pascal"}

    def test_table5_ratios_in_unit_interval(self, tiny_workloads):
        table = tables.table5(tiny_workloads)
        for row in table.rows:
            for key in ("lr_hit", "lr_exclusive", "no_waiter"):
                assert 0.0 <= row[key] <= 1.0
            assert row["lr_exclusive"] <= row["lr_hit"]


class TestFigures:
    def test_figure1_series_shapes(self, tiny_workloads):
        sweep = figures.figure1(tiny_workloads, block_sizes=(2, 4, 8))
        assert sweep.x_values == [2, 4, 8]
        for series in sweep.series["miss ratio"].values():
            assert len(series) == 3
            # Miss ratio falls (or holds) with bigger blocks.
            assert series[0] >= series[-1] - 1e-9
        assert "Figure 1" in sweep.render()

    def test_figure2_miss_ratio_monotone_in_capacity(self, tiny_workloads):
        sweep = figures.figure2(tiny_workloads, capacities=(512, 2048, 8192))
        for series in sweep.series["miss ratio"].values():
            assert series[0] >= series[-1] - 1e-9
        assert len(sweep.total_bits) == 3

    def test_figure3_uses_execution_runs(self, tiny_workloads):
        sweep = figures.figure3(tiny_workloads, pe_counts=(1, 2))
        for series in sweep.series["bus cycles"].values():
            assert len(series) == 2
        # A single PE produces no scheduler communication.
        for series in sweep.series["comm % of bus"].values():
            assert series[0] == pytest.approx(0.0, abs=0.5)

    def test_associativity_direct_mapped_worst(self, tiny_workloads):
        sweep = figures.associativity_sweep(tiny_workloads, ways=(1, 4))
        for series in sweep.series["bus cycles"].values():
            assert series[0] >= series[1]
        for series in sweep.series["relative to 4-way"].values():
            assert series[1] == 1.0

    def test_render_formats_each_series_by_its_kind(self):
        # A ratio or share is never rounded to an integer, whatever its
        # magnitude; counts get thousands separators.
        sweep = figures.Sweep(
            title="Associativity",
            x_label="ways",
            x_values=[1, 2, 4],
            series={
                "bus cycles": {"tri": [346531.0, 98583.0, 72416.0]},
                "relative to 4-way": {"tri": [4.7853, 1.3613, 1.0]},
                "comm % of bus": {"tri": [0.0, 0.9704, 29.6]},
                "bus": {"tri": [72416.0, 53892.0, 0.7442]},
            },
            formats={
                "bus cycles": figures.COUNT,
                "relative to 4-way": figures.RATIO,
                "comm % of bus": figures.SHARE,
                "bus": (figures.COUNT, figures.COUNT, figures.RATIO),
            },
        )
        rows = [
            line.split()[1:] for line in sweep.render().splitlines()
            if line.strip().startswith("tri")
        ]
        assert rows == [
            ["346,531", "98,583", "72,416"],
            ["4.7853", "1.3613", "1.0000"],
            ["0.00", "0.97", "29.60"],
            ["72,416", "53,892", "0.7442"],
        ]

    def test_bus_width_ratio_below_one(self, tiny_workloads):
        sweep = figures.bus_width_study(tiny_workloads)
        for series in sweep.series["bus"].values():
            assert 0.4 < series[2] < 1.0

    def test_optimization_details_ratios(self, tiny_workloads):
        detail = figures.optimization_details(tiny_workloads)
        for ratios in (
            detail.heap_swap_in_ratio,
            detail.goal_swap_out_ratio,
            detail.comm_invalidate_ratio,
        ):
            assert set(ratios) == {"tri", "semi", "puzzle", "pascal"}
            for value in ratios.values():
                assert 0.0 <= value <= 1.5
        assert "4.6" in detail.render()


def test_unoptimized_config_demotes_everything():
    config = unoptimized_config()
    assert config.opts == OptimizationConfig.none()
