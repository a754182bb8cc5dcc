"""Report generator tests (on the session tiny workloads)."""

from repro.analysis.report import generate_report


def test_report_contains_every_section(tiny_workloads):
    text = generate_report(workloads=tiny_workloads)
    for heading in (
        "Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
        "Figure 1", "Figure 2", "Figure 3",
        "Associativity", "Bus width", "Per-mechanism",
        "SM-state ablation", "Write-policy ablation",
        "Cluster traffic",
    ):
        assert heading in text, heading


def test_report_is_markdown_shaped(tiny_workloads):
    text = generate_report(workloads=tiny_workloads)
    assert text.startswith("# PIM cache reproduction")
    # Every code fence opens and closes.
    assert text.count("```") % 2 == 0


def test_report_cli(tiny_workloads, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.md"
    assert main(["report", "--scale", "tiny", "--output", str(out)]) == 0
    assert "report written" in capsys.readouterr().out
    assert "Table 4" in out.read_text()


def test_warm_report_emulates_nothing(tmp_path, monkeypatch):
    """A report over a warm trace cache rebuilds every run from its
    machine record and trace.  It even repeats Table 1's ``seconds``:
    that column is the emulation time stored with the trace."""
    from repro.analysis.runner import Workloads
    from repro.machine.machine import KL1Machine

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    cold = generate_report(workloads=Workloads(scale="tiny"))

    def refuse(*args, **kwargs):
        raise AssertionError("a warm report must not emulate")

    monkeypatch.setattr(KL1Machine, "run", refuse)
    warm = generate_report(workloads=Workloads(scale="tiny"))
    assert warm == cold


def test_run_stats_are_the_base_config_replay(tmp_path, monkeypatch):
    """A run without collections leaves its stats in the replay memo,
    so the base config's replay (Table 4's "All" column, Figure 1's
    4-word point, ...) is a memo hit, cold or warm."""
    from repro.analysis import runner
    from repro.core.config import SimulationConfig

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    replay = runner.replay
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(runner, "replay", counting)
    for _ in ("cold", "warm"):
        workloads = runner.Workloads(scale="tiny")
        result = workloads.result("tri", 4)
        assert not result.machine.gc_marks
        stats = workloads.replay("tri", SimulationConfig(), 4)
        assert calls == []
        fresh = replay(result.trace, SimulationConfig())
        assert stats.as_dict() == fresh.as_dict()
