"""Report generator tests (on the session tiny workloads)."""

import pytest

from repro.analysis import claims
from repro.analysis import report as report_module
from repro.analysis.report import SECTIONS, generate_report


@pytest.fixture(scope="module")
def tiny_report(tiny_workloads):
    return generate_report(workloads=tiny_workloads)


def _forced(bound, name="forced"):
    """A claim on Table 4 that holds or fails by its bound alone."""
    return claims.Claim(
        f"table4.{name}", "the All column, least", bound,
        lambda table: min(row["All"] for row in table.rows),
    )


def test_report_contains_every_section(tiny_report):
    text = tiny_report.text
    for heading in (
        "Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
        "Figure 1", "Figure 2", "Figure 3",
        "Associativity", "Bus width", "Per-mechanism",
        "SM-state ablation", "Write-policy ablation",
        "Memory-latency sensitivity", "Lock-directory capacity",
        "Aurora transfer",
        "Cluster traffic",
    ):
        assert heading in text, heading
    # The bounds are calibrated at small: a tiny report checks nothing.
    assert text.endswith("## Claims\n\nNot evaluated: the bounds are "
                         "calibrated at `small`.\n")
    assert tiny_report.verdicts == [] and tiny_report.failed == []


def test_report_is_markdown_shaped(tiny_report):
    text = tiny_report.text
    assert text.startswith("# PIM cache reproduction")
    # Every code fence opens and closes.
    assert text.count("```") % 2 == 0


def test_report_cli(tiny_workloads, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.md"
    assert main(["report", "--scale", "tiny", "--output", str(out)]) == 0
    assert "report written" in capsys.readouterr().out
    assert "Table 4" in out.read_text()


def test_claims_have_unique_ids_and_read_results_the_report_builds(
    tiny_report,
):
    ids = [claim.id for claim in claims.CLAIMS]
    assert len(ids) == len(set(ids))
    keys = [key for key, _, _ in SECTIONS]
    assert set(tiny_report.results) == set(keys)
    assert {claim.section for claim in claims.CLAIMS} <= set(keys)
    # Each measure gets only its own section's result, and every one
    # runs on the report's result types (most bounds fail at tiny).
    verdicts = claims.evaluate(tiny_report.results, claims.CLAIMS)
    assert [v.claim for v in verdicts] == list(claims.CLAIMS)
    assert all(isinstance(v.holds, bool) for v in verdicts)


def test_a_claim_that_cannot_hold_fails_by_id(tiny_report):
    verdicts = claims.evaluate(
        tiny_report.results, [_forced("< 0"), _forced("> 0", "holds")]
    )
    assert [v.holds for v in verdicts] == [False, True]
    table = claims.render(verdicts)
    assert table.startswith("1 of 2 claims hold.")
    assert "| `table4.forced` | the All column, least | < 0 |" in table
    assert table.count("**FAIL**") == 1


@pytest.mark.parametrize("bound, code", [("> 0", 0), ("< 0", 1)])
def test_report_cli_exit_code_follows_the_claims(
    bound, code, tiny_workloads, tmp_path, monkeypatch, capsys
):
    from repro.cli import main

    monkeypatch.setattr(claims, "CLAIMS_SCALE", "tiny")
    monkeypatch.setattr(claims, "CLAIMS", (_forced(bound),))
    monkeypatch.setattr(
        report_module, "Workloads", lambda scale: tiny_workloads
    )
    out = tmp_path / "report.md"
    assert main(["report", "--scale", "tiny", "-o", str(out)]) == code
    # The whole report is written first, whatever the verdict.
    text = out.read_text()
    assert "## Cluster traffic" in text and "| `table4.forced` |" in text
    err = capsys.readouterr().err
    assert ("table4.forced" in err) == bool(code)


def test_warm_report_emulates_nothing(tmp_path, monkeypatch):
    """A report over a warm trace cache rebuilds every run from its
    machine record and trace.  It even repeats Table 1's ``seconds``:
    that column is the emulation time stored with the trace."""
    from repro.analysis.runner import Workloads
    from repro.machine.machine import KL1Machine

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    cold = generate_report(workloads=Workloads(scale="tiny")).text

    def refuse(*args, **kwargs):
        raise AssertionError("a warm report must not emulate")

    monkeypatch.setattr(KL1Machine, "run", refuse)
    warm = generate_report(workloads=Workloads(scale="tiny")).text
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
