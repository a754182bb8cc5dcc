"""The coherence execution mode is configuration.

``SimulationConfig.speculation`` selects LazyPIM, so every driver that
replays a config honours it, and every driver that cannot (it cuts the
trace into ranges of its own, or replays per access) refuses it rather
than replaying it pessimistically.
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import SweepPool
from repro.cluster.replay import (
    MachineReplay,
    ReplayWorker,
    replay_interleaved,
)
from repro.core.config import CacheConfig, MachineConfig, SimulationConfig
from repro.core.replay import replay
from repro.machine.machine import KL1Machine
from repro.obs.telemetry import SweepTelemetry
from repro.obs.windows import windowed_replay
from repro.trace.synthetic import generate_contract_trace

LAZYPIM = SimulationConfig().with_mode("lazypim")


@pytest.fixture(scope="module")
def trace():
    return generate_contract_trace(3_000, n_pes=4, seed=12)


def test_replay_reads_the_mode_and_the_keyword_overrides_it(trace):
    lazy = replay(trace, LAZYPIM).as_dict()
    assert lazy["batch_commits"] > 0 and lazy["batch_rollbacks"] > 0
    assert replay(trace, SimulationConfig(), mode="lazypim").as_dict() == lazy
    pessimistic = replay(trace, SimulationConfig()).as_dict()
    assert replay(trace, LAZYPIM, mode="pessimistic").as_dict() == pessimistic
    assert pessimistic["batch_commits"] == 0


def test_sweep_pool_honours_lazypim_configs(trace):
    configs = [
        LAZYPIM,
        SimulationConfig(cache=CacheConfig(n_sets=64)).with_mode("lazypim"),
        SimulationConfig(),
    ]
    with SweepPool(trace, jobs=2) as pool:
        pooled = pool.map(configs)
    for config, stats in zip(configs, pooled):
        assert stats.as_dict() == replay(trace, config).as_dict()
    assert pooled[0].batch_commits > 0 and pooled[0].batch_rollbacks > 0
    assert pooled[2].batch_commits == 0


def test_workloads_memoize_a_lazypim_config_apart(tiny_workloads):
    pessimistic = tiny_workloads.replay("tri", SimulationConfig(), 4)
    lazy = tiny_workloads.replay("tri", LAZYPIM, 4)
    assert lazy is not pessimistic
    assert lazy.batch_commits > 0 and pessimistic.batch_commits == 0
    assert lazy.as_dict() == replay(
        tiny_workloads.trace("tri", 4), LAZYPIM
    ).as_dict()
    assert tiny_workloads.replay("tri", LAZYPIM, 4) is lazy


@pytest.mark.parametrize(
    "driver",
    [
        lambda trace: windowed_replay(trace, LAZYPIM, window=256),
        lambda trace: replay_interleaved(trace, LAZYPIM.with_clusters(2)),
        lambda trace: MachineReplay(LAZYPIM, trace.n_pes),
        lambda trace: ReplayWorker(trace, LAZYPIM, []),
    ],
    ids=["windowed_replay", "replay_interleaved", "MachineReplay",
         "ReplayWorker"],
)
def test_range_drivers_refuse_a_lazypim_config(trace, driver):
    with pytest.raises(ValueError, match="cannot honour a lazypim config"):
        driver(trace)


def test_telemetry_sweep_point_refuses_a_lazypim_config(trace):
    telemetry = SweepTelemetry(interval_seconds=0.001, chunk_refs=512)
    with SweepPool(trace, jobs=1, telemetry=telemetry) as pool:
        with pytest.raises(ValueError, match=r"point 1\) cannot honour"):
            pool.map([SimulationConfig(), LAZYPIM])


def test_machine_refuses_a_lazypim_config_before_emulating(monkeypatch):
    def emulate(*args, **kwargs):
        raise AssertionError("the machine emulated under a lazypim config")

    monkeypatch.setattr(KL1Machine, "run", emulate)
    with pytest.raises(ValueError, match="the machine's replay"):
        KL1Machine("double(X, Y) :- Y := X * 2.\n", MachineConfig(n_pes=2),
                   LAZYPIM)
