"""Run provenance: config fingerprints, manifests, schema validation."""

import json

import pytest

from repro.core.config import (
    CacheConfig,
    OptimizationConfig,
    SimulationConfig,
    SpeculationConfig,
)
from repro.obs.manifest import (
    build_manifest,
    config_from_dict,
    config_fingerprint,
    config_to_dict,
    git_sha,
    write_manifest,
)
from repro.obs.schema import SchemaError, validate_manifest


def test_fingerprint_is_stable_and_short():
    a = config_fingerprint(SimulationConfig())
    b = config_fingerprint(SimulationConfig())
    assert a == b
    assert len(a) == 16
    assert int(a, 16) >= 0  # hex


def test_fingerprint_distinguishes_configs():
    base = config_fingerprint(SimulationConfig())
    assert config_fingerprint(
        SimulationConfig(cache=CacheConfig(n_sets=128))
    ) != base
    assert config_fingerprint(
        SimulationConfig(opts=OptimizationConfig.none())
    ) != base
    assert config_fingerprint(
        SimulationConfig(protocol="illinois")
    ) != base
    # The coherence mode and each batch knob are part of the config.
    lazypim = SimulationConfig().with_mode("lazypim")
    prints = {
        config_fingerprint(config)
        for config in (
            SimulationConfig(),
            lazypim,
            SimulationConfig(speculation=SpeculationConfig(
                "lazypim", batch_refs=64
            )),
            SimulationConfig(speculation=SpeculationConfig(
                "lazypim", signature_bits=64
            )),
        )
    }
    assert len(prints) == 4


def test_speculation_round_trips_and_defaults_when_absent():
    config = SimulationConfig(speculation=SpeculationConfig(
        "lazypim", batch_refs=64, signature_bits=128
    ))
    assert config_from_dict(config_to_dict(config)) == config
    # A record written before the field existed gets the default.
    old = config_to_dict(SimulationConfig())
    del old["speculation"]
    assert config_from_dict(old) == SimulationConfig()


def test_build_manifest_is_schema_valid():
    manifest = build_manifest(
        config=SimulationConfig(),
        seed=7,
        trace_cache_key="v1-tri-small-8pe-seed7",
        wall_seconds=1.25,
        command="pytest",
        extra={"kind": "unit-test"},
    )
    validate_manifest(manifest)
    assert manifest["schema"] == "repro.obs/manifest/v1"
    assert manifest["seed"] == 7
    assert manifest["config_hash"] == config_fingerprint(SimulationConfig())
    assert manifest["extra"]["kind"] == "unit-test"
    assert manifest["python_version"].count(".") == 2


def test_manifest_without_config_still_validates():
    manifest = build_manifest()
    validate_manifest(manifest)
    assert manifest["config"] is None
    assert manifest["config_hash"] is None


def test_git_sha_in_this_checkout():
    sha = git_sha()
    # The test suite runs inside the repository, so a SHA must resolve.
    assert sha is not None
    assert len(sha) == 40
    int(sha, 16)


def test_write_manifest_round_trips(tmp_path):
    manifest = build_manifest(config=SimulationConfig(), seed=1)
    path = write_manifest(manifest, tmp_path / "run.manifest.json")
    loaded = json.loads(path.read_text())
    validate_manifest(loaded)
    assert loaded["config_hash"] == manifest["config_hash"]


def test_validate_manifest_rejects_wrong_schema():
    manifest = build_manifest()
    manifest["schema"] = "something/else"
    with pytest.raises(SchemaError, match="schema"):
        validate_manifest(manifest)


def test_validate_manifest_rejects_missing_key():
    manifest = build_manifest()
    del manifest["python_version"]
    with pytest.raises(SchemaError, match="python_version"):
        validate_manifest(manifest)


def test_benchmark_result_carries_manifest(tiny_workloads):
    result = tiny_workloads.result("pascal", 2)
    manifest = result.manifest
    assert manifest is not None
    validate_manifest(manifest)
    assert manifest["seed"] == 1
    assert manifest["trace_cache_key"] == tiny_workloads.cache_key("pascal", 2)
    assert manifest["extra"]["benchmark"] == "pascal"
    assert manifest["extra"]["n_pes"] == 2
    assert manifest["extra"]["reductions"] == result.machine.reductions
