"""Run provenance manifests.

Every sweep result and benchmark report should say exactly what
produced it: the simulated configuration (hashed, so two results are
comparable at a glance), the machine seed, the trace-cache key the
reference stream came from, the git commit of the simulator, and the
interpreter that ran it.  :func:`build_manifest` collects all of that
into one JSON-ready dict (schema ``repro.obs/manifest/v1``, validated
by :mod:`repro.obs.schema`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Union

from repro.core.config import SimulationConfig

MANIFEST_SCHEMA = "repro.obs/manifest/v1"


def config_to_dict(config: SimulationConfig) -> dict:
    """Flatten a :class:`SimulationConfig` into plain JSON types."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict`
    output (e.g. the ``config`` entry of a manifest or checkpoint).

    The round trip is exact: every field of the dataclass tree is a
    plain scalar, so ``config_from_dict(config_to_dict(c)) == c``.  A
    nested config missing from *data* (a record older than the field)
    takes its default.
    """
    from repro.core.config import (
        BusConfig,
        CacheConfig,
        ClusterConfig,
        OptimizationConfig,
        SpeculationConfig,
    )

    kwargs = dict(data)
    for key, cls in (
        ("cache", CacheConfig),
        ("bus", BusConfig),
        ("opts", OptimizationConfig),
        ("cluster", ClusterConfig),
        ("speculation", SpeculationConfig),
    ):
        if key in kwargs and isinstance(kwargs[key], dict):
            kwargs[key] = cls(**kwargs[key])
    return SimulationConfig(**kwargs)


def config_fingerprint(config: SimulationConfig) -> str:
    """Stable short hash of a simulation configuration.

    Equal configs hash equal regardless of construction order; the hash
    is over the canonical (sorted-key) JSON of the dataclass tree.
    """
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_sha() -> Optional[str]:
    """Commit SHA of the working tree, or None outside a git checkout."""
    for root in (Path.cwd(), Path(__file__).resolve().parents[3]):
        try:
            out = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        sha = out.stdout.strip()
        if out.returncode == 0 and sha:
            return sha
    return None


def build_manifest(
    config: Optional[SimulationConfig] = None,
    seed: Optional[int] = None,
    trace_cache_key: Optional[str] = None,
    wall_seconds: Optional[float] = None,
    command: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble one provenance manifest.

    *extra* entries are merged under the ``"extra"`` key so callers can
    attach run-specific context (benchmark name, scale, window size)
    without loosening the schema.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_unix": round(time.time(), 3),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "command": command if command is not None else " ".join(sys.argv),
        "config": config_to_dict(config) if config is not None else None,
        "config_hash": config_fingerprint(config) if config is not None else None,
        # Surfaced from the config so cross-protocol and multi-cluster
        # results stay attributable without digging through the nested
        # config dict.
        "protocol": config.protocol if config is not None else None,
        "clusters": config.cluster.n_clusters if config is not None else None,
        "seed": seed,
        "trace_cache_key": trace_cache_key,
        "wall_seconds": wall_seconds,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(manifest: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
