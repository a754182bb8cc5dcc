"""Cross-protocol ablations (Section 3.1's SM argument and beyond).

The PIM protocol is the Illinois protocol (Papamarcos & Patel, ISCA '84)
plus the shared-modified state ``SM``.  Without SM, every cache-to-cache
transfer of a dirty block must simultaneously copy the data back to
shared memory, so the block becomes clean everywhere; the paper keeps
SM because KL1's cache-to-cache rate is high enough that those copybacks
drive up the busy ratio of the shared-memory modules.

This module builds the configs of such ablations; the comparison
itself is :func:`repro.analysis.protocols.protocol_comparison`, which
replays one trace under any set of registered protocols — pass
``protocols=("pim", "illinois")`` for the original pair.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.config import SimulationConfig
from repro.core.protocol import get_protocol


def protocol_config(
    name: str, base: Optional[SimulationConfig] = None
) -> SimulationConfig:
    """Copy of *base* (default config if None) running protocol *name*."""
    get_protocol(name)  # fail fast with the registered-names list
    base = base if base is not None else SimulationConfig()
    return replace(base, protocol=name)


def pim_config(base: SimulationConfig = None) -> SimulationConfig:
    """A config using the full five-state PIM protocol."""
    return protocol_config("pim", base)


def illinois_config(base: SimulationConfig = None) -> SimulationConfig:
    """The same config with the Illinois (no-SM) protocol."""
    return protocol_config("illinois", base)
