"""The PIM cache: the paper's primary contribution.

This package implements the five-state (EM / EC / SM / S / INV) copy-back
snooping cache of Section 3, the separate word-granularity lock directory
(LCK / LWAIT / EMP), the four software-controlled memory commands
(direct write, exclusive read, read purge, read invalidate), and the
one-word common-bus cost model of Section 4.2 with its six bus access
patterns.

:class:`~repro.core.system.PIMCacheSystem` is the multi-PE protocol
engine.  It is fed a captured :class:`~repro.trace.buffer.TraceBuffer`
via :func:`~repro.core.replay.replay`: the KL1 emulator records the
trace, and replaying it gives both a run's execution-driven statistics
(the paper's setup, which ran emulator and cache in lockstep) and every
parameter sweep.
"""

from repro.core.config import (
    BusConfig,
    CacheConfig,
    MachineConfig,
    OptimizationConfig,
    SimulationConfig,
)
from repro.core.states import (
    BusCommand,
    BusPattern,
    CacheState,
    LockState,
)
from repro.core.stats import SystemStats
from repro.core.system import BLOCKED, PIMCacheSystem
from repro.core.replay import replay, replay_access_driven
from repro.core.illinois import illinois_config, pim_config, protocol_config
from repro.core.protocol import (
    ProtocolSpec,
    get_protocol,
    protocol_names,
    register,
)

__all__ = [
    "BLOCKED",
    "BusCommand",
    "BusConfig",
    "BusPattern",
    "CacheConfig",
    "CacheState",
    "LockState",
    "MachineConfig",
    "OptimizationConfig",
    "PIMCacheSystem",
    "ProtocolSpec",
    "SimulationConfig",
    "SystemStats",
    "get_protocol",
    "illinois_config",
    "pim_config",
    "protocol_config",
    "protocol_names",
    "register",
    "replay",
    "replay_access_driven",
]
