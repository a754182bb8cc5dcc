"""Memory-reference vocabulary shared by the KL1 machine and the cache.

A simulation run is, at bottom, a stream of :class:`~repro.trace.events.MemRef`
events: *(processing element, operation, storage area, word address)* plus a
small flag word.  The KL1 emulator produces such a stream and
:class:`~repro.trace.buffer.TraceBuffer` captures it compactly; replaying it
gives the run's own cache statistics and replays the same workload against
many cache configurations, as the paper's tools did.
"""

from repro.trace.events import (
    AREA_NAMES,
    DATA_AREAS,
    FLAG_LOCK_CONTENDED,
    LOCK_OPS,
    OP_NAMES,
    READ_LIKE_OPS,
    WRITE_LIKE_OPS,
    Area,
    MemRef,
    Op,
    area_of_address,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.io import read_trace, write_trace
from repro.trace.synthetic import (
    AuroraTraceConfig,
    generate_aurora_trace,
    generate_random_trace,
)

__all__ = [
    "AREA_NAMES",
    "AuroraTraceConfig",
    "Area",
    "DATA_AREAS",
    "FLAG_LOCK_CONTENDED",
    "LOCK_OPS",
    "MemRef",
    "OP_NAMES",
    "Op",
    "READ_LIKE_OPS",
    "TraceBuffer",
    "WRITE_LIKE_OPS",
    "area_of_address",
    "generate_aurora_trace",
    "generate_random_trace",
    "read_trace",
    "write_trace",
]
