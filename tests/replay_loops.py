"""The two replay loops, under the test ids the suites parametrize over.

``generated`` is the production loop: :func:`repro.core.replay.replay`,
which runs the protocol's generated kernel.  ``interpreted`` is the
per-access dispatch loop :func:`repro.core.replay.replay_access_driven`,
which the kernel falls back to and the differential oracle treats as
its reference.  Both must produce bit-identical counters.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.replay import replay, replay_access_driven
from repro.core.system import PIMCacheSystem

LOOPS = ("interpreted", "generated")


def replay_through(
    loop, buffer, config=None, n_pes=None, system=None, start=0, stop=None
):
    """Replay references ``[start, stop)`` of *buffer* through *loop*
    into *system* (else a fresh one)."""
    if loop == "generated":
        return replay(
            buffer, config, n_pes=n_pes, system=system, start=start,
            stop=stop,
        )
    assert loop == "interpreted", loop
    if system is None:
        system = PIMCacheSystem(
            config if config is not None else SimulationConfig(),
            n_pes if n_pes is not None else buffer.n_pes,
        )
    return replay_access_driven(buffer, system, start=start, stop=stop)


def route_through(loop, monkeypatch):
    """Make every :func:`~repro.core.replay.replay` call, including
    those inside streaming and sharded drivers, run *loop*.  The
    per-access loop is reached through the ``REPRO_CHECK_INVARIANTS``
    toggle, so it also checks the coherence invariants on the way."""
    if loop == "interpreted":
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    else:
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
