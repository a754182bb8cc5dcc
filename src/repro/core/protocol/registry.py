"""The coherence-protocol registry and the five built-in specs.

Protocols are registered by name; :class:`~repro.core.config.SimulationConfig`
validates its ``protocol`` field against this registry, and
:class:`~repro.core.system.PIMCacheSystem` compiles its handlers from the
registered :class:`~repro.core.protocol.spec.ProtocolSpec`.

Registering a new protocol is all it takes to make it simulatable::

    from repro.core.protocol import ProtocolSpec, StoreRule, SupplierRule, register

    register(ProtocolSpec(name="mine", ...))

after which ``SimulationConfig(protocol="mine")``, the replay kernel,
``repro compare --protocol mine`` and the report's protocol matrix all
pick it up.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.core.protocol.spec import (
    ProtocolSpec,
    RemoteAction,
    StoreRule,
    SupplierRule,
)
from repro.core.states import CacheState

__all__ = [
    "get_protocol",
    "is_registered",
    "protocol_names",
    "register",
    "temporarily_register",
]

_INV = CacheState.INV
_S = CacheState.S
_SM = CacheState.SM
_EC = CacheState.EC
_EM = CacheState.EM

_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
    """Register *spec* under its name; returns it for chaining.

    The spec's replay kernel and handlers
    (:mod:`repro.core.protocol.codegen`) are compiled when a system
    first uses it, so a process pays only for the protocols it runs.
    """
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"protocol {spec.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[spec.name] = spec
    return spec


@contextmanager
def temporarily_register(spec: ProtocolSpec) -> Iterator[ProtocolSpec]:
    """Register *spec* for the duration of a ``with`` block.

    A previously registered protocol of the same name is shadowed and
    restored on exit, so the model checker (and tests) can simulate
    one-off or deliberately broken specs without polluting the global
    registry.
    """
    previous = _REGISTRY.get(spec.name)
    _REGISTRY[spec.name] = spec
    try:
        yield spec
    finally:
        if previous is None:
            _REGISTRY.pop(spec.name, None)
        else:
            _REGISTRY[spec.name] = previous


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a registered protocol, with the known names in the error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown protocol {name!r}; registered protocols: {known}"
        ) from None


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def protocol_names() -> Tuple[str, ...]:
    """Registered protocol names, registration order (built-ins first)."""
    return tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in specs.
#
# The supplier and FI-copyback tables below are transcriptions of the
# pre-refactor handler branches in system.py; the golden-stats suite
# (tests/test_protocol_identity.py) pins them bit-for-bit.

#: The paper's five-state protocol: copy-back with write-allocate, silent
#: stores on exclusive copies, and the SM state letting dirty data travel
#: cache-to-cache without a memory copyback.
PIM = register(ProtocolSpec(
    name="pim",
    title="PIM five-state (Illinois + shared-modified)",
    description=(
        "The paper's protocol: copy-back, write-allocate, silent stores on "
        "EC/EM, and dirty blocks supplied cache-to-cache stay dirty (SM) "
        "instead of copying back to shared memory."
    ),
    store={
        _INV: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE,
                        allocate=True),
        _S: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE),
        _SM: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE),
        _EC: StoreRule(next_state=_EM),
        _EM: StoreRule(next_state=_EM),
    },
    supplier={
        _S: SupplierRule(_S),
        _SM: SupplierRule(_SM),
        _EC: SupplierRule(_S),
        _EM: SupplierRule(_SM),
    },
    fetch_inval_copyback=False,
))

#: The Illinois baseline the paper ablates against: identical to PIM
#: except dirty data never travels without a memory copyback (no SM).
ILLINOIS = register(ProtocolSpec(
    name="illinois",
    title="Illinois (MESI) copy-back",
    description=(
        "PIM without the SM state: every cache-to-cache transfer of a "
        "dirty block copies the data back to shared memory, after which "
        "both copies are clean-shared."
    ),
    store={
        _INV: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE,
                        allocate=True),
        _S: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE),
        _SM: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE),
        _EC: StoreRule(next_state=_EM),
        _EM: StoreRule(next_state=_EM),
    },
    supplier={
        _S: SupplierRule(_S),
        _SM: SupplierRule(_S, copyback=True),
        _EC: SupplierRule(_S),
        _EM: SupplierRule(_S, copyback=True),
    },
    fetch_inval_copyback=True,
))

#: Write-through with invalidation (the Section 4 baseline): every store
#: goes to memory, remote copies are killed, no write-allocate.
WRITE_THROUGH = register(ProtocolSpec(
    name="write_through",
    title="Write-through, invalidate",
    description=(
        "Every store writes one word through to shared memory and "
        "invalidates remote copies; a write miss does not allocate.  "
        "Sole local copies are promoted (S->EC, SM->EM) once remotes die."
    ),
    store={
        _INV: StoreRule(remote=RemoteAction.INVALIDATE, through=True),
        _S: StoreRule(next_state=_EC, remote=RemoteAction.INVALIDATE,
                      through=True),
        _SM: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE,
                       through=True),
        _EC: StoreRule(remote=RemoteAction.INVALIDATE, through=True),
        _EM: StoreRule(remote=RemoteAction.INVALIDATE, through=True),
    },
    supplier={
        _S: SupplierRule(_S),
        _SM: SupplierRule(_SM),
        _EC: SupplierRule(_S),
        _EM: SupplierRule(_SM),
    },
    fetch_inval_copyback=False,
))

#: Write-through with broadcast update: stores patch remote copies in
#: place, so sharing never collapses and states never change.
WRITE_UPDATE = register(ProtocolSpec(
    name="write_update",
    title="Write-through, broadcast update",
    description=(
        "Every store writes through to shared memory and patches remote "
        "copies in place (snarfing); block states are unchanged and no "
        "copy is ever invalidated by a store."
    ),
    store={
        _INV: StoreRule(remote=RemoteAction.UPDATE, through=True),
        _S: StoreRule(remote=RemoteAction.UPDATE, through=True),
        _SM: StoreRule(remote=RemoteAction.UPDATE, through=True),
        _EC: StoreRule(remote=RemoteAction.UPDATE, through=True),
        _EM: StoreRule(remote=RemoteAction.UPDATE, through=True),
    },
    supplier={
        _S: SupplierRule(_S),
        _SM: SupplierRule(_SM),
        _EC: SupplierRule(_S),
        _EM: SupplierRule(_SM),
    },
    fetch_inval_copyback=False,
))

#: Goodman's write-once: the first store to a shared block writes through
#: (and invalidates), leaving the copy Reserved (EC/EM here); later
#: stores on an exclusive copy are silent copy-back.  The classic hybrid
#: between the two families, and the proof the spec seam is real.
WRITE_ONCE = register(ProtocolSpec(
    name="write_once",
    title="Goodman write-once",
    description=(
        "Hybrid: the first store to a shared block writes one word "
        "through and invalidates remotes (leaving the copy Reserved); "
        "subsequent stores on an exclusive copy are silent copy-back.  "
        "Write misses go through without allocating; dirty transfers "
        "copy back like Illinois."
    ),
    store={
        _INV: StoreRule(remote=RemoteAction.INVALIDATE, through=True),
        _S: StoreRule(next_state=_EC, remote=RemoteAction.INVALIDATE,
                      through=True),
        _SM: StoreRule(next_state=_EM, remote=RemoteAction.INVALIDATE,
                       through=True),
        _EC: StoreRule(next_state=_EM),
        _EM: StoreRule(next_state=_EM),
    },
    supplier={
        _S: SupplierRule(_S),
        _SM: SupplierRule(_S, copyback=True),
        _EC: SupplierRule(_S),
        _EM: SupplierRule(_S, copyback=True),
    },
    fetch_inval_copyback=True,
))
