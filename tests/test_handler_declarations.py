"""The controller's handlers are generated, never hand-written.

Every dispatch-table handler of :class:`~repro.core.system.PIMCacheSystem`
is emitted per spec by :mod:`repro.core.protocol.codegen` from the same
templates as the replay kernel's miss path.  A hand-written copy beside
the generated one is how the two drifted before: the kernel inlined
one version of a miss while ``access()``, the oracle and the model
checker ran another.  This test scans ``core/system.py`` with
:mod:`ast`, so a handler, or a helper only the handlers used, that
comes back there fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core.protocol import codegen
from repro.core.system import PIMCacheSystem

SYSTEM = Path(repro.__file__).parent / "core" / "system.py"
#: The handlers codegen emits and binds onto every system.
GENERATED = tuple(name for name, _ in codegen._HANDLERS)
#: The helpers the hand-written handlers shared, now template text.
HELPERS = (
    "_through_store",
    "_fetch_exclusive",
    "_pick_supplier",
    "_invalidate_remotes",
    "_remote_holders",
    "_copyback_dirty_remotes",
    "_purge",
    "_memory_read",
    "_drop_holder",
    "_no_bus",
    "_register_lock",
    "_release_lock",
    "_unlock",
)


def handler_definitions(source: str, where: str) -> list:
    """``where:line: defines NAME`` for each function or method named in
    :data:`GENERATED` or :data:`HELPERS` that *source* defines."""
    forbidden = set(GENERATED) | set(HELPERS)
    found = sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in forbidden
    )
    return [f"{where}:{line}: defines {name}" for line, name in found]


def test_system_defines_no_handler():
    found = handler_definitions(SYSTEM.read_text(), "core/system.py")
    assert not found, (
        "hand-written handler beside the generated one; write it as a "
        "codegen template:\n" + "\n".join(found)
    )


def test_every_generated_handler_is_bound():
    # Guards the scan: the names it forbids are the ones codegen binds.
    assert {"_read", "_write", "_exclusive_read", "_read_purge",
            "_read_invalidate", "_lock_read"} <= set(GENERATED)
    for name in GENERATED:
        assert name in PIMCacheSystem.__slots__, name


def test_scan_catches_planted_definitions():
    planted = (
        "class PIMCacheSystem:\n"
        "    def access(self):\n"
        "        pass\n"
        "    def _write(self, pe, sop, area, address, block):\n"
        "        def _fetch_exclusive():\n"
        "            pass\n"
        "    async def _read_purge(self):\n"
        "        pass\n"
        "def _remote_holders(pe, block):\n"
        "    pass\n"
        "_read = None\n"
    )
    assert handler_definitions(planted, "planted") == [
        "planted:4: defines _write",
        "planted:5: defines _fetch_exclusive",
        "planted:7: defines _read_purge",
        "planted:9: defines _remote_holders",
    ]
