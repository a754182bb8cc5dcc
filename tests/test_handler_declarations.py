"""The controller's handlers are generated, never hand-written.

Every dispatch-table handler of :class:`~repro.core.system.PIMCacheSystem`
is emitted per spec by :mod:`repro.core.protocol.codegen` from the same
templates as the replay kernel's miss path.  A hand-written copy beside
the generated one is how the two drifted before: the kernel inlined
one version of a miss while ``access()``, the oracle and the model
checker ran another.  This test scans ``core/system.py`` with
:mod:`ast`, so a handler, or a helper only the handlers used, that
comes back there fails here.

The same holds for the clustered systems: the network charge is part
of the generated handlers and kernel, so nothing under ``cluster/``
may rebuild a dispatch table or wrap a handler — a wrapped cell is one
the kernel cannot inline, and a second place the charge could drift.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core.protocol import codegen
from repro.core.system import PIMCacheSystem

SYSTEM = Path(repro.__file__).parent / "core" / "system.py"
CLUSTER = Path(repro.__file__).parent / "cluster"
#: The dispatch tables a probe, and nothing else, may replace.
TABLES = ("_op_table", "_base_op_table")
#: The handler signature's leading parameters: a function that takes
#: them is a handler, or a wrapper of one.
HANDLER_PARAMS = ("pe", "sop", "area", "address", "block")
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


def handler_rewrites(source: str, where: str) -> list:
    """``where:line: ...`` for each assignment of a dispatch table or
    of a generated handler's attribute (``setattr`` included) and each
    function taking the handler signature that *source* holds."""
    names = set(TABLES) | set(GENERATED)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr in names:
                        found.append((node.lineno, f"assigns {sub.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "setattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in names:
            found.append((node.lineno, f"sets {node.args[1].value}"))
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            params = [arg.arg for arg in node.args.args]
            if params[:1] == ["self"]:
                params = params[1:]
            if tuple(params[: len(HANDLER_PARAMS)]) == HANDLER_PARAMS:
                name = getattr(node, "name", "lambda")
                found.append((node.lineno, f"defines handler-shaped {name}"))
    return [f"{where}:{line}: {what}" for line, what in sorted(found)]


def test_cluster_package_wraps_no_handler():
    found = []
    for path in sorted(CLUSTER.rglob("*.py")):
        found += handler_rewrites(
            path.read_text(), str(path.relative_to(CLUSTER.parent))
        )
    assert not found, (
        "the cluster package rewrites the dispatch table; charge the "
        "network in the codegen templates instead:\n" + "\n".join(found)
    )


def test_rewrite_scan_catches_planted_violations():
    planted = (
        "class ClusterCacheSystem:\n"
        "    def access(self, pe, op, area, address):\n"
        "        self.table = None\n"
        "    def _install(self):\n"
        "        def wrapped(pe, sop, area, address, block, value=0):\n"
        "            pass\n"
        "        self._op_table = [[wrapped]]\n"
        "        self._base_op_table: list = self._op_table\n"
        "        self._read, other = wrapped, None\n"
        "        setattr(self, '_write', wrapped)\n"
        "        setattr(self, 'network', None)\n"
        "        hook = lambda pe, sop, area, address, block: None\n"
    )
    assert handler_rewrites(planted, "planted") == [
        "planted:5: defines handler-shaped wrapped",
        "planted:7: assigns _op_table",
        "planted:8: assigns _base_op_table",
        "planted:9: assigns _read",
        "planted:10: sets _write",
        "planted:12: defines handler-shaped lambda",
    ]
