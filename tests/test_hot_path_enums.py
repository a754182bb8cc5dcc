"""No enum member is looked up by attribute on the record or replay path.

Reading ``CacheState.EC`` or ``Op.R`` goes through the enum class's
metaclass on every execution and costs more than an empty call; a
module-level alias bound once (``_EC = CacheState.EC``) is a plain
global read of the very same member.  The four modules below run per
recorded or replayed reference, so inside their functions every member
is read through such an alias.  Cold functions — construction,
invariant checks, inspection — are on a short named allowlist.  The
scan uses :mod:`ast`, so a drive-by ``Enum.MEMBER`` in a handler fails
here rather than showing up as a slowdown.
"""

from __future__ import annotations

import ast
import enum
import importlib
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
HOT_MODULES = (
    "core/system.py",
    "core/lock_directory.py",
    "core/interconnect.py",
    "machine/machine.py",
)
#: Functions that run once per system or only on demand.
COLD_FUNCTIONS = {
    "__init__",
    "check",
    "check_invariants",
    "line_state",
}


def _enum_classes(relpath: str) -> dict:
    """Name -> Enum class for every enum the module can name."""
    module = importlib.import_module(
        "repro." + relpath[: -len(".py")].replace("/", ".")
    )
    return {
        name: value
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, enum.Enum)
    }


def member_reads(source: str, enums: dict, where: str) -> list:
    """``where:line: Enum.MEMBER`` for each member read inside a
    function that is not on :data:`COLD_FUNCTIONS`."""
    found = []

    def visit(node, hot):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hot = node.name not in COLD_FUNCTIONS
        elif (
            hot
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in enums
            and node.attr in enums[node.value.id].__members__
        ):
            found.append(f"{where}:{node.lineno}: {node.value.id}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, hot)

    visit(ast.parse(source), False)
    return found


def test_hot_modules_read_no_enum_member_by_attribute():
    offenders = [
        read
        for relpath in HOT_MODULES
        for read in member_reads(
            (SRC / relpath).read_text(), _enum_classes(relpath), relpath
        )
    ]
    assert not offenders, (
        "enum member read on a hot path; bind a module-level alias:\n"
        + "\n".join(offenders)
    )


def test_every_hot_module_names_an_enum():
    # Guards the scan itself: a module that could name no enum would
    # leave the test above passing vacuously.
    for relpath in HOT_MODULES:
        assert _enum_classes(relpath), relpath


def test_scan_catches_a_planted_read():
    enums = {
        **_enum_classes("core/system.py"),
        **_enum_classes("core/lock_directory.py"),
    }
    planted = (
        "_EC = CacheState.EC\n"
        "def _fill(self):\n"
        "    return CacheState.EM\n"
        "def check(self):\n"
        "    return CacheState.S\n"
        "class C:\n"
        "    def hot(self):\n"
        "        return [lambda: LockState.LCK]\n"
    )
    assert member_reads(planted, enums, "planted") == [
        "planted:3: CacheState.EM",
        "planted:8: LockState.LCK",
    ]
