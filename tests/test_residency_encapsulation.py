"""The residency index's format stays behind the three modules that own
it.

Every cache of a system shares one ``block << pe_bits | pe -> line``
dict, with per-set buckets beside it for replacement.  Only
``core/cache.py`` (which maintains both), ``core/system.py`` (whose
handlers probe the dict inline) and ``core/protocol/codegen.py`` (whose
generated kernel probes it) may touch that layout; every other module
goes through ``Cache.lookup``/``peek``/``lines``/``place``.  This test
scans ``src/`` with :mod:`ast` so a drive-by read of the internals
fails here rather than silently breaking when the format next changes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
OWNERS = ("core/cache.py", "core/system.py", "core/protocol/codegen.py")
#: The per-set buckets and their geometry, the residency dict and the
#: width of its PE field.
LAYOUT = {"_sets", "_set_mask", "_set_shift", "_resident", "_pe_bits"}


def _layout_reads(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT
    ]


def test_only_the_owners_touch_the_residency_layout():
    offenders = [
        read
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in OWNERS
        for read in _layout_reads(path)
    ]
    assert not offenders, "residency layout read outside its owners:\n" + \
        "\n".join(offenders)


def test_every_owner_exists_and_uses_the_layout():
    # Guards the scan itself: a renamed owner or attribute would leave
    # the test above passing vacuously.
    for owner in OWNERS:
        assert _layout_reads(SRC / owner), owner
