"""Each shared CLI option is declared once.

The subcommands of ``repro`` inherit their shared option groups (trace
source, scale, cache geometry and protocol, clusters, mode and batch
knobs) through argparse ``parents=``.  Pasting one of those options into
a second subcommand instead is how the copies drifted apart before: one
``--pes`` help said "with --trace, 0 means the trace's own" while its
default was 8.  This test scans ``cli.py`` with :mod:`ast` so a second
declaration, or a hand-written copy of ``programs.SCALES``, fails here.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import repro
from repro.programs import SCALES

CLI = Path(repro.__file__).parent / "cli.py"
#: Options that must be declared by exactly one ``add_argument`` call.
SHARED = ("--scale", "--benchmark", "--trace", "--capacity", "--batch-refs")


def declaration_faults(source: str) -> list:
    """A line per option in :data:`SHARED` not declared exactly once
    and per literal list, tuple or set of scale names."""
    tree = ast.parse(source)
    declared = Counter()
    faults = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            declared.update(
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and arg.value in SHARED
            )
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)) and any(
            isinstance(elt, ast.Constant) and elt.value in SCALES
            for elt in node.elts
        ):
            faults.append(f"line {node.lineno}: literal scale list")
    faults.extend(
        f"{flag}: declared {declared[flag]} times"
        for flag in SHARED if declared[flag] != 1
    )
    return faults


def test_shared_options_are_declared_once():
    # A missing declaration fails too, so a renamed option cannot leave
    # this test passing vacuously.
    faults = declaration_faults(CLI.read_text())
    assert not faults, "\n".join(faults)


def test_scan_catches_planted_copies():
    planted = (
        "a.add_argument('--scale', choices=SCALES)\n"
        "b.add_argument('--scale', choices=['tiny', 'small'])\n"
        "c.add_argument('--trace')\n"
        "d.add_argument('--batch-refs', type=int)\n"
        "e.add_argument('--batch-refs', type=int)\n"
    )
    assert declaration_faults(planted) == [
        "line 2: literal scale list",
        "--scale: declared 2 times",
        "--benchmark: declared 0 times",
        "--capacity: declared 0 times",
        "--batch-refs: declared 2 times",
    ]
