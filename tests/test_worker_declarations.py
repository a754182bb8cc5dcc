"""Replay leaves the parent process one way: a forked replay worker.

Sweeps, clustered fan-out and replay-while-recording all run on
:class:`repro.cluster.replay.Worker`, with one gate, one pipe and one
death error.  The job service keeps its own supervised process
(``serve/jobs.py``).  A second pool, a ``Manager`` or a process started
anywhere else is how the mechanisms multiplied before, each with its
own spawn and its own death handling.  This test scans ``src/repro``
with :mod:`ast` so such a copy fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: Names nothing may use: a second pool, a manager process.
FORBIDDEN = ("ProcessPoolExecutor", "Manager")
#: Calls that start a process, and the only modules that may make them.
SPAWNS = ("Process", "get_context")
SPAWNERS = ("cluster/replay.py", "serve/jobs.py")


def _name(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def worker_faults(source: str, module: str) -> list:
    """A line per forbidden name, and per process creation outside
    :data:`SPAWNERS`, in *source* (the file *module* under
    ``src/repro``), in line order."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif _name(node) is not None:
            names = [_name(node)]
        faults.extend(
            (node.lineno, f"uses {name}") for name in names if name in FORBIDDEN
        )
        if (
            isinstance(node, ast.Call)
            and _name(node.func) in SPAWNS
            and module not in SPAWNERS
        ):
            faults.append((node.lineno, f"calls {_name(node.func)}"))
    return [f"{module}:{line}: {fault}" for line, fault in sorted(faults)]


def test_one_worker_mechanism():
    faults = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        faults.extend(worker_faults(path.read_text(), module))
    assert not faults, "\n".join(faults)


def test_scan_catches_planted_violations():
    planted = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing\n"
        "queue = multiprocessing.Manager().Queue()\n"
        "context = multiprocessing.get_context('spawn')\n"
        "worker = context.Process(target=print)\n"
        "pool = ProcessPoolExecutor(2)\n"
    )
    assert worker_faults(planted, "analysis/parallel.py") == [
        "analysis/parallel.py:1: uses ProcessPoolExecutor",
        "analysis/parallel.py:3: uses Manager",
        "analysis/parallel.py:4: calls get_context",
        "analysis/parallel.py:5: calls Process",
        "analysis/parallel.py:6: uses ProcessPoolExecutor",
    ]
    # The worker module and the job service may start processes, but
    # not through a second pool or a manager.
    assert worker_faults(planted, "serve/jobs.py") == [
        "serve/jobs.py:1: uses ProcessPoolExecutor",
        "serve/jobs.py:3: uses Manager",
        "serve/jobs.py:6: uses ProcessPoolExecutor",
    ]
