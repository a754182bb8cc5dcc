"""The benchmark's workloads: inputs made from a seed, one timed pass each,
and the checks every operation's output must pass.

An *op* is one emulation or one replay call.  It fails when it raises or
when its output fails a check; a failure is counted, never raised, so a
broken program shows up as ``failed > 0`` instead of an aborted run.

Checks:

* emulation — the program's answer matches its oracle (``verify=True``),
  the stored trace reloads bit-identically without a second emulation,
  and the execution-driven cycle ledger sums exactly;
* replay — the cycle ledger sums exactly and the SHA-256 of
  ``SystemStats.as_dict()`` equals the digest recorded in
  ``digests.json`` for that size, workload, input seed and config.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import TABLE4_COLUMNS, OptimizationConfig, SimulationConfig
from repro.obs.metrics import cycle_ledger

# Layer functions are looked up on their modules at call time, so a
# traced run sees the wrappers.  ``import_module`` returns the module
# itself: ``repro.core`` re-exports the ``replay`` function under the
# submodule's name.
parallel = importlib.import_module("repro.analysis.parallel")
runner = importlib.import_module("repro.analysis.runner")
replay_mod = importlib.import_module("repro.core.replay")
synthetic = importlib.import_module("repro.trace.synthetic")

#: The real benchmarks every workload draws on (puzzle's 1.8M-reference
#: trace is left out: it alone would take most of a run).
PROGRAMS = ("tri", "semi", "pascal")
N_PES = 8

#: Input sizes.  ``small`` is what the benchmark measures; ``tiny`` keeps
#: the benchmark's own tests to seconds.  Sweep and lazypim replay parts
#: of the traces, so that a pass takes about a second and a run's median
#: is over many.  Lazypim's tri window lies past the start-up phase, so
#: it commits as often as the whole trace; pascal's prefix rolls back
#: often.
SIZES = {
    "small": {
        "scale": "small", "random_refs": 10_000, "sweep_prefix": 30_000,
        "lazypim_window": {"tri": (200_000, 260_000), "pascal": (0, 8_000)},
    },
    "tiny": {
        "scale": "tiny", "random_refs": 2_000, "sweep_prefix": 4_000,
        "lazypim_window": {"tri": (10_000, 14_000), "pascal": (0, 2_000)},
    },
}

#: ``--seed n`` selects input seed ``n % INPUT_SEEDS``; digests are
#: recorded for every input seed, so every seed's outputs are checked.
INPUT_SEEDS = 10

DIGESTS_PATH = Path(__file__).with_name("digests.json")


class CheckError(AssertionError):
    """An op's output failed a check."""


def stats_digest(record: dict) -> str:
    """SHA-256 of a stats record in canonical JSON form."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def load_digests(size: str, workload: str, seed: int) -> Dict[str, str]:
    with DIGESTS_PATH.open() as fh:
        table = json.load(fh)
    return table.get(size, {}).get(workload, {}).get(str(seed), {})


class Checker:
    """Runs ops, checks their outputs and counts attempts and failures.

    With ``expected=None`` the checker records digests instead of
    comparing them (``record_digests.py``).
    """

    def __init__(self, expected: Optional[Dict[str, str]]):
        self.expected = expected
        self.recorded: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Simulated references handled by successful ops.
        self.refs = 0

    def op(self, label: str, fn: Callable[[], int]) -> None:
        """Run one op; *fn* returns the references it handled."""
        self.attempted += 1
        try:
            self.refs += fn()
        except Exception as error:  # an op's failure is data, not a crash
            self.failed += 1
            self.failures.append(f"{label}: {type(error).__name__}: {error}")

    def check_replay(self, label: str, stats, network=None, record=None) -> None:
        """Ledger identity plus digest of *record* (default ``stats.as_dict()``)."""
        cycle_ledger(stats, network=network)
        digest = stats_digest(stats.as_dict() if record is None else record)
        if self.expected is None:
            self.recorded[label] = digest
            return
        want = self.expected.get(label)
        if want is None:
            raise CheckError(f"no digest recorded for {label}")
        if digest != want:
            raise CheckError(f"stats digest {digest[:12]} != recorded {want[:12]}")


def _replay_op(checker: Checker, label: str, trace, config: SimulationConfig,
               **kwargs) -> Callable[[], int]:
    def op() -> int:
        stats = replay_mod.replay(trace, config, **kwargs)
        checker.check_replay(label, stats)
        return len(trace)
    return op


class Workload:
    """One named workload: ``setup()`` builds its inputs, ``run_pass()``
    runs every op once through a :class:`Checker`."""

    name = ""

    def __init__(self, size: str, seed: int, state_dir: Path):
        self.size = SIZES[size]
        self.seed = seed
        self.state_dir = state_dir
        #: (name, buffer) of every input trace, once set up.
        self.traces: List[Tuple[str, object]] = []

    def setup(self) -> bool:
        """Build the inputs; True when no trace had to be emulated."""
        return True

    def run_pass(self, checker: Checker) -> None:
        raise NotImplementedError

    def _load_warm(self, names) -> bool:
        """Load real traces through ``Workloads`` from the benchmark's own
        trace cache.  A miss emulates and stores the trace, so the next
        set-up is warm; the caller discards a cold set-up's timing."""
        os.environ["REPRO_TRACE_CACHE"] = str(self.state_dir / "traces")
        before = runner.trace_cache_stats()["files"]
        workloads = runner.Workloads(self.size["scale"], seed=self.seed)
        self.traces = [(name, workloads.trace(name, N_PES)) for name in names]
        return runner.trace_cache_stats()["files"] == before


class Capture(Workload):
    """Cold capture: emulate, store, reload through a fresh ``Workloads``,
    replay once at the base config."""

    name = "capture"

    def run_pass(self, checker: Checker) -> None:
        scratch = self.state_dir / "capture"
        scratch.mkdir(parents=True, exist_ok=True)
        cache = tempfile.mkdtemp(dir=scratch)
        os.environ["REPRO_TRACE_CACHE"] = cache
        try:
            for name in PROGRAMS:
                loaded = []
                checker.op(f"{name}:emulate", lambda: self._capture(name, loaded))
                tag = f"{name}:bus:All"
                checker.op(tag, lambda: self._replay(checker, tag, loaded))
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def _capture(self, name: str, loaded: list) -> int:
        scale = self.size["scale"]
        cold = runner.Workloads(scale, seed=self.seed)
        trace = cold.trace(name, N_PES)  # cache miss: emulate (verified), store
        cycle_ledger(cold.result(name, N_PES).stats)
        fresh = runner.Workloads(scale, seed=self.seed)
        reloaded = fresh.trace(name, N_PES)
        # ``Workloads`` emulates again when a stored trace is missing or
        # unreadable, so a reload that passes must not have emulated.
        if fresh._cache:
            raise CheckError("the stored trace did not reload: it was emulated again")
        if reloaded.n_pes != trace.n_pes or reloaded.columns() != trace.columns():
            raise CheckError("reloaded trace differs from the captured one")
        loaded.append(reloaded)
        return len(trace)

    @staticmethod
    def _replay(checker: Checker, tag: str, loaded: list) -> int:
        if not loaded:
            raise CheckError("no trace: its emulation failed")
        return _replay_op(checker, tag, loaded[0], SimulationConfig())()


class Sweep(Workload):
    """Warm replay of prefixes of the real traces plus a miss-heavy random
    trace over the Table 4 command columns, both backends and one K=2
    clustering."""

    name = "sweep"

    def setup(self) -> bool:
        warm = self._load_warm(PROGRAMS)
        prefix = self.size["sweep_prefix"]
        self.traces = [(name, trace.slice(0, prefix)) for name, trace in self.traces]
        self.traces.append((
            "random",
            synthetic.generate_random_trace(
                self.size["random_refs"], n_pes=N_PES, seed=self.seed
            ),
        ))
        return warm

    def run_pass(self, checker: Checker) -> None:
        for name, trace in self.traces:
            for label, opts in TABLE4_COLUMNS:
                tag = f"{name}:bus:{label}"
                checker.op(tag, _replay_op(checker, tag, trace, SimulationConfig(opts=opts)))
            for label, opts in (("None", OptimizationConfig.none()),
                                ("All", OptimizationConfig.all())):
                tag = f"{name}:directory:{label}"
                config = SimulationConfig(opts=opts, interconnect="directory")
                checker.op(tag, _replay_op(checker, tag, trace, config))
            tag = f"{name}:bus:All:K2"
            checker.op(tag, self._clustered(checker, tag, trace))

    @staticmethod
    def _clustered(checker: Checker, tag: str, trace) -> Callable[[], int]:
        def op() -> int:
            result = parallel.run_clustered(
                trace, SimulationConfig().with_clusters(2), jobs=1
            )
            checker.check_replay(
                tag, result.stats, network=result.network, record=result.as_dict()
            )
            return len(trace)
        return op


class Lazypim(Workload):
    """LazyPIM replay (default kernel, batch size and signature width) of
    a tri window (commit-heavy) and a pascal prefix (rollback-heavy),
    each followed by a pessimistic replay of the same buffer."""

    name = "lazypim"

    def setup(self) -> bool:
        warm = self._load_warm(("tri", "pascal"))
        self.traces = [
            (name, trace.slice(*self.size["lazypim_window"][name]))
            for name, trace in self.traces
        ]
        return warm

    def run_pass(self, checker: Checker) -> None:
        for name, trace in self.traces:
            for mode in ("lazypim", "pessimistic"):
                tag = f"{name}:{mode}"
                checker.op(tag, _replay_op(checker, tag, trace, SimulationConfig(), mode=mode))


WORKLOADS = {cls.name: cls for cls in (Capture, Sweep, Lazypim)}
