"""One measured process of the benchmark (started by ``run.py``).

Modes:

* ``setup`` — import the program, build the workload's inputs, report
  the time since ``--t0`` (the launcher's clock just before it started
  this process) and exit;
* ``run`` — the same set-up, then as many whole passes over the
  workload as fit in ``--seconds`` (at least one), tracing off;
* ``trace`` — set-up and one pass with tracing off, then set-up and one
  pass again with every layer function wrapped (see :mod:`spans`); the
  spans are written as Chrome trace-event JSON and summarised per layer.

Set-up and the ``run`` passes are timed at the reference speed of a
:class:`SpeedSampler`; the ``trace`` passes are timed as measured.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple


#: The host-speed probe: a short pure-Python loop of arithmetic and dict
#: stores, like the simulator's own inner loops, that allocates nothing
#: the garbage collector tracks, so it leaves the program's collections
#: where they were; its wall time at the reference speed (about the
#: fastest it ran on the reference host named in ``benchmark_meta.json``);
#: and how often a measured stretch is interrupted to run it.
PROBE_LOOPS = 15_000
PROBE_REF_S = 0.0016
PROBE_EVERY_S = 0.05


def _probe_s() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 4095] = i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Measures the host's speed while the program runs.

    Between :meth:`start` and :meth:`stop` a SIGALRM handler runs the
    probe every ``PROBE_EVERY_S`` of wall time.  A stretch's time at the
    reference speed is its measured time less the probes', times the mean
    speed the probes saw (``PROBE_REF_S`` over a probe's time).
    """

    def __init__(self):
        self._samples: List[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self._samples.append(_probe_s())

    def start(self) -> None:
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> Tuple[float, float]:
        """Stop sampling; return the probes' total time and the mean speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(self._samples)
        # A stretch shorter than one period is scaled by a probe after it.
        samples = self._samples or [_probe_s()]
        return inside, statistics.fmean(PROBE_REF_S / s for s in samples)


def _pass(workload, checker, sampler: Optional[SpeedSampler] = None) -> dict:
    """One pass; its times are at the reference speed when *sampler* is given."""
    refs0 = checker.refs
    if sampler is not None:
        sampler.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    workload.run_pass(checker)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if sampler is not None:
        probes, speed = sampler.stop()
        wall, cpu = (wall - probes) * speed, (cpu - probes) * speed
    return {"wall_s": wall, "cpu_s": cpu, "refs": checker.refs - refs0}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", default="small")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    import workloads as wl  # imports the whole program

    state_dir = Path(args.state_dir)
    seed = args.seed % wl.INPUT_SEEDS
    checker = wl.Checker(wl.load_digests(args.size, args.workload, seed))
    workload = wl.WORKLOADS[args.workload](args.size, seed, state_dir)
    warm = workload.setup()
    setup_s = time.monotonic() - args.t0
    probes, speed = sampler.stop()
    result = {"setup_s": (setup_s - probes) * speed, "warm": warm}

    if args.mode == "run":
        # Whole passes only, and no pass that would end past --seconds
        # (the first always runs), so a run's length stays near --seconds.
        start = time.perf_counter()
        passes = [_pass(workload, checker, sampler)]
        # Set-up plus one pass: later passes only add allocator growth,
        # and how many fit depends on the host's speed.
        result["peak_rss_mb"] = _peak_rss_mb()
        last = time.perf_counter() - start  # the last pass, probes included
        while time.perf_counter() - start + last <= args.seconds:
            begin = time.perf_counter()
            passes.append(_pass(workload, checker, sampler))
            last = time.perf_counter() - begin
        result["passes"] = passes
    elif args.mode == "trace":
        import spans

        untraced = _pass(workload, checker)
        del workload
        tracer = spans.Tracer()
        tracer.install()
        origin = time.perf_counter()
        try:
            workload = wl.WORKLOADS[args.workload](args.size, seed, state_dir)
            workload.setup()
            traced = _pass(workload, checker)
        finally:
            traced_wall = time.perf_counter() - origin
            tracer.uninstall()
        tracer.write_chrome_trace(
            state_dir / "spans" / f"{args.workload}-seed{seed}.json", origin
        )
        result["layers"] = spans.layer_metrics(
            tracer, traced_wall, untraced["wall_s"], traced["wall_s"]
        )
        print(spans.format_layer_table(result["layers"]))

    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["failures"] = checker.failures[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
