"""End-to-end benchmark of the simulator: capture, sweep and lazypim.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

Each workload runs in processes of its own (``worker.py``) with the
program imported from ``src/`` of this checkout and every repro
environment override cleared.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every process finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Trace cache, capture scratch space and span dumps, inside the checkout.
STATE_DIR = ROOT / ".perfbench"
#: Warm set-ups measured per run, the timed run's own included.
SETUP_SAMPLES = 5
#: Upper bound on one worker process; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, args) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
        "--state-dir", str(STATE_DIR),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        command + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} worker printed no result")
    for line in lines[:-1]:  # the layer table of a traced run
        print(line)
    return json.loads(lines[-1])


def _end_to_end(setups, run: dict) -> dict:
    passes = run["passes"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "refs_per_s": statistics.median(p["refs"] / p["wall_s"] for p in passes),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _units(benchmark: dict, section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def main(argv=None) -> int:
    with (ROOT / "BENCHMARK.json").open() as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("small", "tiny"), default="small",
                        help="input size; tiny is for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            run = _worker("trace", args)
            values, units = run["layers"], _units(benchmark, "per_layer")
        else:
            setups = []
            # A cold set-up (one that had to emulate a missing trace)
            # fills the cache and is not counted; at most one is cold.
            for _ in range(SETUP_SAMPLES):
                sample = _worker("setup", args)
                if sample["warm"]:
                    setups.append(sample["setup_s"])
                if len(setups) == SETUP_SAMPLES - 1:
                    break
            run = _worker("run", args)
            if run["warm"]:
                setups.append(run["setup_s"])
            if not setups:
                raise BenchmarkError("every set-up had to emulate its traces")
            values, units = _end_to_end(setups, run), _units(benchmark, "end_to_end")
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
