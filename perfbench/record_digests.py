"""Record the stats digests the benchmark checks every replay against.

Run once per size at the commit whose outputs are the reference, from
the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_digests.py --size small
    PYTHONPATH=src python3 perfbench/record_digests.py --size tiny

Every workload runs one pass per input seed with digest checks replaced
by recording; the size's digests in ``perfbench/digests.json`` are
replaced by the new ones.
Any op that fails (an emulation answer or a cycle ledger) aborts the
recording.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(wl.SIZES), required=True)
    args = parser.parse_args(argv)

    table = json.loads(wl.DIGESTS_PATH.read_text()) if wl.DIGESTS_PATH.exists() else {}
    table[args.size] = {}
    with tempfile.TemporaryDirectory() as state:
        for name in sorted(wl.WORKLOADS):
            for seed in range(wl.INPUT_SEEDS):
                checker = wl.Checker(None)
                workload = wl.WORKLOADS[name](args.size, seed, Path(state))
                workload.setup()
                workload.run_pass(checker)
                if checker.failed:
                    print("\n".join(checker.failures), file=sys.stderr)
                    return 1
                table[args.size].setdefault(name, {})[str(seed)] = checker.recorded
                print(f"{args.size} {name} seed {seed}: "
                      f"{len(checker.recorded)} digests", flush=True)
    wl.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
