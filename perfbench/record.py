"""Record the output digests the benchmark checks every pass against.

Run from the root of a source checkout, on the code whose outputs are
the reference::

    python3 perfbench/record.py            # full inputs, every seed set
    python3 perfbench/record.py --smoke    # the self-tests' tiny inputs

For each seed set it runs one cold sweep (three heatmaps and the store
report) and every ``sim_long`` cell, and writes their digests into
``expected.json``.  Record only when outputs are meant to change; the
benchmark exists to show that they did not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workdir = run.ROOT / ".bench_build" / "perfbench" / f"record-{os.getpid()}"
    run.prepare_environment(workdir)
    from repro.core.executor import usable_cpu_count

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    entry = expected.setdefault("smoke" if args.smoke else "full",
                                {"sweep": {}, "sim_long": {}})
    try:
        for k in range(workloads.SEED_SETS):
            sweep = workloads.cold_pass(
                workloads.sweep_inputs(k, args.smoke), workdir,
                usable_cpu_count())
            if sweep.failed:
                print(f"set {k}: sweep failed: {sweep.errors}",
                      file=sys.stderr)
                return 1
            entry["sweep"][str(k)] = sweep.digest
            entry["sim_long"][str(k)] = workloads.sim_outcomes(
                workloads.sim_cells(k, args.smoke))
            path.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
            print(f"set {k}: sweep {sweep.digest} ({sweep.wall:.1f}s)",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
