"""Measure serial vs parallel wall clock for the experiment executor.

Runs the same ExperimentSpec grid with ``jobs=1`` and ``jobs=N``,
verifies the results are byte-identical, and writes the wall-clock
comparison as a ``BENCH_executor.json``-shaped payload to ``--out``.
On a host with one usable CPU the executor runs the ``jobs=N`` request
in-process, so the speedup there is ~1.0x by design.

Usage::

    PYTHONPATH=src python benchmarks/executor_scaling.py [--jobs 4] \
        [--out CANDIDATE.json]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.core.bench import write_payload
from repro.core.executor import resolve_jobs
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_experiment,
)


def scaling_spec() -> ExperimentSpec:
    """A 2 scenarios x 2 workloads x 2 protocols x 2 runs = 16-cell grid."""
    return ExperimentSpec(
        "executor-scaling",
        description="wall-clock scaling probe for the parallel executor",
        scenarios=[ScenarioSpec(10.0), ScenarioSpec(50.0, loss_pct=1.0)],
        workloads=[WorkloadSpec(1, 1000), WorkloadSpec(100, 10)],
        runs=2,
    )


def timed(spec: ExperimentSpec, jobs: int):
    start = time.perf_counter()
    result = run_experiment(spec, jobs=jobs)
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="parallel worker count (default 4)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the payload here (default: print only)")
    args = parser.parse_args()
    jobs = resolve_jobs(args.jobs)

    spec = scaling_spec()
    cells = (len(spec.scenarios) * len(spec.workloads)
             * len(spec.protocols) * spec.runs)
    print(f"spec {spec.name!r}: {cells} runs total")

    serial_s, serial = timed(spec, 1)
    print(f"serial (jobs=1):   {serial_s:7.2f} s")
    parallel_s, parallel = timed(spec, jobs)
    print(f"parallel (jobs={jobs}): {parallel_s:7.2f} s")

    identical = serial.to_json() == parallel.to_json()
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(f"speedup: {speedup:.2f}x, results identical: {identical}")

    if args.out:
        write_payload({
            "benchmark": "executor_scaling",
            "runs_total": cells,
            "jobs": jobs,
            "serial_seconds": round(serial_s, 4),
            "parallel_seconds": round(parallel_s, 4),
            "speedup": round(speedup, 4),
            "results_identical": identical,
        }, str(args.out))
        print(f"written to {args.out}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
