"""Simulator hot-path microbenchmarks -> BENCH_sim.json.

Measures the three numbers the hot-path optimisation work is judged by:

* events/sec   — raw event-loop throughput,
* packets/sec  — the netem data path (rate limit + loss + jitter),
* PLT wall     — one canonical QUIC+TCP page-load pair.

The committed ``BENCH_sim.json`` carries a ``baseline`` section (the
same numbers measured on the pre-optimisation tree) and the computed
speedups.  ``scripts/bench_diff.py`` runs this script and gates the
``current`` section of its ``--out`` payload against the committed one.

Usage::

    PYTHONPATH=src python benchmarks/sim_hotpath.py [--quick] \
        [--baseline BENCH_sim.json] [--out CANDIDATE.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core.bench import run_benchmarks, write_payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=200_000,
                        help="events for the event-loop microbenchmark")
    parser.add_argument("--packets", type=int, default=30_000,
                        help="packets for the link microbenchmark")
    parser.add_argument("--repeat", type=int, default=3,
                        help="samples per benchmark (best is kept)")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one sample — fast but too noisy "
                             "to gate on; for local iteration only")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="previous BENCH_sim.json to compute speedups "
                             "against (its 'current' section)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the payload here (default: print only)")
    args = parser.parse_args()

    if args.quick:
        args.events = min(args.events, 50_000)
        args.packets = min(args.packets, 8_000)
        args.repeat = 1

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())

    payload = run_benchmarks(events=args.events, packets=args.packets,
                             repeat=args.repeat, baseline=baseline)
    current = payload["current"]
    print(f"events/sec:      {current['events_per_sec']:>12,.0f}")
    print(f"packets/sec:     {current['packets_per_sec']:>12,.0f}")
    print(f"PLT pair wall:   {current['plt_wall_seconds']:>12.4f} s "
          f"(quic={current['plt_quic']:.4f}s tcp={current['plt_tcp']:.4f}s)")
    for metric, factor in payload.get("speedup", {}).items():
        print(f"speedup {metric}: {factor:.2f}x")
    if args.out:
        write_payload(payload, str(args.out))
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
