"""Measure the distributed sweep fabric against a single-process sweep.

One in-process :class:`~repro.fabric.StoreServer` (sharded JSONL
backing store) serves a localhost sweep fabric; the coordinator shards
the same N-cell grid across 4 worker processes, each executing its
shard into a local write-ahead shard store and bulk-uploading over
HTTP.  The run function is synthetic and nearly free, so the
measurement is the fabric plumbing itself: the batched ``/missing``
probe, worker spawn, per-shard sync round-trips and the merged event
stream through the coordinator.

Three contracts are verified and gated (``scripts/bench_diff.py``
kind ``fabric``):

* ``results_identical`` — the served store renders a byte-identical
  ``repro report --from-store`` to the single-process baseline store;
* ``resume_missing`` — a second batched ``/missing`` probe over every
  key returns nothing (the sweep left no holes to resume);
* ``warm_hit_rate`` — re-running the whole sweep against the warm
  server executes nothing (100 % remote hits).

Writes a ``BENCH_fabric.json``-shaped payload to ``--out``.

The run function is nearly free, so the fabric overhead ratio is an
upper bound: real sweeps amortise the probe, spawn and upload costs
over emulation time.

Usage::

    PYTHONPATH=src python benchmarks/fabric_sweep.py \\
        [--cells 10000] [--workers 4] [--sync-every 256] \\
        [--out CANDIDATE.json]
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.bench import write_payload
from repro.core.executor import (
    ProtocolSpec,
    RunRecord,
    RunRequest,
    iter_runs,
    usable_cpu_count,
)
from repro.core.report import build_store_report
from repro.fabric import RemoteStore, StoreServer, iter_fabric_runs, \
    run_fabric_sweep
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import RunCache, ShardStore, fingerprint_for, run_key

SCN = emulated(10.0)
PAGE = single_object_page(10_000)


def _synthetic_run(request: RunRequest) -> RunRecord:
    """A deterministic, nearly-free run: the sweep measures plumbing."""
    plt = 0.25 + (request.seed % 97) / 1000.0
    return RunRecord(request=request, plt=plt, complete=True)


def build_requests(cells: int):
    protocols = (ProtocolSpec.quic(), ProtocolSpec.tcp())
    return [RunRequest(scenario=SCN, page=PAGE,
                       protocol=protocols[i % 2], seed=i)
            for i in range(cells)]


def _report(store) -> str:
    return build_store_report(store).replace(str(store.path), "STORE")


def single_process_sweep(requests, path) -> float:
    cache = RunCache(ShardStore(path))
    start = time.perf_counter()
    for _event in iter_runs(requests, run_fn=_synthetic_run, store=cache):
        pass
    elapsed = time.perf_counter() - start
    cache.store.close()
    return elapsed


def fabric_sweep(requests, url, workers, sync_every, workdir):
    start = time.perf_counter()
    events = hits = 0
    for event in iter_fabric_runs(requests, url, workers=workers,
                                  sync_every=sync_every,
                                  run_fn=_synthetic_run,
                                  workdir=str(workdir)):
        events += 1
        if event.kind == "hit":
            hits += 1
    return time.perf_counter() - start, events, hits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=10_000,
                        help="sweep size (default 10000)")
    parser.add_argument("--workers", type=int, default=4,
                        help="fabric worker processes (default 4)")
    parser.add_argument("--sync-every", type=int, default=256,
                        help="worker upload batch, in completed runs "
                             "(default 256)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the payload here (default: print only)")
    args = parser.parse_args()

    requests = build_requests(args.cells)
    keys = [run_key(r, fingerprint=fingerprint_for(r)) for r in requests]
    print(f"{args.cells} cells, 1 localhost store server + "
          f"{args.workers} fabric workers (host CPUs: {os.cpu_count()}, "
          f"usable: {usable_cpu_count()})")

    workdir = Path(tempfile.mkdtemp(prefix="repro-fabric-"))
    try:
        single_s = single_process_sweep(requests, workdir / "single")
        print(f"single-process: {single_s:7.2f} s")

        with StoreServer(ShardStore(workdir / "central"), port=0) as srv:
            fabric_s, events, hits = fabric_sweep(
                requests, srv.url, args.workers, args.sync_every,
                workdir / "wd")
            print(f"fabric (cold):  {fabric_s:7.2f} s  "
                  f"({events} events, {hits} remote hits)")

            remote = RemoteStore(srv.url)
            resume_missing = len(remote.missing(keys))

            warm_start = time.perf_counter()
            warm = run_fabric_sweep(requests, srv.url,
                                    workers=args.workers,
                                    run_fn=_synthetic_run,
                                    workdir=str(workdir / "warm"))
            warm_s = time.perf_counter() - warm_start
            warm_hit_rate = warm["hits"] / args.cells if args.cells else 1.0
            print(f"fabric (warm):  {warm_s:7.2f} s  "
                  f"({warm['hits']}/{args.cells} remote hits)")

            with ShardStore(workdir / "single") as single_store:
                identical = _report(srv.store) == _report(single_store)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    overhead = fabric_s / single_s if single_s else float("inf")
    cells_per_sec = args.cells / fabric_s if fabric_s else float("inf")
    print(f"fabric overhead: {overhead:.2f}x single-process, "
          f"{cells_per_sec:,.0f} cells/s, resume_missing={resume_missing}, "
          f"results identical: {identical}")

    if args.out:
        write_payload({
            "benchmark": "fabric",
            "cells": args.cells,
            "workers": args.workers,
            "sync_every": args.sync_every,
            "single_seconds": round(single_s, 4),
            "fabric_seconds": round(fabric_s, 4),
            "fabric_overhead": round(overhead, 4),
            "cells_per_sec": round(cells_per_sec, 1),
            "warm_seconds": round(warm_s, 4),
            "warm_hit_rate": round(warm_hit_rate, 6),
            "resume_missing": resume_missing,
            "results_identical": identical,
        }, str(args.out))
        print(f"written to {args.out}")

    ok = identical and resume_missing == 0 and warm_hit_rate == 1.0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
