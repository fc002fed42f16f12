#!/usr/bin/env python
"""Perf-regression gate over the committed ``BENCH_*.json`` payloads.

Usage::

    python scripts/bench_diff.py [--history benchmarks/results/bench_history.jsonl]
    python scripts/bench_diff.py BASELINE.json CANDIDATE.json \
        [--threshold 0.25] [--history PATH]

With no positional arguments every entry of :data:`REGISTRY` runs: its
bench command writes a fresh candidate payload into a temporary
directory (the bench's ``--out``), and :func:`gate` compares it with
the entry's committed baseline.  Committed files are never written.
The two-file form gates any two payloads of one kind, for ad-hoc diffs.

One :class:`Entry` per payload kind declares everything the gate holds:

* ``required`` — keys both payloads must carry (else: malformed);
* ``contracts`` — exact values and paired bounds the candidate must
  meet, such as ``results_identical is True`` or ``max_event_bytes <=
  event_bound_bytes``;
* ``rates`` — throughputs that may drop at most ``--threshold``
  (default 25 %), divided first by each payload's
  ``calibration_ops_per_sec`` when both carry one, so that hosts of
  different speed compare; a rate that is missing, zero or not a
  number fails;
* ``fixed`` — fixed-seed outcome blocks that must be identical when
  the ``same_when`` fields of both payloads match (same workload);
* ``history`` — metrics copied into the history line; the ones gated
  nowhere else are printed as informational trends.

The sim payload nests its measurements under ``current``; the gate reads
them as if they were top-level.  A payload without a ``benchmark`` field
is a legacy sim payload.

Exit codes: 0 = gate passes; 1 = regression, behaviour change or
contract failure; 2 = malformed payload (missing required keys),
unknown kind or a baseline/candidate kind mismatch.  The no-argument
form exits with the worst code of its entries.

``--history PATH`` appends one JSON line per gated payload (commit,
kind, verdict, host context, metrics); the committed ledger lives at
``benchmarks/results/bench_history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Host context every payload carries; the history line copies it.
HOST_KEYS = ("cpu_count", "usable_cpus", "python")


@dataclass(frozen=True)
class Ref:
    """A contract target read from the candidate: ``fn(payload[key])``."""
    key: str
    fn: Callable[[Any], Any] = lambda value: value
    label: str = ""

    def __str__(self) -> str:
        return self.label or self.key


@dataclass(frozen=True)
class Contract:
    """``payload[key] <op> target`` must hold; ``why`` says what it protects."""
    key: str
    op: str
    target: Any
    why: str


OPS = {"is": operator.is_, "==": operator.eq, "<=": operator.le,
       ">=": operator.ge, ">": operator.gt}


def identical(why: str) -> Contract:
    return Contract("results_identical", "is", True, why)


@dataclass(frozen=True)
class Entry:
    kind: str
    baseline: str
    command: Tuple[str, ...]
    required: Tuple[str, ...]
    contracts: Tuple[Contract, ...] = ()
    rates: Tuple[str, ...] = ()
    fixed: Tuple[str, ...] = ()
    same_when: Tuple[str, ...] = ("workload",)
    history: Tuple[str, ...] = ()


REGISTRY: Tuple[Entry, ...] = (
    Entry("sim_hotpath", "BENCH_sim.json",
          ("benchmarks/sim_hotpath.py", "--repeat", "3"),
          required=("events_per_sec", "packets_per_sec"),
          rates=("events_per_sec", "packets_per_sec"),
          fixed=("plt_quic", "plt_tcp", "events_quic", "events_tcp",
                 "packets_delivered"),
          # the microbenchmark sizes move the rates, not the PLT pair
          same_when=("workload.plt_scenario", "workload.plt_page"),
          history=("events_per_sec", "packets_per_sec", "plt_wall_seconds")),
    Entry("executor_scaling", "BENCH_executor.json",
          ("benchmarks/executor_scaling.py", "--jobs", "2"),
          required=("runs_total", "jobs", "serial_seconds",
                    "parallel_seconds", "speedup", "results_identical"),
          contracts=(identical("parallel results are byte-identical to "
                               "serial"),),
          history=("speedup", "serial_seconds", "parallel_seconds")),
    Entry("store_hit_rate", "BENCH_store.json",
          ("benchmarks/store_hit_rate.py", "--runs", "2"),
          required=("runs_total", "cold_seconds", "warm_seconds",
                    "warm_speedup", "warm_hit_rate", "results_identical"),
          contracts=(
              identical("warm and resumed passes are byte-identical to "
                        "the cold pass"),
              Contract("warm_hit_rate", "==", 1.0,
                       "a warm sweep must re-execute nothing")),
          history=("warm_speedup", "warm_hit_rate", "cold_seconds",
                   "warm_seconds")),
    Entry("pipeline", "BENCH_pipeline.json",
          ("benchmarks/executor_pipeline.py", "--cells", "2000"),
          required=("cells", "jobs", "roundtrip_seconds",
                    "pipelined_seconds", "pipelined_speedup",
                    "events_per_sec", "max_event_bytes",
                    "event_bound_bytes", "parent_rss_peak_kb",
                    "results_identical"),
          contracts=(
              identical("the pipelined sweep writes the same store as "
                        "the round-trip path"),
              Contract("max_event_bytes", "<=", Ref("event_bound_bytes"),
                       "no record payload may cross the parent pipe")),
          history=("pipelined_speedup", "events_per_sec",
                   "parent_rss_peak_kb", "pipelined_seconds",
                   "roundtrip_seconds")),
    Entry("fabric", "BENCH_fabric.json",
          ("benchmarks/fabric_sweep.py", "--cells", "2000"),
          required=("cells", "workers", "single_seconds", "fabric_seconds",
                    "fabric_overhead", "cells_per_sec", "warm_hit_rate",
                    "resume_missing", "results_identical"),
          contracts=(
              identical("the served store renders the single-process "
                        "report"),
              Contract("resume_missing", "==", 0,
                       "a finished sweep leaves no key unanswered by the "
                       "server"),
              Contract("warm_hit_rate", "==", 1.0,
                       "a warm fabric pass must re-execute nothing")),
          history=("fabric_overhead", "cells_per_sec", "warm_hit_rate",
                   "fabric_seconds", "single_seconds")),
    Entry("manyflow", "BENCH_manyflow.json",
          ("benchmarks/sim_manyflow.py",),
          required=("flows", "batched_seconds", "per_packet_seconds",
                    "speedup_vs_per_packet", "events_per_sec",
                    "results_identical", "outcome"),
          contracts=(
              identical("batched delivery and per-packet scheduling give "
                        "the same simulated outcome"),
              Contract("speedup_vs_per_packet", ">=", 3.0,
                       "the fast path must stay at least 3x per-packet "
                       "scheduling")),
          rates=("events_per_sec",),
          fixed=("outcome",),
          history=("speedup_vs_per_packet", "events_per_sec",
                   "batched_seconds", "per_packet_seconds")),
    Entry("models", "BENCH_models.json",
          ("benchmarks/model_fit.py",),
          required=("tolerance", "cells", "gated_cells", "within_tolerance",
                    "max_abs_log_error", "results_identical", "fit"),
          contracts=(
              identical("two oracle-grid passes give identical metrics"),
              Contract("gated_cells", ">", 0,
                       "an empty oracle grid proves nothing"),
              Contract("within_tolerance", "==", Ref("gated_cells"),
                       "every gated cell must sit within tolerance of its "
                       "closed-form model"),
              Contract("max_abs_log_error", "<=",
                       Ref("tolerance", lambda t: math.log(1.0 + t),
                           "ln(1 + tolerance)"),
                       "no CC kernel may drift past the tolerance band")),
          fixed=("fit",),
          same_when=("workload", "tolerance"),
          history=("max_abs_log_error", "mean_abs_log_error",
                   "within_tolerance", "gated_cells")),
    Entry("chaos", "BENCH_chaos.json",
          ("scripts/chaos_sweep.py", "--cells", "600"),
          required=("cells", "workers", "seed", "baseline_seconds",
                    "chaos_seconds", "faults_scheduled", "faults_fired",
                    "quarantined", "residual_issues", "corruptions_injected",
                    "corruptions_detected", "fsck_detect_rate",
                    "results_identical", "fsck_clean", "plan_deterministic"),
          contracts=(
              identical("the faulted sweep converges to the fault-free "
                        "store"),
              Contract("fsck_clean", "is", True,
                       "fsck --repair leaves no residual corruption"),
              Contract("fsck_detect_rate", "==", 1.0,
                       "fsck catches every injected silent corruption"),
              Contract("plan_deterministic", "is", True,
                       "the same seed rebuilds the same fault schedule"),
              Contract("faults_fired", "==", Ref("faults_scheduled"),
                       "every scheduled fault must fire")),
          history=("chaos_seconds", "baseline_seconds", "faults_fired",
                   "quarantined", "fsck_detect_rate")),
)

ENTRIES = {entry.kind: entry for entry in REGISTRY}


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def payload_kind(payload: Dict[str, Any]) -> str:
    """The payload's declared benchmark; legacy payloads are sim-shaped."""
    return payload.get("benchmark", "sim_hotpath")


def flatten(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One namespace: a sim payload's ``current`` block over its top level."""
    current = payload.get("current")
    return {**payload, **current} if isinstance(current, dict) else payload


def _lookup(payload: Dict[str, Any], path: str) -> Any:
    value: Any = payload
    for part in path.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def _positive(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value < math.inf)


def _changed(a: Any, b: Any) -> str:
    if isinstance(a, list) and isinstance(b, list):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted((k for k in a.keys() | b.keys() if a.get(k) != b.get(k)),
                      key=str)
        return "differs in " + ", ".join(map(str, keys))
    return f"{a!r} -> {b!r}"


def check_contract(kind: str, contract: Contract,
                   cand: Dict[str, Any]) -> Optional[str]:
    value, target = cand.get(contract.key), contract.target
    shown = repr(target)
    try:
        if isinstance(target, Ref):
            shown = str(target)
            target = target.fn(cand.get(target.key))
            shown = f"{shown} = {target!r}"
        held = OPS[contract.op](value, target)
    except (TypeError, ValueError):
        held = False
    if held:
        print(f"{contract.key}: {value!r} {contract.op} {shown} [ok]")
        return None
    print(f"{contract.key}: {value!r}, expected {contract.op} {shown} "
          "[CONTRACT FAIL]")
    return (f"{kind} contract: {contract.why} ({contract.key} is "
            f"{value!r}, expected {contract.op} {shown})")


def check_rates(entry: Entry, base: Dict[str, Any], cand: Dict[str, Any],
                threshold: float) -> List[str]:
    base_cal = base.get("calibration_ops_per_sec")
    cand_cal = cand.get("calibration_ops_per_sec")
    normalised = _positive(base_cal) and _positive(cand_cal)
    note = "host-normalised" if normalised else "raw"
    failures = []
    for metric in entry.rates:
        b, c = base.get(metric), cand.get(metric)
        if not (_positive(b) and _positive(c)):
            print(f"{metric}: {c!r} (baseline {b!r}) [REGRESSION]")
            failures.append(f"{metric} is {c!r} (baseline {b!r}); a gated "
                            "rate must be a positive number")
            continue
        ratio = (c / cand_cal) / (b / base_cal) if normalised else c / b
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append(f"{metric} regressed {100 * (1 - ratio):.1f}% "
                            f"({note}; limit {100 * threshold:.0f}%)")
        print(f"{metric}: {ratio:.3f}x of baseline ({note}) [{status}]")
    return failures


def check_fixed(entry: Entry, base: Dict[str, Any],
                cand: Dict[str, Any]) -> List[str]:
    for path in entry.same_when:
        value = _lookup(base, path)
        if value is None or value != _lookup(cand, path):
            print(f"{', '.join(entry.fixed)}: not compared, the workload "
                  "differs")
            return []
    failures = []
    for key in entry.fixed:
        if key in base and key in cand and base[key] != cand[key]:
            detail = _changed(base[key], cand[key])
            print(f"{key}: {detail} [BEHAVIOUR CHANGE]")
            failures.append(f"behaviour change: fixed-seed {key} {detail} "
                            "on an identical workload")
    if not failures:
        print(f"{', '.join(entry.fixed)}: identical on identical workload "
              "[ok]")
    return failures


def gate(base_payload: Dict[str, Any], cand_payload: Dict[str, Any],
         threshold: float = 0.25) -> Tuple[int, List[str]]:
    """Gate ``cand_payload`` against ``base_payload``: (exit code, failures)."""
    base_kind, cand_kind = payload_kind(base_payload), payload_kind(cand_payload)
    if base_kind != cand_kind:
        return 2, [f"baseline is a {base_kind!r} payload but candidate is "
                   f"{cand_kind!r}; compare like with like"]
    entry = ENTRIES.get(base_kind)
    if entry is None:
        return 2, [f"unknown benchmark kind {base_kind!r} (expected one of "
                   f"{', '.join(sorted(ENTRIES))})"]
    base, cand = flatten(base_payload), flatten(cand_payload)
    malformed = []
    for which, payload in (("baseline", base), ("candidate", cand)):
        missing = [key for key in entry.required if key not in payload]
        if missing:
            malformed.append(f"{which} payload missing required {entry.kind} "
                             f"key(s): {', '.join(missing)}")
    if malformed:
        return 2, malformed

    print(f"benchmark: {entry.kind}")
    failures = [check_contract(entry.kind, contract, cand)
                for contract in entry.contracts]
    failures = [failure for failure in failures if failure]
    failures += check_rates(entry, base, cand, threshold)
    if entry.fixed:
        failures += check_fixed(entry, base, cand)
    gated = set(entry.rates) | {c.key for c in entry.contracts}
    for key in entry.history:
        if key not in gated and key in base and key in cand:
            print(f"{key}: {cand[key]!r} (baseline {base[key]!r}) "
                  "[informational]")
    return (1 if failures else 0), failures


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------
def _commit_id() -> Optional[str]:
    commit = os.environ.get("GIT_COMMIT") or os.environ.get("GITHUB_SHA")
    if commit:
        return commit[:12]
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=REPO)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def append_history(path: str, ok: bool, payload: Dict[str, Any]) -> None:
    kind = payload_kind(payload)
    flat = flatten(payload)
    line = {
        "ts": round(time.time(), 3),
        "commit": _commit_id(),
        "benchmark": kind,
        "ok": ok,
        **{key: payload[key] for key in HOST_KEYS if key in payload},
        "metrics": {key: flat[key] for key in ENTRIES[kind].history
                    if key in flat},
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"history line appended to {path}")


# ----------------------------------------------------------------------
def diff(baseline: Path, candidate: Path, threshold: float,
         history: Optional[str]) -> int:
    """Gate two payload files, print the verdict, return its exit code."""
    with open(baseline) as handle:
        base_payload = json.load(handle)
    with open(candidate) as handle:
        cand_payload = json.load(handle)
    code, failures = gate(base_payload, cand_payload, threshold)
    if history and code != 2:
        append_history(history, code == 0, cand_payload)
    if failures:
        print("\nFAIL:")
        for line in failures:
            print(f"  - {line}")
    else:
        print(f"\nOK: {payload_kind(cand_payload)} holds its contracts, "
              "rates and fixed-seed blocks")
    return code


def run_registry(threshold: float, history: Optional[str]) -> int:
    """Run every entry's bench into a temporary ``--out`` and gate it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="bench-candidates-") as tmp:
        for entry in REGISTRY:
            out = Path(tmp) / entry.baseline
            print(f"\n=== {entry.kind}: {' '.join(entry.command)}",
                  flush=True)
            bench = subprocess.run([sys.executable, *entry.command,
                                    "--out", str(out)], cwd=REPO, env=env)
            code = 1
            if out.exists():
                code = diff(REPO / entry.baseline, out, threshold, history)
            if bench.returncode:
                print(f"FAIL: {entry.command[0]} exited {bench.returncode}")
                code = max(code, 1)
            verdicts.append((entry.kind, code))
    print("\n=== verdicts")
    for kind, code in verdicts:
        print(f"{kind:<18} {('ok', 'FAIL', 'MALFORMED')[code]}")
    return max(code for _, code in verdicts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("payloads", nargs="*", metavar="PAYLOAD",
                        help="BASELINE.json CANDIDATE.json to gate; none "
                             "runs every registry entry")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional drop in a gated "
                             "rate (default 0.25 = 25%%)")
    parser.add_argument("--history", default=None, metavar="JSONL",
                        help="append a per-commit history line here "
                             "(e.g. benchmarks/results/bench_history.jsonl)")
    args = parser.parse_args(argv)
    if not args.payloads:
        return run_registry(args.threshold, args.history)
    if len(args.payloads) != 2:
        parser.error("give BASELINE.json and CANDIDATE.json, or nothing")
    return diff(Path(args.payloads[0]), Path(args.payloads[1]),
                args.threshold, args.history)


if __name__ == "__main__":
    sys.exit(main())
