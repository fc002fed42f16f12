"""Self-tests of the benchmark, on the ``--smoke`` inputs.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload run.py offers, including ``sweep_warm``, which runs but
#: is not in BENCHMARK.json (see README.md).
WORKLOADS = ["sweep_cold", "sweep_warm", "sim_long", "fabric_cold"]
TRACES = ROOT / ".bench_build" / "perfbench" / "traces"


def bench(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = bench(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}
    hit_ratio = result["metrics"]["store.hit_ratio"]["value"]
    assert hit_ratio == (1.0 if workload == "sweep_warm" else 0.0)


@pytest.mark.parametrize("workload", ["sweep_cold", "sim_long"])
def test_perturbed_digest_counts_as_failed_runs(workload, tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    smoke = expected["smoke"]
    smoke["sweep"]["1"] = "0" * 32
    first = sorted(smoke["sim_long"]["1"])[0]
    smoke["sim_long"]["1"][first] = "0" * 32
    perturbed = tmp_path / "expected.json"
    perturbed.write_text(json.dumps(expected))
    result = bench(workload, 0, "--expected", str(perturbed))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(workload):
    bench(workload, 1)
    summary = json.loads(
        (TRACES / f"{workload}-seed1.summary.json").read_text())
    assert summary["wall_s"] > 0
    for lane, self_s in summary["lane_self_s"].items():
        assert self_s <= summary["wall_s"] * (1 + 1e-9), lane
