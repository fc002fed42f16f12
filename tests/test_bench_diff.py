"""The perf-regression gate must actually gate.

``scripts/bench_diff.py`` is run as a subprocess — exactly how CI runs
it — against synthetic payloads, so the tests pin the exit-code
contract: 0 when the candidate holds the line, 1 when a gated rate
regresses past the threshold, a contract breaks or a fixed-seed
outcome changes, and 2 when a payload is malformed or of the wrong
kind.  :class:`TestRegistry` checks the registry against the committed
payloads and drives the no-argument form with a stand-in bench.
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.bench import write_payload

REPO = Path(__file__).parent.parent
SCRIPT = REPO / "scripts" / "bench_diff.py"

_spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
bench_diff = sys.modules["bench_diff"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def payload(events_per_sec=1_000_000.0, packets_per_sec=200_000.0,
            plt_wall=0.07, calibration=30_000_000.0, plt_quic=0.73):
    return {
        "benchmark": "sim_hotpath",
        "calibration_ops_per_sec": calibration,
        "workload": {
            "events": 200_000,
            "packets": 30_000,
            "plt_scenario": "emulated(20, extra_delay_ms=20, loss_pct=0.5)",
            "plt_page": "page(10, 102400)",
        },
        "current": {
            "events_per_sec": events_per_sec,
            "packets_per_sec": packets_per_sec,
            "plt_wall_seconds": plt_wall,
            "plt_quic": plt_quic,
            "plt_tcp": 1.30,
            "events_quic": 4419,
            "events_tcp": 5957,
            "packets_delivered": 29_000,
        },
    }


def diff(tmp_path, base, cand, *extra):
    base_file = tmp_path / "base.json"
    cand_file = tmp_path / "cand.json"
    base_file.write_text(json.dumps(base))
    cand_file.write_text(json.dumps(cand))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(base_file), str(cand_file), *extra],
        capture_output=True, text=True)


def verdict(tmp_path, base, cand, code, *markers, extra=()):
    """Gate ``cand`` against ``base``: assert the exit code and markers."""
    proc = diff(tmp_path, base, cand, *extra)
    assert proc.returncode == code, proc.stdout + proc.stderr
    for marker in markers:
        assert marker in proc.stdout, (marker, proc.stdout)


def self_gate(name):
    """A committed payload must pass the gate against itself."""
    committed = str(REPO / name)
    proc = subprocess.run([sys.executable, str(SCRIPT), committed, committed],
                          capture_output=True, text=True)
    assert proc.returncode == 0, (name, proc.stdout + proc.stderr)


def without(base, key):
    broken = dict(base)
    del broken[key]
    return broken


# ----------------------------------------------------------------------
# the other payload kinds: one template each, tweaked per case
# ----------------------------------------------------------------------
def models_fit_row(**overrides):
    base = {"cc": "reno", "proto": "quic", "rate_mbps": 50.0, "rtt": 0.04,
            "loss_rate": 0.01, "observed": 1.1e6, "predicted": 1.0e6,
            "ratio": 1.1, "regime": "loss-limited", "gated": True,
            "ok": True}
    base.update(overrides)
    return base


TEMPLATES = {
    "executor_scaling": {
        "runs_total": 24, "jobs": 4, "serial_seconds": 2.0,
        "parallel_seconds": 0.7, "speedup": 2.9, "results_identical": True,
    },
    "store_hit_rate": {
        "runs_total": 24, "cold_seconds": 2.0, "warm_seconds": 0.05,
        "warm_speedup": 40.0, "warm_hit_rate": 1.0,
        "results_identical": True,
    },
    "pipeline": {
        "cells": 10_000, "jobs": 4, "roundtrip_seconds": 15.0,
        "pipelined_seconds": 5.0, "pipelined_speedup": 3.0,
        "events_total": 20_000, "events_per_sec": 4_000.0,
        "max_event_bytes": 360, "event_bound_bytes": 1024,
        "parent_rss_peak_kb": 40_000, "results_identical": True,
    },
    "fabric": {
        "cells": 10_000, "workers": 4, "sync_every": 256,
        "single_seconds": 4.0, "fabric_seconds": 10.0,
        "fabric_overhead": 2.5, "cells_per_sec": 1_000.0,
        "warm_seconds": 2.0, "warm_hit_rate": 1.0, "resume_missing": 0,
        "results_identical": True,
    },
    "manyflow": {
        "calibration_ops_per_sec": 30_000_000.0,
        "workload": {"flows": 1000, "aqm": "droptail", "seed": 0,
                     "duration": 300.0, "scenario": "manyflow_scenario()"},
        "flows": 1000, "batched_seconds": 0.9, "per_packet_seconds": 13.5,
        "speedup_vs_per_packet": 15.0, "events_per_sec": 500_000.0,
        "heap_events_batched": 15_000, "heap_events_per_packet": 1_950_000,
        "results_identical": True,
        "outcome": {"flows_completed": 1000, "jain_index": 0.41,
                    "plt_p50": 0.173, "bytes_acked": 123_456_789},
    },
    "models": {
        "calibration_ops_per_sec": 30_000_000.0,
        "workload": {"ccs": ["reno", "cubic", "bbr"],
                     "loss_rates": [0.01, 0.02], "seeds": [0], "flows": 8,
                     "scenario": "manyflow_scenario(rate_mbps=50.0, "
                                 "rtt=0.040)"},
        "tolerance": 0.6, "cells": 10, "gated_cells": 10,
        "within_tolerance": 10, "max_abs_log_error": 0.29,
        "mean_abs_log_error": 0.12, "results_identical": True,
        "fit": [models_fit_row(),
                models_fit_row(proto="tcp", observed=0.9e6, ratio=0.9)],
    },
    "chaos": {
        "cells": 600, "workers": 3, "sync_every": 32, "seed": 42,
        "cpu_count": 4, "usable_cpus": 4, "baseline_seconds": 1.2,
        "chaos_seconds": 1.8, "faults_scheduled": 7, "faults_fired": 7,
        "quarantined": 2, "residual_issues": 0, "corruptions_injected": 8,
        "corruptions_detected": 8, "fsck_detect_rate": 1.0,
        "results_identical": True, "fsck_clean": True,
        "plan_deterministic": True,
    },
}


def make(kind, **overrides):
    return {"benchmark": kind, **TEMPLATES[kind], **overrides}


class TestBenchDiff:
    def test_identical_payloads_pass(self, tmp_path):
        verdict(tmp_path, payload(), payload(), 0, "OK")

    def test_small_slowdown_within_threshold_passes(self, tmp_path):
        verdict(tmp_path, payload(), payload(events_per_sec=850_000.0), 0)

    def test_injected_regression_fails(self, tmp_path):
        verdict(tmp_path, payload(), payload(events_per_sec=500_000.0), 1,
                "REGRESSION", "events_per_sec")

    def test_packets_regression_fails(self, tmp_path):
        verdict(tmp_path, payload(), payload(packets_per_sec=100_000.0), 1,
                "packets_per_sec")

    def test_plt_wall_is_informational_only(self, tmp_path):
        # A 3x wall-clock slowdown on the PLT pair alone must NOT fail:
        # it is the noisiest number and is reported, not gated.
        verdict(tmp_path, payload(), payload(plt_wall=0.21), 0,
                "informational")

    def test_threshold_flag_tightens_the_gate(self, tmp_path):
        verdict(tmp_path, payload(), payload(events_per_sec=850_000.0), 1,
                extra=("--threshold", "0.10"))

    def test_calibration_normalises_across_hosts(self, tmp_path):
        # Candidate host is 2x slower overall; raw events/sec halves but
        # the normalised rate is unchanged, so the gate passes.
        slow_host = payload(events_per_sec=500_000.0,
                            packets_per_sec=100_000.0,
                            calibration=15_000_000.0)
        verdict(tmp_path, payload(), slow_host, 0, "normalised")

    def test_behaviour_change_fails(self, tmp_path):
        # Same speed, different simulated outcome: the "optimisation"
        # changed what the simulator computes.
        verdict(tmp_path, payload(), payload(plt_quic=0.74), 1,
                "BEHAVIOUR CHANGE")

    @pytest.mark.parametrize("base, cand", [
        (payload(), payload(events_per_sec=0.0, packets_per_sec=0.0)),
        (payload(), payload(events_per_sec="fast")),
        (payload(), payload(packets_per_sec=None)),
        (make("manyflow"), make("manyflow", events_per_sec=0.0)),
        (make("manyflow"), make("manyflow", events_per_sec="fast")),
    ], ids=["sim-zero", "sim-string", "sim-null", "manyflow-zero",
            "manyflow-string"])
    def test_zero_or_non_numeric_rate_fails(self, tmp_path, base, cand):
        verdict(tmp_path, base, cand, 1, "REGRESSION")

    def test_gates_committed_payload_against_itself(self):
        self_gate("BENCH_sim.json")


class TestMultiPayloadGate:
    """Exit-code contract for the contract-gated payload kinds."""

    def test_executor_payload_passes(self, tmp_path):
        verdict(tmp_path, make("executor_scaling"),
                make("executor_scaling"), 0, "executor_scaling")

    def test_store_payload_passes(self, tmp_path):
        verdict(tmp_path, make("store_hit_rate"), make("store_hit_rate"), 0,
                "store_hit_rate")

    def test_executor_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("executor_scaling"),
                make("executor_scaling", results_identical=False), 1,
                "CONTRACT FAIL")

    def test_executor_speedup_is_informational(self, tmp_path):
        # A slower parallel run is the host's business, not a gate.
        verdict(tmp_path, make("executor_scaling"),
                make("executor_scaling", speedup=1.1, parallel_seconds=1.8), 0)

    def test_store_cold_hit_rate_fails(self, tmp_path):
        verdict(tmp_path, make("store_hit_rate"),
                make("store_hit_rate", warm_hit_rate=0.9), 1, "warm_hit_rate")

    def test_store_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("store_hit_rate"),
                make("store_hit_rate", results_identical=False), 1)

    def test_pipeline_payload_passes(self, tmp_path):
        verdict(tmp_path, make("pipeline"), make("pipeline"), 0,
                "pipeline")

    def test_pipeline_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("pipeline"),
                make("pipeline", results_identical=False), 1,
                "CONTRACT FAIL")

    def test_pipeline_event_bound_breach_fails(self, tmp_path):
        # A record payload leaking into the parent pipe is the exact
        # regression the streaming API exists to prevent.
        verdict(tmp_path, make("pipeline"),
                make("pipeline", max_event_bytes=9_000), 1, "parent pipe")

    def test_pipeline_speedup_is_informational(self, tmp_path):
        verdict(tmp_path, make("pipeline"),
                make("pipeline", pipelined_speedup=1.1,
                     pipelined_seconds=13.0), 0,
                "informational")

    def test_pipeline_missing_key_is_malformed(self, tmp_path):
        verdict(tmp_path, make("pipeline"),
                without(make("pipeline"), "max_event_bytes"), 2,
                "missing required")

    def test_gates_committed_pipeline_payload(self):
        self_gate("BENCH_pipeline.json")

    def test_fabric_payload_passes(self, tmp_path):
        verdict(tmp_path, make("fabric"), make("fabric"), 0, "fabric")

    def test_fabric_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("fabric"),
                make("fabric", results_identical=False), 1, "CONTRACT FAIL")

    def test_fabric_lost_records_fail(self, tmp_path):
        # A non-empty post-sweep /missing probe means uploads were lost.
        verdict(tmp_path, make("fabric"), make("fabric", resume_missing=3),
                1, "resume_missing")

    def test_fabric_cold_warm_pass_fails(self, tmp_path):
        verdict(tmp_path, make("fabric"),
                make("fabric", warm_hit_rate=0.98), 1, "warm_hit_rate")

    def test_fabric_overhead_is_informational(self, tmp_path):
        # Localhost HTTP overhead is the host's business, not a gate.
        verdict(tmp_path, make("fabric"),
                make("fabric", fabric_overhead=4.0, fabric_seconds=16.0,
                     cells_per_sec=625.0), 0, "informational")

    def test_fabric_missing_key_is_malformed(self, tmp_path):
        verdict(tmp_path, make("fabric"),
                without(make("fabric"), "resume_missing"), 2,
                "missing required")

    def test_gates_committed_fabric_payload(self):
        self_gate("BENCH_fabric.json")

    def test_missing_required_key_is_malformed(self, tmp_path):
        verdict(tmp_path, make("executor_scaling"),
                without(make("executor_scaling"), "results_identical"), 2,
                "missing required")

    def test_kind_mismatch_is_an_error(self, tmp_path):
        verdict(tmp_path, payload(), make("store_hit_rate"), 2,
                "like with like")

    def test_unknown_kind_is_an_error(self, tmp_path):
        odd = {"benchmark": "frobnication", "x": 1}
        verdict(tmp_path, odd, odd, 2)

    def test_legacy_payload_without_kind_is_sim(self, tmp_path):
        old = without(payload(), "benchmark")
        verdict(tmp_path, old, old, 0)

    def test_gates_committed_executor_and_store_payloads(self):
        self_gate("BENCH_executor.json")
        self_gate("BENCH_store.json")


class TestHistory:
    def test_history_line_appended_and_parseable(self, tmp_path):
        ledger = tmp_path / "hist.jsonl"
        host = {"cpu_count": 4, "usable_cpus": 2, "python": "3.11.7"}
        verdict(tmp_path, make("store_hit_rate"),
                make("store_hit_rate", **host), 0,
                extra=("--history", str(ledger)))
        lines = ledger.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["benchmark"] == "store_hit_rate"
        assert entry["ok"] is True
        assert entry["metrics"]["warm_hit_rate"] == 1.0
        assert {key: entry[key] for key in host} == host
        assert "ts" in entry

    def test_failures_are_recorded_too(self, tmp_path):
        ledger = tmp_path / "hist.jsonl"
        verdict(tmp_path, make("store_hit_rate"), make("store_hit_rate"), 0,
                extra=("--history", str(ledger)))
        verdict(tmp_path, make("store_hit_rate"),
                make("store_hit_rate", warm_hit_rate=0.5), 1,
                extra=("--history", str(ledger)))
        lines = [json.loads(line)
                 for line in ledger.read_text().splitlines()]
        assert [entry["ok"] for entry in lines] == [True, False]

    def test_no_history_flag_writes_nothing(self, tmp_path):
        diff(tmp_path, payload(), payload())
        assert not list(tmp_path.glob("*.jsonl"))


class TestManyflowGate:
    """Exit-code contract for the thousand-flow fast-path payload."""

    def test_payload_passes(self, tmp_path):
        verdict(tmp_path, make("manyflow"), make("manyflow"), 0,
                "manyflow")

    def test_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("manyflow"),
                make("manyflow", results_identical=False), 1,
                "CONTRACT FAIL")

    def test_speedup_below_floor_fails(self, tmp_path):
        verdict(tmp_path, make("manyflow"),
                make("manyflow", speedup_vs_per_packet=2.4), 1,
                "speedup_vs_per_packet")

    def test_rate_regression_fails(self, tmp_path):
        verdict(tmp_path, make("manyflow"),
                make("manyflow", events_per_sec=300_000.0), 1,
                "events_per_sec")

    def test_rate_is_host_normalised(self, tmp_path):
        # Half the rate on a half-speed host is not a regression.
        verdict(tmp_path, make("manyflow"),
                make("manyflow", events_per_sec=250_000.0,
                     calibration_ops_per_sec=15_000_000.0), 0,
                "host-normalised")

    def test_outcome_change_fails_on_same_workload(self, tmp_path):
        changed = make("manyflow")
        changed["outcome"] = dict(changed["outcome"], jain_index=0.55)
        verdict(tmp_path, make("manyflow"), changed, 1,
                "BEHAVIOUR CHANGE", "jain_index")

    def test_outcome_not_compared_across_workloads(self, tmp_path):
        changed = make("manyflow", 
            workload=dict(make("manyflow")["workload"], flows=200),
            flows=200)
        changed["outcome"] = dict(changed["outcome"], flows_completed=200)
        verdict(tmp_path, make("manyflow"), changed, 0)

    def test_missing_key_is_malformed(self, tmp_path):
        verdict(tmp_path, make("manyflow"),
                without(make("manyflow"), "outcome"), 2,
                "missing required")

    def test_gates_committed_manyflow_payload(self):
        self_gate("BENCH_manyflow.json")


class TestChaosGate:
    def test_chaos_payload_passes(self, tmp_path):
        verdict(tmp_path, make("chaos"), make("chaos"), 0, "chaos")

    def test_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("chaos"),
                make("chaos", results_identical=False), 1, "CONTRACT FAIL")

    def test_residual_corruption_fails(self, tmp_path):
        verdict(tmp_path, make("chaos"),
                make("chaos", fsck_clean=False, residual_issues=2), 1,
                "fsck_clean")

    def test_partial_detection_fails(self, tmp_path):
        verdict(tmp_path, make("chaos"),
                make("chaos", corruptions_detected=7,
                     fsck_detect_rate=0.875), 1,
                "fsck_detect_rate")

    def test_nondeterministic_plan_fails(self, tmp_path):
        verdict(tmp_path, make("chaos"),
                make("chaos", plan_deterministic=False), 1,
                "plan_deterministic")

    def test_unfired_fault_fails(self, tmp_path):
        # A scheduled fault that never landed exercised nothing — the
        # chaos run proved less than it claims.
        verdict(tmp_path, make("chaos"), make("chaos", faults_fired=6), 1,
                "faults_fired")

    def test_slower_chaos_run_is_informational(self, tmp_path):
        verdict(tmp_path, make("chaos"), make("chaos", chaos_seconds=9.9),
                0)

    def test_missing_key_is_malformed(self, tmp_path):
        verdict(tmp_path, make("chaos"),
                without(make("chaos"), "fsck_clean"), 2,
                "missing required")

    def test_gates_committed_chaos_payload(self):
        self_gate("BENCH_chaos.json")


class TestModelsGate:
    """Exit-code contract for the analytical-oracle fit payload."""

    def test_payload_passes(self, tmp_path):
        verdict(tmp_path, make("models"), make("models"), 0, "models")

    def test_results_not_identical_fails(self, tmp_path):
        verdict(tmp_path, make("models"),
                make("models", results_identical=False), 1, "CONTRACT FAIL")

    def test_divergent_cell_fails(self, tmp_path):
        verdict(tmp_path, make("models"),
                make("models", within_tolerance=9), 1, "within tolerance")

    def test_zero_gated_cells_fails(self, tmp_path):
        # An empty grid proves nothing; the gate must refuse it.
        verdict(tmp_path, make("models"),
                make("models", gated_cells=0, within_tolerance=0), 1)

    def test_log_error_past_ceiling_fails(self, tmp_path):
        # ln(1 + 0.6) ~= 0.47; a worst cell above it diverged.
        verdict(tmp_path, make("models"),
                make("models", max_abs_log_error=0.5), 1,
                "max_abs_log_error")

    def test_fit_change_fails_on_same_workload(self, tmp_path):
        changed = make("models")
        changed["fit"] = [models_fit_row(observed=1.3e6, ratio=1.3),
                          changed["fit"][1]]
        verdict(tmp_path, make("models"), changed, 1, "BEHAVIOUR CHANGE")

    def test_fit_not_compared_across_workloads(self, tmp_path):
        changed = make("models", 
            workload=dict(make("models")["workload"], flows=16))
        changed["fit"] = [models_fit_row(observed=1.3e6, ratio=1.3)]
        verdict(tmp_path, make("models"), changed, 0)

    def test_missing_key_is_malformed(self, tmp_path):
        verdict(tmp_path, make("models"), without(make("models"), "fit"),
                2, "missing required")

    def test_gates_committed_models_payload(self):
        self_gate("BENCH_models.json")


# ----------------------------------------------------------------------
# the registry itself
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_committed_payload_has_exactly_one_entry(self):
        committed = sorted(REPO.glob("BENCH_*.json"))
        assert committed
        for path in committed:
            kind = bench_diff.payload_kind(json.loads(path.read_text()))
            owners = [entry for entry in bench_diff.REGISTRY
                      if entry.baseline == path.name]
            assert [entry.kind for entry in owners] == [kind], path.name
        assert {(REPO / entry.baseline) for entry in bench_diff.REGISTRY} \
            == set(committed)

    def test_every_entry_script_exists(self):
        for entry in bench_diff.REGISTRY:
            assert (REPO / entry.command[0]).is_file(), entry.kind

    @pytest.mark.parametrize("entry", bench_diff.REGISTRY,
                             ids=lambda entry: entry.kind)
    def test_committed_payload_passes_against_itself(self, entry):
        committed = json.loads((REPO / entry.baseline).read_text())
        assert bench_diff.gate(committed, committed) == (0, [])

    def test_write_payload_stamps_host_context(self, tmp_path):
        out = tmp_path / "payload.json"
        write_payload({"benchmark": "store_hit_rate"}, str(out))
        written = json.loads(out.read_text())
        assert set(bench_diff.HOST_KEYS) <= set(written)
        assert written["usable_cpus"] >= 1

    @pytest.mark.parametrize("writes, code", [
        (make("store_hit_rate"), 0),
        (make("store_hit_rate", warm_hit_rate=0.5), 1),
        (None, 1),
    ], ids=["pass", "contract-fail", "no-payload"])
    def test_no_arguments_runs_every_entry(self, tmp_path, monkeypatch,
                                           writes, code):
        # A stand-in bench: it writes its candidate to --out (or writes
        # nothing), and the committed baseline must stay untouched.
        baseline = json.dumps(make("store_hit_rate"))
        (tmp_path / "BENCH_store.json").write_text(baseline)
        (tmp_path / "bench.py").write_text(
            "import json, sys\n"
            f"payload = {writes!r}\n"
            "if payload is not None:\n"
            "    json.dump(payload, open(sys.argv[-1], 'w'))\n")
        entry = dataclasses.replace(bench_diff.ENTRIES["store_hit_rate"],
                                    command=("bench.py", "--runs", "2"))
        monkeypatch.setattr(bench_diff, "REPO", tmp_path)
        monkeypatch.setattr(bench_diff, "REGISTRY", (entry,))
        ledger = tmp_path / "hist.jsonl"
        assert bench_diff.main(["--history", str(ledger)]) == code
        assert (tmp_path / "BENCH_store.json").read_text() == baseline
        lines = ledger.read_text().splitlines() if ledger.exists() else []
        assert len(lines) == (writes is not None)
