"""End-to-end benchmark of the repro package on real figure cells.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep_cold``, ``sweep_warm``,
``sim_long`` and ``fabric_cold``.  The timed phase repeats whole passes
of the workload until ``--seconds`` have elapsed.  Every pass checks its
outputs against the digests in ``expected.json``; a mismatch, an
exception or a non-ok run counts as a failed run.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  Their timings are in reference seconds,
which take the host's drifting speed out of the figures (see
``workloads.RefClock``); ``runs_per_s`` and ``first_result_s`` in wall
seconds are printed above the result line.  With ``--trace 1`` untraced and traced
passes alternate: the traced ones give the per-layer metrics (see
``spans.py``), the untraced ones the base of ``trace.overhead_frac``.
The spans themselves are written to ``.bench_build/perfbench/traces``.

Set-up time is the median time, in reference seconds, of several
fresh-interpreter set-ups (``--setup-only``: import the package, build
the inputs, open the workload's store or server), plus, on
``sweep_warm``, the cold fill of the store.

Exit status is 2, with no result line, when the checkout holds no
``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 7

END_TO_END_UNITS = {"runs_per_s": "runs/ref_s", "first_result_s": "ref_s",
                    "setup_s": "s", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}
WALL_UNITS = {"runs_per_s": "runs/s", "first_result_s": "s"}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    expected = json.loads((HERE / "expected.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_cold", "sweep_warm", "sim_long",
                                 "fabric_cold"))
    parser.add_argument("--seed", type=int, default=expected["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json",
                        help="digest file the outputs are checked against")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (timed by the "
                             "parent run)")
    return parser.parse_args(argv)


def prepare_environment(workdir: Path) -> None:
    """Keep every file this run writes inside the checkout.

    ``REPRO_STORE`` would override the default store and
    ``REPRO_EXECUTOR_SERIAL`` would turn the pool off; neither may leak
    in from the caller's environment.
    """
    os.environ.pop("REPRO_STORE", None)
    os.environ.pop("REPRO_EXECUTOR_SERIAL", None)
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    os.environ["SQLITE_TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))


def set_up(args: argparse.Namespace, workdir: Path) -> Any:
    """Import the package and build the workload's inputs."""
    import workloads

    if args.workload == "sim_long":
        return workloads.sim_cells(args.seed, args.smoke)
    inputs = workloads.sweep_inputs(args.seed, args.smoke)
    if args.setup_only:
        from repro.store import resolve_store

        with workloads.working_dir(Path(tempfile.mkdtemp(dir=workdir))):
            store = resolve_store()
            if args.workload == "fabric_cold":
                from repro.fabric import StoreServer

                server = StoreServer(store, port=0)
                try:
                    resolve_store(server.start(), must_exist=True).close()
                finally:
                    server.shutdown()
            else:
                store.close()
    return inputs


def time_setups(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """``(wall, reference)`` seconds of fresh-interpreter set-ups."""
    import workloads

    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    times = []
    with workloads.RefClock() as clock:
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            start = time.perf_counter()
            # No timeout: with one, the wait polls in 50 ms steps.
            subprocess.run(command, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            end = time.perf_counter()
            times.append((end - start,
                          (end - start) * clock.scale(start, end)))
    return times


def host_context(workers: int) -> Dict[str, Any]:
    from repro.core.bench import calibrate
    from repro.core.executor import usable_cpu_count

    return {"cpu_count": os.cpu_count(), "usable_cpus": usable_cpu_count(),
            "workers": workers, "python": platform.python_version(),
            "calibrate_ops_per_s": round(calibrate()), "commit": commit()}


def commit() -> str:
    """The checkout's commit when it is a git work tree, else unknown."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Runner:
    """Drives one workload's set-up, timed passes and checks."""

    def __init__(self, args: argparse.Namespace, workdir: Path,
                 expected: Dict[str, Any]) -> None:
        import workloads
        from repro.core.executor import usable_cpu_count

        self.args = args
        self.workdir = workdir
        self.nproc = usable_cpu_count()
        sets = expected["smoke" if args.smoke else "full"]
        k = str(args.seed % workloads.SEED_SETS)
        self.sweep_digest = sets["sweep"].get(k)
        self.sim_digests = sets["sim_long"].get(k, {})
        self.setup_passes: List[Any] = []

    def setup(self, inputs: Any) -> float:
        """Workload set-up inside this process; returns its timed part,
        in reference seconds."""
        import workloads

        self.inputs = inputs
        if self.args.workload != "sweep_warm":
            return 0.0
        fill = workloads.cold_pass(inputs, self.workdir, self.nproc,
                                   keep=self.workdir / "warm")
        self.check_sweep(fill)
        self.warm_store = fill.store_path
        self.setup_passes.append(fill)
        return fill.ref

    def run_pass(self) -> Any:
        import workloads

        name = self.args.workload
        if name == "sim_long":
            return workloads.sim_pass(self.inputs, self.sim_digests)
        if name == "sweep_cold":
            result = workloads.cold_pass(self.inputs, self.workdir,
                                         self.nproc)
        elif name == "sweep_warm":
            result = workloads.warm_pass(self.inputs, self.warm_store,
                                         self.nproc)
        else:
            result = workloads.fabric_pass(self.inputs, self.workdir,
                                           self.nproc)
        self.check_sweep(result)
        return result

    def check_sweep(self, result: Any) -> None:
        if result.failed or result.digest == self.sweep_digest:
            return
        result.fail(f"heatmaps + store report digest {result.digest} does "
                    f"not match the recorded {self.sweep_digest}")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_phase(runner: Runner, seconds: float, tracer: Any
                ) -> Dict[str, List[Any]]:
    """Repeat passes until ``seconds`` have elapsed.

    With a tracer, untraced and traced passes alternate (at least one
    of each); the traced ones run with every layer wrapped.
    """
    passes: Dict[str, List[Any]] = {"untraced": [], "traced": []}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and \
            len(passes["traced"]) < len(passes["untraced"])
        if traced:
            tracer.install()
            span = tracer.open("bench.pass")
            try:
                result = runner.run_pass()
            finally:
                tracer.close(span)
                tracer.uninstall()
        else:
            result = runner.run_pass()
        passes["traced" if traced else "untraced"].append(result)
        for error in result.errors:
            print(f"check failed: {error}", file=sys.stderr)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or passes["traced"]):
            return passes


def end_to_end(passes: List[Any], setup_s: float) -> Dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "runs_per_s": median([p.runs_per_s for p in passes]),
        "first_result_s": first_result(passes, 1),
        "setup_s": setup_s,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def wall_figures(passes: List[Any]) -> Dict[str, float]:
    """``runs_per_s`` and ``first_result_s`` in plain wall seconds."""
    return {
        "runs_per_s": median([p.wall_runs_per_s for p in passes]),
        "first_result_s": first_result(passes, 0),
    }


def first_result(passes: List[Any], column: int) -> float:
    """Median over passes of the mean time to a first result.

    The mean over a pass's sweeps (or ``sim_long`` runs) keeps the
    figure from jumping between heatmaps, or kinds of run, whose
    typical times differ.  ``column`` 0 is wall, 1 reference seconds.
    """
    return median([statistics.fmean(first[column]
                                    for first in p.first_results)
                   for p in passes if p.first_results])


def per_layer(runner: Runner, passes: Dict[str, List[Any]], tracer: Any,
              trace_dir: Path) -> Tuple[Dict[str, float], Dict[str, Any]]:
    import spans

    traced = passes["traced"]
    fabric = runner.args.workload == "fabric_cold"
    metrics, detail = spans.summarise(tracer, runner.nproc, fabric)
    untraced_rate = median([p.runs_per_s for p in passes["untraced"]])
    traced_rate = median([p.runs_per_s for p in traced])
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate
                                      if untraced_rate else 0.0)
    starts = [p.worker_starts for p in traced if p.worker_starts]
    metrics["fabric.first_worker_s"] = median([s[0] for s in starts])
    # Each of the three fabric sweeps of a pass spawns one worker per
    # CPU; any further start is a respawn.
    initial = 3 * runner.nproc
    metrics["fabric.restarts"] = float(sum(max(0, len(s) - initial)
                                           for s in starts))
    stem = f"{runner.args.workload}-seed{runner.args.seed}"
    written = tracer.write_spans(trace_dir / f"{stem}.spans.jsonl")
    detail.update(spans_written=written, metrics=metrics)
    return metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    base = ROOT / ".bench_build" / "perfbench"
    workdir = base / f"{args.workload}-{os.getpid()}"
    prepare_environment(workdir)
    try:
        if args.setup_only:
            set_up(args, workdir)
            return 0
        return measure(args, workdir, base / "traces")
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, workdir: Path, trace_dir: Path) -> int:
    setups = time_setups(args)
    inputs = set_up(args, workdir)
    runner = Runner(args, workdir, json.loads(args.expected.read_text()))
    setup_s = median([ref for _wall, ref in setups]) + runner.setup(inputs)
    tracer = None
    if args.trace:
        import spans

        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer = spans.Tracer(workdir / "spool")
    passes = timed_phase(runner, args.seconds, tracer)
    every = runner.setup_passes + passes["untraced"] + passes["traced"]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    host = host_context(runner.nproc)
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"passes: {len(passes['untraced'])} untraced, "
          f"{len(passes['traced'])} traced; setup runs: "
          + ", ".join(f"{wall:.3f}s" for wall, _ref in setups))
    if tracer is None:
        metrics = end_to_end(passes["untraced"], setup_s)
        units = END_TO_END_UNITS
        for name, value in wall_figures(passes["untraced"]).items():
            print(f"wall {name:<23} {value:>14.6g} {WALL_UNITS[name]}")
    else:
        metrics, detail = per_layer(runner, passes, tracer, trace_dir)
        units = {name: layer_unit(name) for name in metrics}
        detail.update(host=host, workload=args.workload, seed=args.seed)
        stem = f"{args.workload}-seed{args.seed}"
        (trace_dir / f"{stem}.summary.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units.get(name, '')}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()}}))
    return 0


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "utilisation")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
