"""The benchmark's four workloads, built from real figure cells.

Every workload is a closed loop driven from one process: a pass starts
only when the previous one has finished.  A pass is the unit that is
timed and checked:

``sweep_cold``
    A slice of the Fig. 6 / Fig. 8a / Fig. 8b grids (4 rates x 5 pages
    x 5 seeds x QUIC 34 and TCP, once per condition: clean, 1 % loss,
    +50 ms), run with ``build_plt_heatmap(jobs=nproc)`` against a fresh
    store of the program's default kind, then ``build_store_report``.
``sweep_warm``
    The same grid against a store filled during set-up: every pass
    reopens the store by path and rebuilds the three heatmaps from
    cache hits only.
``sim_long``
    Serial long simulations with no store: the Fig. 10 reordering
    transfers, Fig. 8-style 10 MB loads at 1 % loss, Tab. 6 ``tiny``
    video sessions and 500-flow manyflow cells.
``fabric_cold``
    The ``sweep_cold`` grid, still built by ``build_plt_heatmap``, with
    its runs sent through an in-process ``StoreServer`` and
    ``iter_fabric_runs(workers=nproc)``; reported over the URL.

The workload seed picks one of :data:`SEED_SETS` input sets
(``seed % SEED_SETS``), so that every run's outputs can be checked
against digests recorded in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("sweep_cold", "sweep_warm", "sim_long", "fabric_cold")

#: Number of distinct input sets; a seed selects ``seed % SEED_SETS``.
SEED_SETS = 16

RATES = (5.0, 10.0, 50.0, 100.0)
SWEEP_RUNS = 5
#: (title, ``emulated`` keyword arguments) of the three heatmaps.
CONDITIONS = (
    ("Fig. 6 slice: QUIC 34 vs TCP, no added loss or delay", {}),
    ("Fig. 8a slice: QUIC 34 vs TCP, 1% loss", {"loss_pct": 1.0}),
    ("Fig. 8b slice: QUIC 34 vs TCP, +50 ms RTT", {"extra_delay_ms": 50.0}),
)
TEN_MB = 10 * 1024 * 1024

#: The host-speed sampler times PROBE_OPS iterations of a fixed loop,
#: then pauses PROBE_PAUSE seconds (about 6 % of one CPU); a probe
#: between serial runs times SERIAL_PROBE_OPS iterations once.  A
#: reference second is the time the loop needs for REFERENCE_SPEED
#: iterations; the constant only sets the scale of the timings, as gates
#: compare ratios.
PROBE_OPS = 50_000
PROBE_PAUSE = 0.1
SERIAL_PROBE_OPS = 500_000
REFERENCE_SPEED = 15e6
#: Arguments: iterations, pause (negative: sample once) and the file to
#: append ``time speed`` lines to (standard output when absent).
_SAMPLER = """
import sys, time
ops, pause = int(sys.argv[1]), float(sys.argv[2])
out = open(sys.argv[3], "a", buffering=1) if len(sys.argv) > 3 else sys.stdout
while True:
    acc = 0
    start = time.process_time()
    for i in range(ops):
        acc += i & 7
    out.write(f"{time.perf_counter()} {ops / (time.process_time() - start)}\\n")
    if pause < 0:
        break
    time.sleep(pause)
"""


@dataclass
class Heatmaps:
    """The inputs of one sweep: three heatmap grids over one seed range."""

    grids: List[Tuple[str, list, list]]
    runs: int
    seed_base: int

    @property
    def total_runs(self) -> int:
        return sum(len(scenarios) * len(pages) * 2 * self.runs
                   for _title, scenarios, pages in self.grids)


def sweep_inputs(seed: int, smoke: bool = False) -> Heatmaps:
    from repro.http import page, single_object_page
    from repro.netem import emulated

    rates = (10.0, 100.0) if smoke else RATES
    if smoke:
        pages = [single_object_page(5 * 1024), page(10, 10 * 1024)]
    else:
        pages = [single_object_page(kb * 1024) for kb in (5, 100, 1000)]
        pages += [page(10, 10 * 1024), page(100, 10 * 1024)]
    runs = 2 if smoke else SWEEP_RUNS
    grids = [(title, [emulated(rate, **condition) for rate in rates], pages)
             for title, condition in CONDITIONS]
    return Heatmaps(grids, runs, seed_base=runs * (seed % SEED_SETS))


@dataclass
class Cell:
    """One long simulation of ``sim_long`` and how to read its outcome."""

    name: str
    run: Callable[[], Any]
    outcome: Callable[[Any], Dict[str, Any]]


def sim_cells(seed: int, smoke: bool = False) -> List[Cell]:
    """The ``sim_long`` cells, at two simulation seeds per input set.

    Two seeds per pass average out part of the seed-to-seed variation
    in simulated work.  Each cell looks its driver up on the module when
    it runs, so that a traced pass sees the wrapped function.
    """
    import repro.core as core
    import repro.video.qoe as qoe
    from repro.core.manyflow import ManyflowConfig, manyflow_requests
    from repro.http import single_object_page
    from repro.netem import emulated, reordering_scenario

    k = seed % SEED_SETS
    size = 1024 * 1024 if smoke else TEN_MB
    flows = 50 if smoke else 500
    video_s = 10.0 if smoke else 60.0
    lossy = {rate: emulated(rate, loss_pct=1.0) for rate in (10.0, 100.0)}
    cells = []
    for sim_seed in (k,) if smoke else (2 * k, 2 * k + 1):
        # QUIC at the default NACK threshold (3) against TCP with DSACK.
        for name, spec in (("quic-nack3", core.ProtocolSpec.quic()),
                           ("tcp-dsack", core.ProtocolSpec.tcp())):
            cells.append(Cell(
                f"fig10-reorder-{name}-s{sim_seed}",
                lambda spec=spec, s=sim_seed: core.run_bulk_transfer(
                    reordering_scenario(), size, spec, seed=s),
                lambda result: {"elapsed": result.elapsed,
                                "losses": result.losses,
                                "false_losses": result.false_losses}))
        for rate, scenario in lossy.items():
            for proto in ("quic", "tcp"):
                cells.append(Cell(
                    f"fig8-load-{size >> 20}MB-{rate:g}Mbps-1%loss-{proto}"
                    f"-s{sim_seed}",
                    lambda scenario=scenario, proto=proto, s=sim_seed:
                    core.run_page_load(scenario, single_object_page(size),
                                       core.ProtocolSpec(proto), seed=s),
                    lambda output: {"plt": output.plt,
                                    "complete": output.result.complete,
                                    "events": output.sim.events_processed}))
        for proto in ("quic", "tcp"):
            cells.append(Cell(
                f"tab6-video-tiny-{proto}-s{sim_seed}",
                lambda proto=proto, s=sim_seed: qoe.play_video_once(
                    lossy[100.0], "tiny", proto, seed=s,
                    test_seconds=video_s),
                dataclasses.asdict))
        for cc in ("reno", "cubic", "bbr"):
            request = manyflow_requests(ManyflowConfig(flows=flows, cc=cc),
                                        seeds=(sim_seed,))[0]
            cells.append(Cell(
                f"manyflow-{flows}-{cc}-s{sim_seed}",
                lambda request=request: core.execute_request(request),
                lambda record: {"ok": record.ok,
                                "metrics": record.metrics}))
    return cells


def digest(payload: Any) -> str:
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def sweep_digest(renders: List[str], report: str, store_path: str) -> str:
    """Digest of the heatmaps and store report, store location elided.

    The report names the store it was read from (a temporary path or
    the fabric URL); that line is the only part allowed to differ.
    """
    report = report.replace(f"`{store_path}`", "`<store>`")
    return digest("\n\n".join(renders + [report]))


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def probe_speed() -> float:
    """Loop iterations per CPU second right now, sampled once."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _SAMPLER, str(SERIAL_PROBE_OPS), "-1"],
        capture_output=True, text=True, check=True)
    return float(done.stdout.split()[1])


class RefClock:
    """Times intervals in wall and in reference seconds.

    The single-thread speed of a shared host drifts by a factor of two
    or more over minutes and by a tenth from one second to the next,
    which wall timings cannot tell from a change in the program.  The
    clock measures that speed with a fixed loop, timed in CPU time so
    that waiting for a CPU (also behind this benchmark's own workers)
    does not count, in separate processes that are blind to any state
    of this one (threads, garbage-collector settings) that a change
    could alter.  An interval's reference time is its wall time scaled
    by the mean measured speed over :data:`REFERENCE_SPEED`.

    By default a sampler process runs the loop about ten times a second
    next to the timed work, and an interval takes the samples inside
    it.  A ``serial`` clock instead probes once before the first lap and
    after each one, and a lap takes the mean of the probes at its two
    ends: the probe then runs on the CPU the serial work has just left,
    which a concurrent sampler, on the other CPU, does not follow.
    Probe time belongs to no lap.
    """

    def __init__(self, serial: bool = False) -> None:
        self.serial = serial
        if serial:
            self.speed = probe_speed()
        else:
            fd, self.path = tempfile.mkstemp(prefix="speed-",
                                             suffix=".txt")
            os.close(fd)
            self.sampler = subprocess.Popen(
                [sys.executable, "-S", "-c", _SAMPLER, str(PROBE_OPS),
                 str(PROBE_PAUSE), self.path])
        self.start = time.perf_counter()

    def __enter__(self) -> "RefClock":
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self.serial:
            self.sampler.terminate()
            self.sampler.wait()
            os.unlink(self.path)

    def _samples(self) -> List[Tuple[float, float]]:
        """``(time, speed)`` of every finished sample so far."""
        with open(self.path) as log:
            return [(float(t), float(speed)) for t, speed in
                    (line.split() for line in log if line.endswith("\n"))]

    def scale(self, begin: float, end: float) -> float:
        """Reference seconds per wall second between two
        ``time.perf_counter()`` readings, from the sampler.

        An interval too short to hold a sample takes the nearest one.
        """
        samples = self._samples()
        deadline = time.perf_counter() + 10.0
        while not samples:
            if self.sampler.poll() is not None or \
                    time.perf_counter() > deadline:
                raise RuntimeError("host-speed sampler produced nothing")
            time.sleep(0.01)
            samples = self._samples()
        inside = [speed for t, speed in samples if begin <= t <= end]
        if not inside:
            inside = [min(samples, key=lambda sample: min(
                abs(sample[0] - begin), abs(sample[0] - end)))[1]]
        return sum(inside) / len(inside) / REFERENCE_SPEED

    def lap(self) -> Tuple[float, float]:
        """``(wall seconds, scale)`` of the lap since the previous one."""
        now = time.perf_counter()
        wall = now - self.start
        if self.serial:
            speed = probe_speed()
            scale = (self.speed + speed) / (2 * REFERENCE_SPEED)
            self.speed = speed
        else:
            scale = self.scale(self.start, now)
        self.start = time.perf_counter()
        return wall, scale


@dataclass
class Pass:
    """What one timed pass did and whether its outputs were right."""

    attempted: int
    failed: int = 0
    #: Duration of the pass in wall and in reference seconds.
    wall: float = 0.0
    ref: float = 0.0
    #: Per sweep (or per ``sim_long`` cell), ``(wall, reference)``
    #: seconds from its start to its first finished run.
    first_results: List[Tuple[float, float]] = field(default_factory=list)
    digest: Optional[str] = None
    errors: List[str] = field(default_factory=list)
    #: Where the pass left its store (the warm set-up reopens it).
    store_path: Optional[str] = None
    #: Worker (re)spawn times of a fabric pass, from the pass start.
    worker_starts: List[float] = field(default_factory=list)

    def add_lap(self, lap: Tuple[float, float]) -> None:
        wall, scale = lap
        self.wall += wall
        self.ref += wall * scale

    @property
    def runs_per_s(self) -> float:
        """Completed runs per reference second."""
        return (self.attempted - self.failed) / self.ref if self.ref else 0.0

    @property
    def wall_runs_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall if self.wall \
            else 0.0

    def fail(self, message: str, runs: Optional[int] = None) -> None:
        self.failed = self.attempted if runs is None else self.failed + runs
        self.errors.append(message)


@contextlib.contextmanager
def first_result_probe(started: List[float], seen: List[float]
                       ) -> Iterator[None]:
    """Note when each ``build_plt_heatmap`` stream ends its first run.

    ``started[0]`` is the start of the current sweep; the delay to its
    first terminal event is appended to ``seen``.  Wraps whatever
    ``repro.core.runner.iter_runs`` currently is (the plain function,
    the tracer's wrapper or the fabric adapter) for the duration.
    """
    import functools

    import repro.core.runner as runner

    original = runner.iter_runs

    @functools.wraps(original)
    def observed(*args: Any, **kwargs: Any) -> Iterator[Any]:
        first = True
        for event in original(*args, **kwargs):
            if first and event.terminal:
                seen.append(time.perf_counter() - started[0])
                first = False
            yield event

    runner.iter_runs = observed
    try:
        yield
    finally:
        runner.iter_runs = original


@contextlib.contextmanager
def working_dir(path: Path) -> Iterator[Path]:
    previous = os.getcwd()
    path.mkdir(parents=True, exist_ok=True)
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)


def build_heatmaps(inputs: Heatmaps, store: Any, nproc: int, result: Pass,
                   clock: RefClock) -> List[str]:
    """Build the three heatmaps through ``build_plt_heatmap``; renders.

    Each heatmap ends a lap of ``clock``.
    """
    from repro.core import build_plt_heatmap

    started = [0.0]
    firsts: List[float] = []
    renders = []
    with first_result_probe(started, firsts):
        for title, scenarios, pages in inputs.grids:
            started[0] = begin = time.perf_counter()
            heatmap = build_plt_heatmap(title, scenarios, pages,
                                        runs=inputs.runs, jobs=nproc,
                                        store=store,
                                        seed_base=inputs.seed_base)
            renders.append(heatmap.render())
            result.add_lap(clock.lap())
            result.first_results += [
                (first, first * clock.scale(begin, begin + first))
                for first in firsts]
            firsts.clear()
    return renders


def local_sweep(inputs: Heatmaps, store: Any, nproc: int, result: Pass,
                clock: RefClock, expect_hits: bool) -> List[str]:
    """The three heatmaps on the local pool, through a ``RunCache``.

    Checks the cache counters: a cold pass must miss every run, a warm
    pass must hit every run.
    """
    from repro.store import RunCache

    cache = RunCache(store)
    renders = build_heatmaps(inputs, cache, nproc, result, clock)
    total = inputs.total_runs
    wanted = (total, 0) if expect_hits else (0, total)
    if (cache.hits, cache.misses) != wanted:
        result.fail(f"cache hits/misses {cache.hits}/{cache.misses}, "
                    f"expected {wanted[0]}/{wanted[1]}")
    return renders


@contextlib.contextmanager
def through_fabric(url: str, nproc: int,
                   on_worker_start: Callable[[int, int], None],
                   hits: List[int]) -> Iterator[None]:
    """Send ``build_plt_heatmap``'s runs through ``iter_fabric_runs``.

    Replaces ``repro.core.runner.iter_runs`` for the duration, counting
    cache hits into ``hits[0]``.  The fabric function is looked up when
    a sweep starts, so that a traced pass sees the wrapped one.
    """
    import repro.core.runner as runner
    import repro.fabric as fabric

    original = runner.iter_runs

    def fabric_runs(requests: Any, jobs: Any = None, store: Any = None
                    ) -> Iterator[Any]:
        for event in fabric.iter_fabric_runs(
                requests, url, workers=nproc,
                on_worker_start=on_worker_start):
            hits[0] += event.kind == "hit"
            yield event

    runner.iter_runs = fabric_runs
    try:
        yield
    finally:
        runner.iter_runs = original


def cold_pass(inputs: Heatmaps, workdir: Path, nproc: int,
              keep: Optional[Path] = None) -> Pass:
    """One cold sweep into a fresh default store in a new directory.

    With ``keep`` the directory is left in place (the warm set-up).
    """
    from repro.core.report import build_store_report
    from repro.store import resolve_store

    result = Pass(attempted=inputs.total_runs)
    where = keep if keep is not None else Path(
        tempfile.mkdtemp(prefix="cold-", dir=workdir))
    with RefClock() as clock:
        try:
            with working_dir(where):
                store = resolve_store()
                try:
                    renders = local_sweep(inputs, store, nproc, result,
                                          clock, expect_hits=False)
                    report = build_store_report(store)
                finally:
                    store.close()
            result.digest = sweep_digest(renders, report, store.path)
            result.store_path = str(where / store.path)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted
            result.fail(f"{type(exc).__name__}: {exc}")
        result.add_lap(clock.lap())
    if keep is None:
        shutil.rmtree(where, ignore_errors=True)
    return result


def warm_pass(inputs: Heatmaps, store_path: str, nproc: int) -> Pass:
    """Reopen a filled store by path; rebuild everything from hits."""
    from repro.core.report import build_store_report
    from repro.store import resolve_store

    result = Pass(attempted=inputs.total_runs)
    with RefClock() as clock:
        try:
            store = resolve_store(store_path, must_exist=True)
            try:
                renders = local_sweep(inputs, store, nproc, result, clock,
                                      expect_hits=True)
                report = build_store_report(store)
            finally:
                store.close()
            result.digest = sweep_digest(renders, report, store.path)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted
            result.fail(f"{type(exc).__name__}: {exc}")
        result.add_lap(clock.lap())
    return result


def fabric_pass(inputs: Heatmaps, workdir: Path, nproc: int) -> Pass:
    """One cold sweep through a fresh in-process fabric server.

    The ``on_worker_start`` hook notes every worker (re)spawn, in
    seconds from the start of the pass.
    """
    from repro.core.report import build_store_report
    from repro.fabric import StoreServer
    from repro.store import resolve_store

    result = Pass(attempted=inputs.total_runs)
    where = Path(tempfile.mkdtemp(prefix="fabric-", dir=workdir))
    start = time.perf_counter()

    def on_worker_start(_worker_id: int, _pid: int) -> None:
        result.worker_starts.append(time.perf_counter() - start)

    with RefClock() as clock:
        try:
            with working_dir(where):
                server = StoreServer(resolve_store(), port=0)
                url = server.start()
                hits = [0]
                try:
                    with through_fabric(url, nproc, on_worker_start, hits):
                        renders = build_heatmaps(inputs, None, nproc,
                                                 result, clock)
                    remote = resolve_store(url)
                    try:
                        report = build_store_report(remote)
                    finally:
                        remote.close()
                finally:
                    server.shutdown()
            if hits[0]:
                result.fail(f"{hits[0]} cache hits in a cold fabric sweep")
            result.digest = sweep_digest(renders, report, remote.path)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted
            result.fail(f"{type(exc).__name__}: {exc}")
        result.add_lap(clock.lap())
    shutil.rmtree(where, ignore_errors=True)
    return result


def sim_pass(cells: List[Cell], expected: Dict[str, str]) -> Pass:
    """Run every long simulation once; check each outcome's digest.

    Each run is a lap of its own.
    """
    result = Pass(attempted=len(cells))
    with RefClock(serial=True) as clock:
        for cell in cells:
            try:
                outcome = cell.outcome(cell.run())
            except Exception as exc:  # noqa: BLE001 - a failed run counts
                outcome = None
                result.fail(f"{cell.name}: {type(exc).__name__}: {exc}",
                            runs=1)
            wall, scale = clock.lap()
            result.add_lap((wall, scale))
            if outcome is None:
                continue
            # Serial runs: each one's result is its own first result.
            result.first_results.append((wall, wall * scale))
            got = digest(outcome)
            if got != expected.get(cell.name):
                result.fail(f"{cell.name}: outcome digest {got} does not "
                            f"match the recorded {expected.get(cell.name)}",
                            runs=1)
    return result


def sim_outcomes(cells: List[Cell]) -> Dict[str, str]:
    """Outcome digests of every cell (what ``record.py`` stores)."""
    return {cell.name: digest(cell.outcome(cell.run())) for cell in cells}
