"""Span tracing from outside the program, for the benchmark's traced runs.

:class:`Tracer` wraps public functions and methods of ``repro`` in place
(module attributes and class attributes, restored on exit) so that each
call records a span ``(name, start, end, parent, run id)``.  Nothing
under ``src/`` changes.  Spans are kept in memory and written out when
the benchmark ends.

Pool and fabric workers are forked from the benchmark process, so they
inherit the wrapped functions.  A forked worker notices the new pid,
starts an empty span list, and appends each finished root span (with
its children) to a spool file that the parent merges at the end.
Spans that run on the fabric server's handler threads are kept in the
``server`` lane.

While a ``sim.*`` span is open, a sampling thread reads the traced
thread's innermost frame every millisecond or so and splits the span's
time by that frame's file, through ``repro.core.bench._subsystem_of``,
into the subsystem partition.  Sampling stands in for cProfile, which
made the simulation three to four times slower and pushed a traced
``sim_long`` run near three minutes; with sampling the time of a C
function counts towards the Python code that called it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers a span can belong to; a span's layer is the longest of these
#: that prefixes its name.
LAYERS = ("bench", "executor", "sim", "store.keys", "store.cache",
          "store.backend", "aggregate", "report", "fabric")

#: The sampled partition reported as ``sim.<part>.self_s``.
SIM_PARTS = ("netem", "transport", "http", "video", "core", "other")

#: Span names whose durations feed one metric each.
_STORE_BACKEND_SPANS = ("store.open", "store.get", "store.put",
                        "store.counter")


def _layer_of(name: str) -> str:
    if name.startswith(_STORE_BACKEND_SPANS):
        return "store.backend"
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    return best or "bench"


def _request_label(args: Tuple[Any, ...]) -> Optional[str]:
    """The run id of a call that takes a run request or event.

    Methods get theirs as the second argument.
    """
    from repro.core.executor import RunEvent, RunRequest

    for arg in args[:2]:
        if isinstance(arg, (RunRequest, RunEvent)):
            return arg.label
    return None


class Sampler:
    """Splits the time of one followed thread by its innermost frame.

    The sampling thread starts on first use, so a forked worker (which
    inherits no threads) starts its own.
    """

    INTERVAL = 0.001

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.parts: Dict[str, float] = defaultdict(float)
        self.target: Optional[int] = None
        self.since = 0.0
        self.wake = threading.Event()
        self.thread: Optional[threading.Thread] = None
        self.part_of: Dict[str, str] = {}

    def follow(self, thread_id: Optional[int]) -> None:
        """Sample ``thread_id`` from now on; None pauses sampling."""
        self.since = time.perf_counter()
        self.target = thread_id
        if thread_id is None:
            self.wake.clear()
            return
        if self.thread is None:
            self.thread = threading.Thread(target=self._run, daemon=True,
                                           name="perfbench-sampler")
            self.thread.start()
        self.wake.set()

    def take(self) -> Dict[str, float]:
        """The partition so far, and start a new one."""
        with self.lock:
            parts, self.parts = self.parts, defaultdict(float)
        return parts

    def _run(self) -> None:
        last = time.perf_counter()
        while True:
            self.wake.wait()
            time.sleep(self.INTERVAL)
            now = time.perf_counter()
            target, since = self.target, self.since
            frame = (sys._current_frames().get(target)
                     if target is not None else None)
            if frame is not None:
                part = self._part(frame.f_code.co_filename)
                with self.lock:
                    # Time before the latest follow() was not sampled.
                    self.parts[part] += now - max(last, since)
            last = now

    def _part(self, filename: str) -> str:
        part = self.part_of.get(filename)
        if part is None:
            from repro.core.bench import _subsystem_of

            part = _subsystem_of(filename)
            if part not in SIM_PARTS:
                part = "other"
            self.part_of[filename] = part
        return part


class Tracer:
    """In-memory span recorder shared by the benchmark and its workers."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Events seen on the owner's run streams (executor metrics).
        self.stream = {"run_s": 0.0, "executed": 0, "retries": 0,
                       "hits": 0, "terminal": 0, "probe_s": 0.0}
        self._fresh_state()

    # -- per-process state -------------------------------------------------
    def _fresh_state(self) -> None:
        self.pid = os.getpid()
        #: [name, start, end, parent index, run id, lane]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.local = threading.local()
        self.sampler = Sampler()
        self.sim_depth = 0

    def _stack(self) -> List[int]:
        if os.getpid() != self.pid:
            self._fresh_state()  # a forked worker starts empty
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    # -- spans -------------------------------------------------------------
    def open(self, name: str, run_id: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if run_id is None and parent >= 0:
            run_id = self.spans[parent][4]
        lane = ("main" if threading.current_thread() is
                threading.main_thread() else "server")
        self.spans.append([name, time.perf_counter(), 0.0, parent, run_id,
                           lane])
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if not stack and os.getpid() != self.owner:
            self._spool()

    def _spool(self) -> None:
        """Append a finished root span tree from a worker to its file."""
        line = json.dumps({"pid": self.pid, "spans": self.spans,
                           "counts": self.counts, "sim": self.sampler.take()})
        with open(self.spool_dir / f"spans-{self.pid}.jsonl", "a") as out:
            out.write(line + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    # -- wrapping ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, module_name: str, attr: str,
                          make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` wherever ``repro`` imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) \
                    and module.__dict__.get(attr) is original:
                self._patch(module, attr, replacement)

    def wrap_function(self, module_name: str, attr: str, name: str, *,
                      on_result: Optional[Callable[[Any, float], None]]
                      = None) -> None:
        self._patch_everywhere(module_name, attr, lambda original:
                               self._wrapper(original, name, on_result))

    def wrap_method(self, cls: type, attr: str, name: str, *,
                    rows_of: Optional[Callable[[Tuple[Any, ...]], int]]
                    = None) -> None:
        original = cls.__dict__[attr]
        self._patch(cls, attr, self._wrapper(original, name, None, rows_of))

    def wrap_stream(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a generator-returning function; time each resume.

        In the owning process every event is tallied for the executor
        metrics (``RunEvent.wall_time`` of executed runs, retries,
        hits, and the probe time to the first ``miss-start``).
        """
        def make(original: Callable[..., Iterator[Any]]) -> Any:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                called = time.perf_counter()
                return self._resumes(original(*args, **kwargs), name,
                                     called)
            return wrapper

        self._patch_everywhere(module_name, attr, make)

    def _resumes(self, inner: Iterator[Any], name: str,
                 called: float) -> Iterator[Any]:
        owner = os.getpid() == self.owner
        probed = False
        last_hit = None
        try:
            while True:
                index = self.open(name)
                try:
                    event = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                if owner:
                    now = time.perf_counter()
                    if event.kind == "miss-start" and not probed:
                        self.stream["probe_s"] += now - called
                        probed = True
                    elif event.kind == "hit":
                        last_hit = now
                        self.stream["hits"] += 1
                    elif event.kind == "retry":
                        self.stream["retries"] += 1
                    if event.terminal:
                        self.stream["terminal"] += 1
                        if event.kind != "hit":
                            self.stream["executed"] += 1
                            self.stream["run_s"] += event.wall_time
                yield event
        finally:
            if owner and not probed and last_hit is not None:
                self.stream["probe_s"] += last_hit - called
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def _wrapper(self, original: Callable[..., Any], name: str,
                 on_result: Optional[Callable[[Any, float], None]],
                 rows_of: Optional[Callable[[Tuple[Any, ...]], int]] = None
                 ) -> Callable[..., Any]:
        tracer = self
        sampled = name.startswith("sim.")

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name, _request_label(args))
            if rows_of is not None and tracer.spans[index][5] == "main":
                tracer.counts[name + ".rows"] += rows_of(args)
            if sampled:
                if tracer.sim_depth == 0:
                    tracer.sampler.follow(threading.get_ident())
                tracer.sim_depth += 1
            result = done = None
            try:
                result = original(*args, **kwargs)
                done = True
            finally:
                if sampled:
                    tracer.sim_depth -= 1
                    if tracer.sim_depth == 0:
                        tracer.sampler.follow(None)
                if done and on_result is not None:
                    # Before the span closes: closing a worker's root
                    # span spools its counts.
                    on_result(result,
                              time.perf_counter() - tracer.spans[index][1])
                tracer.close(index)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        # Load every module wrapped below, so sys.modules holds them.
        import repro.core.aggregate
        import repro.core.executor  # noqa: F401
        import repro.core.heatmap
        import repro.core.manyflow  # noqa: F401
        import repro.core.report  # noqa: F401
        import repro.core.runner  # noqa: F401
        import repro.fabric
        import repro.store
        import repro.video.qoe  # noqa: F401

        def page_load(result: Any, duration: float) -> None:
            self.counts["sim.events"] += result.sim.events_processed
            self.counts["sim.events_s"] += duration

        def manyflow(result: Any, duration: float) -> None:
            self.counts["sim.events"] += result.metrics.get("heap_events", 0)
            self.counts["sim.logical_events"] += result.metrics.get(
                "logical_events", 0)
            self.counts["sim.events_s"] += duration

        self.wrap_stream("repro.core.executor", "iter_runs",
                         "executor.iter_runs")
        self.wrap_function("repro.core.executor", "execute_request",
                           "executor.execute_request")
        self.wrap_function("repro.core.runner", "run_page_load",
                           "sim.run_page_load", on_result=page_load)
        self.wrap_function("repro.core.runner", "run_bulk_transfer",
                           "sim.run_bulk_transfer")
        self.wrap_function("repro.video.qoe", "play_video_once",
                           "sim.play_video_once")
        self.wrap_function("repro.core.manyflow", "execute_manyflow",
                           "sim.execute_manyflow", on_result=manyflow)
        for attr in ("run_key", "fingerprint_for", "composite_fingerprint"):
            self.wrap_function("repro.store.keys", attr,
                               f"store.keys.{attr}")
        cache = repro.store.RunCache
        self.wrap_method(cache, "lookup_with_key", "store.cache.lookup")
        self.wrap_method(cache, "offer", "store.cache.offer")
        self.wrap_method(cache, "offer_many", "store.cache.offer")
        for backend in (repro.store.SqliteStore, repro.store.ShardStore):
            self.wrap_method(backend, "__init__", "store.open")
            self.wrap_method(backend, "get", "store.get")
            self.wrap_method(backend, "put", "store.put",
                             rows_of=lambda args: 1)
            self.wrap_method(backend, "put_many", "store.put",
                             rows_of=lambda args: len(args[1]))
            self.wrap_method(backend, "bump_counter", "store.counter")
        remote = repro.fabric.RemoteStore
        self.wrap_method(remote, "missing", "fabric.missing")
        self.wrap_method(remote, "fetch", "fabric.fetch")
        self.wrap_method(remote, "upload_rows", "fabric.upload",
                         rows_of=lambda args: len(args[1]))
        self.wrap_stream("repro.fabric.coordinator", "iter_fabric_runs",
                         "fabric.iter_fabric_runs")
        grid = repro.core.heatmap.GridAccumulator
        self.wrap_method(grid, "add", "aggregate.grid.add")
        self.wrap_method(grid, "build", "aggregate.grid.build")
        stream = repro.core.aggregate.StreamAggregator
        for attr in ("add_record", "add_event", "aggregates",
                     "render_fairness", "render_model_fit", "render_dwell"):
            self.wrap_method(stream, attr, f"aggregate.stream.{attr}")
        self.wrap_function("repro.core.report", "build_store_report",
                           "report.build_store_report")
        self.wrap_method(repro.core.heatmap.Heatmap, "render",
                         "report.heatmap.render")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------
    def batches(self) -> Iterator[Dict[str, Any]]:
        """Every span batch: the owner's, then each spooled worker tree."""
        yield {"pid": self.pid, "spans": self.spans, "counts": self.counts,
               "sim": self.sampler.take()}
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as spool:
                for line in spool:
                    yield json.loads(line)

    def write_spans(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with open(path, "w") as out:
            for batch in self.batches():
                for name, start, end, parent, run_id, lane in batch["spans"]:
                    out.write(json.dumps({
                        "pid": batch["pid"], "lane": lane, "name": name,
                        "start": start, "end": end, "parent": parent,
                        "run": run_id}) + "\n")
                    written += 1
        return written


def summarise(tracer: Tracer, workers: int, fabric: bool
              ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics plus per-lane self-time sums from one trace.

    The wall time is that of the ``bench.pass`` root spans, which hold
    every other span of the trace.  Busy time of a group of
    spans counts only spans with no ancestor in the same group, so
    nested calls (``run_key`` calling ``fingerprint_for``) are not
    counted twice.  Backend spans on the fabric server's threads feed
    ``fabric.server.busy_s`` instead of the ``store.*`` metrics.
    """
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    self_by_layer: Dict[str, float] = defaultdict(float)
    lanes: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    sim_parts: Dict[str, float] = defaultdict(float)
    wall = sum(end - start for name, start, end, *_rest in tracer.spans
               if name == "bench.pass")
    for batch in tracer.batches():
        spans = batch["spans"]
        for key, value in batch["counts"].items():
            counts[key] += value
        for key, value in batch["sim"].items():
            sim_parts[key] += value
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _run, _lane in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _run, lane) in \
                enumerate(spans):
            duration = end - start
            server = lane == "server"
            layer = "fabric.server" if server else _layer_of(name)
            self_time = duration - child_time[index]
            self_by_layer[layer] += self_time
            lanes[f"{batch['pid']}:{lane}"] += self_time
            for group in _groups(name, server):
                calls[group] += 1
                ancestor = parent
                nested = False
                while ancestor >= 0:
                    if group in _groups(spans[ancestor][0],
                                        spans[ancestor][5] == "server"):
                        nested = True
                        break
                    ancestor = spans[ancestor][3]
                if not nested:
                    busy[group] += duration
    stream = tracer.stream
    run_s = stream["run_s"]
    store_busy = busy["store"]
    events_s = counts["sim.events_s"]
    metrics = {
        "executor.run_s": run_s,
        "executor.probe_s": stream["probe_s"],
        "executor.utilisation": (run_s / (wall * workers)
                                 if run_s and workers else 0.0),
        "executor.runs_executed": float(stream["executed"]),
        "executor.retries": float(stream["retries"]),
        "sim.events": counts["sim.events"],
        "sim.logical_events": counts["sim.logical_events"],
        "sim.events_per_s": (counts["sim.events"] / events_s
                             if events_s else 0.0),
        "store.keys.calls": calls["store.keys"],
        "store.keys.busy_s": busy["store.keys"],
        "store.open.busy_s": busy["store.open"],
        "store.get.calls": calls["store.get"],
        "store.get.busy_s": busy["store.get"],
        "store.put.rows": counts["store.put.rows"],
        "store.put.busy_s": busy["store.put"],
        "store.counter.calls": calls["store.counter"],
        "store.counter.busy_s": busy["store.counter"],
        "store.hit_ratio": (stream["hits"] / stream["terminal"]
                            if stream["terminal"] else 0.0),
        "store.overhead_frac": store_busy / run_s if run_s else 0.0,
        "aggregate.busy_s": busy["aggregate"],
        "report.busy_s": busy["report"],
        "fabric.missing.calls": calls["fabric.missing"],
        "fabric.missing.busy_s": busy["fabric.missing"],
        "fabric.fetch.calls": calls["fabric.fetch"],
        "fabric.fetch.busy_s": busy["fabric.fetch"],
        "fabric.upload.rows": counts["fabric.upload.rows"],
        "fabric.upload.busy_s": busy["fabric.upload"],
        "fabric.server.busy_s": busy["fabric.server"] if fabric else 0.0,
    }
    for part in SIM_PARTS:
        metrics[f"sim.{part}.self_s"] = sim_parts[part]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    detail = {"lane_self_s": dict(lanes), "wall_s": wall,
              "server_self_s": self_by_layer["fabric.server"]}
    return metrics, detail


def _groups(name: str, server: bool) -> Tuple[str, ...]:
    """The metric groups a span's duration counts towards."""
    if server:
        return ("fabric.server",) if name.startswith("store.") else ()
    out: List[str] = []
    if name.startswith("store."):
        out.append("store")
        if name.startswith("store.keys."):
            out.append("store.keys")
        for group in _STORE_BACKEND_SPANS:
            if name == group:
                out.append(group)
    elif name.startswith("aggregate."):
        out.append("aggregate")
    elif name.startswith("report."):
        out.append("report")
    elif name in ("fabric.missing", "fabric.fetch", "fabric.upload"):
        out.append(name)
    return tuple(out)
