"""The traced run's span recorder: wrappers around public functions.

:meth:`Tracer.install` replaces each layer's public entry points (module
functions and class methods of the program) with timing wrappers, from
this file only; :meth:`Tracer.uninstall` puts the originals back. A span
is ``(id, name, start_ns, end_ns, parent id, tag, thread)``: the parent is
the innermost open span on the same thread, the tag names the cell or
request. Spans stay in memory until :meth:`Tracer.write`.

A layer's self time is its spans' duration minus the time their child
spans cover; a layer's total counts only its outermost spans, so a
wrapped function calling another wrapped function of the same layer is
not counted twice.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = (
    ("workloads.generate_s", "s"), ("workloads.generate_calls", "count"),
    ("engine.run_s", "s"), ("engine.events", "count"),
    ("engine.events_per_s", "1/s"), ("sequential.run_s", "s"),
    ("serialize.encode_s", "s"), ("serialize.decode_s", "s"),
    ("serialize.decode_calls", "count"), ("serialize.payload_kb", "KB"),
    ("jobs.cache_key_s", "s"), ("jobs.cache_key_calls", "count"),
    ("jobs.keys_per_cell", "ratio"),
    ("cache.memory.hits", "count"), ("cache.memory.misses", "count"),
    ("cache.memory.load_s", "s"),
    ("cache.disk.hits", "count"), ("cache.disk.misses", "count"),
    ("cache.disk.load_s", "s"), ("cache.disk.store_s", "s"),
    ("singleflight.led", "count"), ("singleflight.joined", "count"),
    ("singleflight.wait_s", "s"),
    ("runner.self_s", "s"),
    ("dispatch.compute_s", "s"), ("dispatch.pool_batches", "count"),
    ("dispatch.chunks", "count"), ("dispatch.busy_ratio", "ratio"),
    ("fleet.register_s", "s"), ("fleet.compute_s", "s"),
    ("fleet.chunks_dispatched", "count"),
    ("fleet.chunks_requeued", "count"),
    ("fleet.cache_short_circuits", "count"), ("fleet.busy_ratio", "ratio"),
    ("schemas.parse_s", "s"),
    ("service.lookup_s", "s"), ("service.digest_s", "s"),
    ("service.digest_computes", "count"), ("service.envelope_s", "s"),
    ("service.run_job_s", "s"),
    ("http.self_s", "s"), ("http.requests", "count"),
    ("http.errors", "count"),
    ("figures.self_s", "s"),
    ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Span name -> the per-layer metric its outermost spans' time feeds.
TOTAL_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "engine.run": "engine.run_s",
    "sequential.run": "sequential.run_s",
    "serialize.encode": "serialize.encode_s",
    "serialize.decode": "serialize.decode_s",
    "jobs.cache_key": "jobs.cache_key_s",
    "cache.memory.load": "cache.memory.load_s",
    "cache.disk.load": "cache.disk.load_s",
    "cache.disk.store": "cache.disk.store_s",
    "singleflight.wait": "singleflight.wait_s",
    "dispatch.compute": "dispatch.compute_s",
    "fleet.compute": "fleet.compute_s",
    "schemas.parse": "schemas.parse_s",
    "service.lookup": "service.lookup_s",
    "service.digest": "service.digest_s",
    "service.envelope": "service.envelope_s",
    "service.run_job": "service.run_job_s",
}
#: Span name -> the per-layer metric its spans' *self* time feeds.
SELF_METRICS = {"runner.run_many": "runner.self_s",
                "figures.run": "figures.self_s"}
#: Span name -> the per-layer call count it feeds.
COUNT_METRICS = {"workloads.generate": "workloads.generate_calls",
                 "serialize.decode": "serialize.decode_calls",
                 "jobs.cache_key": "jobs.cache_key_calls",
                 "service.digest_compute": "service.digest_computes"}

#: Spans the service runs inside an HTTP request (subtracted from it).
SERVER_PREFIXES = ("service.", "schemas.")


def _engine_tag(args, _result):
    sim = args[0]
    return f"{sim.machine.name}/{sim.scheme.name}/{sim.workload.name}"


def _first_arg(args, _result):
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.keys: set[str] = set()
        self.engine_events = 0
        self.payload_bytes = 0
        self.payloads = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def recording(self) -> bool:
        """Whether spans are recorded on the calling thread."""
        return self.active and not getattr(self._local, "paused", False)

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """Record a span around a block (the benchmark's own requests)."""
        if not self.recording():
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, tag,
                               threading.get_ident()))

    @contextmanager
    def paused(self):
        """Suspend recording on this thread (the benchmark's own checks);
        the program's other threads keep recording."""
        was = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = was

    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, tag=None,
              on_return=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return original(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((
                    sid, name, start, end, parent,
                    tag(args, result) if tag else None,
                    threading.get_ident()))
                if on_return is not None and result is not None:
                    with tracer._lock:
                        on_return(args, result)

        self._patch(owner, attr, original, wrapper)

    def _wrap_async(self, owner, attr: str, name: str) -> None:
        """Wrap a coroutine method. Its span is not put on the thread's
        stack: other requests interleave on the event loop meanwhile."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not tracer.recording():
                return await original(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.spans.append((
                    next(tracer._ids), name, start,
                    time.perf_counter_ns(), 0, None,
                    threading.get_ident()))

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_everywhere(self, modules, attr: str, name: str,
                         **options) -> None:
        """Wrap a function in every module that bound it by name."""
        original = getattr(modules[0], attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._wrap(module, attr, name, **options)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points."""
        from repro.analysis import experiments
        from repro.baselines import sequential
        from repro.core.engine import Simulation
        from repro.dist.coordinator import FleetDispatcher
        from repro.dist.dispatch import LocalPoolDispatcher
        from repro.runner import cache, jobs, runner, singleflight
        from repro.service import app, http

        def count_events(_args, result):
            self.engine_events += result.events_processed

        def note_key(_args, key):
            self.keys.add(key)

        def payload_size(raw: bytes) -> None:
            self.payload_bytes += len(raw)
            self.payloads += 1

        self._wrap(jobs.WorkloadSpec, "generate", "workloads.generate",
                   tag=lambda args, _r: args[0].app)
        self._wrap(Simulation, "run", "engine.run", tag=_engine_tag,
                   on_return=count_events)
        self._wrap_everywhere([sequential, runner], "simulate_sequential",
                              "sequential.run")
        self._wrap(runner, "payload_from_result", "serialize.encode")
        self._wrap_everywhere([runner, app], "result_from_payload",
                              "serialize.decode")
        self._wrap(jobs.SimJob, "cache_key", "jobs.cache_key",
                   tag=lambda _args, key: key, on_return=note_key)
        self._wrap(cache.MemoryResultCache, "load", "cache.memory.load",
                   tag=_first_arg,
                   on_return=lambda _args, raw: payload_size(raw))
        self._wrap(cache.MemoryResultCache, "store", "cache.memory.store",
                   tag=_first_arg)
        for attr in ("load", "load_raw"):
            self._wrap(cache.ShardedResultCache, attr, "cache.disk.load",
                       tag=_first_arg)
        for attr in ("store", "store_raw"):
            self._wrap(cache.ShardedResultCache, attr, "cache.disk.store",
                       tag=_first_arg)
        self._wrap(singleflight.SingleFlight, "wait", "singleflight.wait")
        self._wrap(runner.SweepRunner, "run_many", "runner.run_many",
                   tag=lambda args, _r: f"{len(args[1])} jobs")
        self._wrap(LocalPoolDispatcher, "compute", "dispatch.compute",
                   tag=lambda args, _r: f"{len(args[1])} jobs")
        self._wrap(FleetDispatcher, "compute", "fleet.compute",
                   tag=lambda args, _r: f"{len(args[1])} jobs")
        for attr in ("job_from_request", "jobs_from_sweep_request"):
            self._wrap(http, attr, "schemas.parse")
        service = app.SimulationService
        self._wrap(service, "lookup_raw", "service.lookup", tag=_first_arg)
        self._wrap(service, "digest_for", "service.digest", tag=_first_arg)
        self._wrap(service, "envelope_bytes", "service.envelope",
                   tag=_first_arg)
        self._wrap_async(service, "run_job", "service.run_job")
        self._wrap(app, "canonical_payload_digest",
                   "service.digest_compute")
        for figure in ("run_figure9", "run_figure10", "run_figure11"):
            self._wrap(experiments, figure, "figures.run",
                       tag=lambda _args, _r, f=figure: f)

    def install_dispatch_only(self) -> None:
        """Wrap only the pool dispatcher (for the pool-width round)."""
        from repro.dist.dispatch import LocalPoolDispatcher

        self._wrap(LocalPoolDispatcher, "compute", "dispatch.compute",
                   tag=lambda args, _r: f"{len(args[1])} jobs")

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost) seconds, self seconds."""
        by_id = {span[0]: span for span in self.spans}
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _name, start, end, parent, _tag, _tid in self.spans:
            if parent in by_id:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for sid, name, start, end, parent, _tag, _tid in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            duration = end - start
            row["self_s"] += (duration - child_ns[sid]) / 1e9
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[1] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                row["total_s"] += duration / 1e9
        return table

    def http_self_s(self) -> float:
        """Request time not covered by the service spans inside it."""
        server = sorted((start, end) for (_sid, name, start, end, *_rest)
                        in self.spans if name.startswith(SERVER_PREFIXES))
        starts = [start for start, _end in server]
        total = 0
        for _sid, name, start, end, *_rest in self.spans:
            if name != "http.request":
                continue
            covered, reach = 0, start
            index = bisect.bisect_left(starts, start)
            while index < len(server) and server[index][0] <= end:
                s_start, s_end = server[index]
                index += 1
                if s_end > end:
                    continue
                if s_end > reach:
                    covered += s_end - max(s_start, reach)
                    reach = s_end
            total += (end - start) - covered
        return total / 1e9

    def metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics."""
        out: dict[str, float] = {}
        table = self.layer_table()
        for name, metric in TOTAL_METRICS.items():
            out[metric] = table.get(name, {}).get("total_s", 0.0)
        for name, metric in SELF_METRICS.items():
            out[metric] = table.get(name, {}).get("self_s", 0.0)
        calls = Counter(span[1] for span in self.spans)
        for name, metric in COUNT_METRICS.items():
            out[metric] = float(calls[name])
        out["engine.events"] = float(self.engine_events)
        if out["engine.run_s"] > 0:
            out["engine.events_per_s"] = (self.engine_events
                                          / out["engine.run_s"])
        if self.keys:
            out["jobs.keys_per_cell"] = (calls["jobs.cache_key"]
                                         / len(self.keys))
        if self.payloads:
            out["serialize.payload_kb"] = (self.payload_bytes
                                           / self.payloads / 1024.0)
        out["http.self_s"] = self.http_self_s()
        return out

    def write(self, directory: Path, overhead: str) -> None:
        """Write the span file and the per-layer self-time table."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.jsonl", "w") as handle:
            for sid, name, start, end, parent, tag, tid in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "tag": tag,
                    "thread": tid}) + "\n")
        lines = [f"{'span':<22} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
        for name, row in sorted(self.layer_table().items()):
            lines.append(f"{name:<22} {row['calls']:>8} "
                         f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        lines.append(overhead)
        (directory / "layers.txt").write_text("\n".join(lines) + "\n")
