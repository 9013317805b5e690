"""The simulation service: async coordination over the sync runner.

:class:`SimulationService` is the engine-agnostic core behind the HTTP
layer (:mod:`repro.service.http`). It owns exactly one
:class:`~repro.runner.runner.SweepRunner` — and therefore one memory
LRU, one shared sharded tier, and one
:class:`~repro.runner.singleflight.SingleFlight` registry — so every
request on a frontend funnels into the same cache/stampede machinery the
CLI uses. The asyncio side never blocks on a simulation: compute runs in
a small thread pool, and per-cell completion (the runner's ``progress``
callback) is marshalled back onto the event loop and fanned out to any
number of streaming subscribers.

Determinism contract, restated for the wire: a response's ``digest`` is
the SHA-256 of the result's canonical byte form
(:func:`~repro.analysis.serialization.canonical_result_bytes`), so a
client can verify that what it decoded over HTTP is bit-identical to a
local run of the same job — no matter which tier served it. The digest
is the one the result's producer stored in its cache entry's header
(:mod:`repro.runner.entry`); the entry passed its hash check on the way
in, so serving it takes no hash and no decode.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.runner.cache import MemoryResultCache, ResultCache
from repro.runner.entry import entry_body, entry_digest
from repro.runner.jobs import SimJob
# canonical_payload_digest is re-exported for clients: it recomputes an
# envelope's digest from the payload JSON received.
from repro.runner.runner import (  # noqa: F401
    Resolved,
    SweepRunner,
    canonical_payload_digest,
)

#: Default bound (seconds) a request waits on a computation another
#: request leads before failing with a timeout instead of hanging.
DEFAULT_INFLIGHT_TIMEOUT = 300.0

#: Default thread-pool width for compute dispatch. Each thread mostly
#: waits on the runner (which itself fans out to processes), so this
#: bounds concurrent *sweeps*, not concurrent simulations.
DEFAULT_WORKERS = 8

#: Memory-tier size for a service frontend: larger than the CLI default
#: because a warm frontend's whole point is serving repeated lookups
#: from process memory.
DEFAULT_SERVICE_MEMORY_ENTRIES = 1024

#: How many *finished* sweeps a frontend keeps around for late status /
#: event-replay reads. Beyond this, the oldest finished sweeps (and
#: their full event histories) are dropped so a long-running server's
#: memory stays bounded; running sweeps are never pruned.
MAX_FINISHED_SWEEPS = 256



@dataclass
class SweepState:
    """Bookkeeping for one submitted sweep, shared by all subscribers."""

    sweep_id: str
    keys: list[str]
    descriptions: list[str]
    total: int
    done: int = 0
    status: str = "running"  # running | done | failed
    error: str | None = None
    #: Event history, appended only from the event loop; late subscribers
    #: replay it from the start, so every waiter sees the full stream.
    events: list[dict[str, Any]] = field(default_factory=list)
    cond: asyncio.Condition = field(default_factory=asyncio.Condition)

    @property
    def finished(self) -> bool:
        """Whether the terminal event has been published."""
        return self.status != "running"

    def to_dict(self) -> dict[str, Any]:
        """The ``GET /v1/sweeps/{id}`` status body."""
        body: dict[str, Any] = {
            "sweep_id": self.sweep_id,
            "status": self.status,
            "done": self.done,
            "total": self.total,
            "keys": list(self.keys),
            "events_url": f"/v1/sweeps/{self.sweep_id}/events",
        }
        if self.error is not None:
            body["error"] = self.error
        return body


class SimulationService:
    """Async facade over one shared :class:`SweepRunner`."""

    def __init__(self, runner: SweepRunner | None = None,
                 cache_dir: str | None = None,
                 jobs: int | None = None,
                 workers: int = DEFAULT_WORKERS,
                 use_disk: bool = True,
                 inflight_timeout: float = DEFAULT_INFLIGHT_TIMEOUT,
                 dispatcher: Any = None) -> None:
        if runner is None:
            runner = SweepRunner(
                jobs=jobs,
                cache=ResultCache(cache_dir) if use_disk else None,
                memory_cache=MemoryResultCache(
                    DEFAULT_SERVICE_MEMORY_ENTRIES),
                inflight_timeout=inflight_timeout,
                dispatcher=dispatcher,
            )
        self.runner = runner
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-svc")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._sweeps: dict[str, SweepState] = {}
        self._sweep_seq = 0
        self.counters: dict[str, int] = {
            "jobs.submitted": 0,
            "sweeps.submitted": 0,
            "results.served": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind_loop(self) -> None:
        """Adopt the running event loop (call once, from the loop)."""
        self._loop = asyncio.get_running_loop()

    def close(self) -> None:
        """Release the compute thread pool."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The bound event loop (``bind_loop`` must have run)."""
        assert self._loop is not None, "SimulationService.bind_loop not called"
        return self._loop

    # ------------------------------------------------------------------
    # Cached lookup (the warm path)
    # ------------------------------------------------------------------
    def lookup_raw(self, key: str) -> tuple[str, bytes] | None:
        """Tiered read-only lookup: ``(source, cache entry)`` or miss.

        The runner's own :meth:`~repro.runner.runner.SweepRunner.lookup`:
        memory tier first (sub-millisecond: one dict probe, no decode),
        then the shared tier, whose hit must pass its hash check and
        decode its summary — anything else is a miss — and is promoted
        into the memory tier as read. Never computes.
        """
        hit = self.runner.lookup(key)
        if hit is None:
            return None
        return hit.source, hit.raw

    def digest_for(self, key: str, raw: bytes) -> str:
        """The canonical digest of ``key``'s entry ``raw``: the one its
        producer stored in the header."""
        return entry_digest(raw)

    def envelope_bytes(self, key: str, source: str, raw: bytes,
                       description: str | None = None) -> bytes:
        """The result-envelope JSON, spliced around the stored entry.

        The entry's body is embedded verbatim (it is already the compact
        payload JSON) behind the header's digest, so the warm path
        serves with no hash, decode or re-encode — the property that
        keeps a memory hit sub-millisecond.
        """
        self.counters["results.served"] += 1
        describe = (b"" if description is None
                    else b',"describe":' + json.dumps(description).encode())
        return b"".join((
            b'{"key":', json.dumps(key).encode(),
            b',"source":"', source.encode(),
            b'","digest":"', self.digest_for(key, raw).encode(), b'"',
            describe, b',"result":', entry_body(raw), b"}",
        ))

    # ------------------------------------------------------------------
    # Compute paths
    # ------------------------------------------------------------------
    async def run_job(self, job: SimJob) -> bytes:
        """``POST /v1/jobs``: resolve one job, computing on a miss.

        Returns the envelope bytes. Cache hits never leave the event
        loop; misses run the runner's tier walk
        (:meth:`~repro.runner.runner.SweepRunner.resolve_raw`) in the
        thread pool, where single-flight collapses concurrent identical
        requests into one computation. Only bytes move: no result
        object is built.
        """
        self.counters["jobs.submitted"] += 1
        key = job.cache_key()
        hit = self.lookup_raw(key)
        if hit is None:
            resolved = await self.loop.run_in_executor(
                self._executor, self.runner.resolve_raw, {key: job})
            hit = ("computed", resolved[key].raw)
        source, raw = hit
        return self.envelope_bytes(key, source, raw,
                                   description=job.describe())

    async def submit_sweep(self, jobs: Sequence[SimJob]) -> SweepState:
        """``POST /v1/sweeps``: launch a grid and return its state.

        The sweep runs the runner's tier walk in the thread pool — bytes
        only, so a warm sweep builds no result object; per-cell
        completion events are marshalled onto the event loop and
        appended to the sweep's history, waking every streaming
        subscriber.
        """
        self.counters["sweeps.submitted"] += 1
        self._sweep_seq += 1
        sweep_id = f"s{self._sweep_seq:06d}"
        cells: dict[str, SimJob] = {}
        for job in jobs:
            cells.setdefault(job.cache_key(), job)
        state = SweepState(sweep_id=sweep_id, keys=list(cells),
                           descriptions=[job.describe()
                                         for job in cells.values()],
                           total=len(cells))
        self._sweeps[sweep_id] = state
        loop = self.loop

        def _progress(key: str, hit: Resolved) -> None:
            # Called from the compute thread: hop onto the loop.
            loop.call_soon_threadsafe(self._publish_result, state, key,
                                      hit.source)

        async def _drive() -> None:
            try:
                await loop.run_in_executor(
                    self._executor,
                    lambda: self.runner.resolve_raw(cells, _progress))
            except Exception as exc:  # noqa: BLE001 - reported to clients
                await self._finish(state, "failed", error=str(exc))
            else:
                await self._finish(state, "done")

        loop.create_task(_drive())
        return state

    def sweep(self, sweep_id: str) -> SweepState | None:
        """The state of a previously submitted sweep, if any."""
        return self._sweeps.get(sweep_id)

    def pending(self, key: str) -> bool:
        """Whether a computation for ``key`` is currently in flight."""
        return self.runner.flights.pending(key)

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    def _publish_result(self, state: SweepState, key: str,
                        source: str) -> None:
        """Append one per-cell completion event (loop thread only)."""
        state.done += 1
        self._append_event(state, {
            "event": "result", "key": key, "source": source,
            "done": state.done, "total": state.total,
        })

    async def _finish(self, state: SweepState, status: str,
                      error: str | None = None) -> None:
        """Publish the terminal event and mark the sweep finished."""
        state.status = status
        state.error = error
        event: dict[str, Any] = {"event": "end", "status": status,
                                 "done": state.done, "total": state.total}
        if error is not None:
            event["error"] = error
        self._append_event(state, event)
        self._prune_finished_sweeps()

    def _prune_finished_sweeps(self) -> None:
        """Drop the oldest finished sweeps beyond the retention cap.

        Runs on the event loop (so no locking); live ``stream_events``
        subscribers hold the :class:`SweepState` object directly and
        are unaffected — pruning only ends *new* lookups by id.
        """
        finished = [sweep_id for sweep_id, state in self._sweeps.items()
                    if state.finished]
        excess = len(finished) - MAX_FINISHED_SWEEPS
        for sweep_id in finished[:max(0, excess)]:
            del self._sweeps[sweep_id]

    def _append_event(self, state: SweepState,
                      event: dict[str, Any]) -> None:
        sync = state.cond
        state.events.append(event)

        async def _wake() -> None:
            async with sync:
                sync.notify_all()

        self.loop.create_task(_wake())

    async def stream_events(self, state: SweepState):
        """Yield the sweep's events from the beginning until terminal.

        Any number of subscribers can stream the same sweep; each gets
        the full history (replayed) plus live events as they land.
        """
        index = 0
        while True:
            while index < len(state.events):
                event = state.events[index]
                index += 1
                yield event
                if event.get("event") == "end":
                    return
            async with state.cond:
                await state.cond.wait_for(
                    lambda: len(state.events) > index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """The ``GET /v1/cache/stats`` body: every tier's counters."""
        from repro.core.engine import ENGINE_VERSION

        runner = self.runner
        memory = runner.memory_cache
        body: dict[str, Any] = {
            "engine_version": ENGINE_VERSION,
            "memory": {
                **memory.stats.to_dict(),
                "entries": len(memory),
                "max_entries": memory.max_entries,
            },
            "singleflight": runner.flights.stats.to_dict(),
            "dispatch": self._dispatch_stats(runner),
            "service": dict(self.counters),
            "sweeps": {
                "submitted": self._sweep_seq,
                "running": sum(1 for s in self._sweeps.values()
                               if not s.finished),
            },
        }
        if runner.cache is not None:
            body["shared"] = {
                **runner.cache.stats.to_dict(),
                "backend": runner.cache.describe(),
                "entries": len(runner.cache),
            }
        else:
            body["shared"] = None
        return body

    @staticmethod
    def _dispatch_stats(runner: SweepRunner) -> dict[str, Any] | None:
        """The ``dispatch`` block of the stats body.

        Describes whichever :class:`~repro.dist.dispatch.Dispatcher`
        backs the runner — ``local-pool`` counters for the single-host
        path, worker/chunk/divergence counters for a fleet — so service
        benchmarks are comparable across backends.
        """
        dispatcher = getattr(runner, "dispatcher", None)
        if dispatcher is None:
            return None
        body: dict[str, Any] = {"backend": dispatcher.describe()}
        stats_dict = getattr(dispatcher, "stats_dict", None)
        if stats_dict is not None:
            body.update(stats_dict())
        else:
            stats = getattr(dispatcher, "stats", None)
            if stats is not None:
                body.update(stats.to_dict())
        return body
