"""Fleet coordinator: a TCP work-queue over the content-addressed cache.

:class:`FleetCoordinator` is the server half of the distributed sweep
subsystem. It runs an asyncio TCP server on a background thread (the
same shape as :class:`repro.service.http.ServiceThread`), accepts
:mod:`repro.dist.worker` registrations, and feeds them chunks of
simulation jobs pulled from a shared ready-queue. Robustness is the
point, not an afterthought:

* **Worker death and missed heartbeats requeue work.** Every frame a
  worker sends refreshes its liveness; a worker holding a chunk that
  goes silent past the heartbeat timeout — or whose connection drops —
  has its chunk requeued with capped exponential backoff. Chunks also
  carry a per-assignment timeout, so a wedged (but chatty) worker
  cannot pin a cell forever.
* **Each key is delivered once.** Every chunk carries the sweep call
  it serves, and a result is routed through the chunk its worker holds:
  a result for a key already delivered, or from a worker whose chunk
  was taken back (a timed-out worker's late envelopes), is discarded as
  a duplicate — after the checks below. Concurrent callers of one
  runner already share each computation through its single-flight
  registry, before any dispatcher sees the key; two runners sharing one
  coordinator each compute a shared key, and the cross-check compares
  the two digests.
* **Silently-divergent fleets are refused.** Every result envelope
  carries a self-verifying cache entry (:mod:`repro.runner.entry`) and
  the canonical-result digest its header stores; workers carry their
  fingerprint (python version, platform, ``ENGINE_VERSION``).
  Registration already refuses engine-version mismatches outright. On
  receipt, each entry must pass its hash check and carry the envelope's
  digest; and whenever two workers ever compute the *same* key, their
  digests are cross-checked. Either failure poisons the coordinator,
  fails every active sweep with :class:`FleetDivergenceError` naming
  the host(s), and refuses all further work — before the bad entry is
  delivered or stored. A heterogeneous fleet must prove bit-identity to
  stay.

:class:`FleetDispatcher` is the runner-facing adapter: it implements
the :class:`~repro.dist.dispatch.Dispatcher` protocol over a
coordinator it owns, so ``SweepRunner(dispatcher=FleetDispatcher(...))``
swaps multiprocess fan-out for fleet fan-out with no other change —
results stay bit-identical by construction because each worker resolves
its chunks through a serial :class:`~repro.runner.runner.SweepRunner`,
whose entries :func:`~repro.runner.runner.compute_entry` builds.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from repro.dist.dispatch import chunked
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    pack_jobs,
    read_frame,
    unpack_results,
    worker_fingerprint,
    write_frame,
)
from repro.errors import ReproError
from repro.runner.entry import EntryError, check_entry, entry_digest

#: Default seconds between required worker heartbeats (sent to workers
#: in the ``registered`` frame).
DEFAULT_HEARTBEAT_INTERVAL = 1.0
#: Default seconds of silence after which a worker holding a chunk is
#: presumed dead and evicted.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0
#: Default per-assignment bound on one chunk's execution.
DEFAULT_CHUNK_TIMEOUT = 600.0
#: Default cap on how many times one chunk may be (re)attempted before
#: the sweep is failed.
DEFAULT_MAX_ATTEMPTS = 4
#: Exponential requeue backoff: ``base * 2**(attempt-1)`` seconds,
#: capped at ``DEFAULT_BACKOFF_CAP``.
DEFAULT_BACKOFF_BASE = 0.25
DEFAULT_BACKOFF_CAP = 5.0
#: Bound on the fleet-wide key -> digest registry (entries are ~100
#: bytes; the bound only matters for very long-lived coordinators).
MAX_DIGEST_REGISTRY = 65536


class FleetError(ReproError):
    """A fleet-level dispatch failure (no workers, exhausted retries)."""


class FleetDivergenceError(FleetError):
    """A worker's result failed its receipt check, or two workers
    produced different bytes for the same job.

    Raised to every active sweep and latched: a coordinator that has
    observed divergence refuses all further work, because any result
    from such a fleet could be the wrong one.
    """


@dataclass
class FleetStats:
    """Counters describing the fleet's lifetime activity."""

    #: Workers accepted through registration.
    workers_registered: int = 0
    #: Registrations refused (engine/protocol version mismatch).
    workers_refused: int = 0
    #: Workers evicted (connection lost or heartbeat missed) while
    #: holding work.
    workers_lost: int = 0
    #: Chunk assignments sent to workers (requeues assign again).
    chunks_dispatched: int = 0
    #: Chunks requeued after a failure/timeout/death.
    chunks_requeued: int = 0
    #: Chunks abandoned after exhausting their attempts.
    chunks_failed: int = 0
    #: Result envelopes accepted and delivered to their calls.
    results_received: int = 0
    #: Checked results no chunk waited on: a key already delivered, or
    #: a late result from a worker whose chunk was taken back (requeue
    #: races).
    duplicate_results: int = 0
    #: Results a worker served from its cache tiers instead of
    #: computing (the warm-key short circuit).
    cache_short_circuits: int = 0
    #: Receipt-check and digest cross-check failures (each one poisons
    #: the coordinator).
    digest_mismatches: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter snapshot (for ``/v1/cache/stats``)."""
        return asdict(self)


class _Chunk:
    """One dispatchable unit of work: a few (key, job) pairs of a call."""

    __slots__ = ("chunk_id", "items", "call", "pending", "attempts",
                 "assigned_to", "assigned_at")

    def __init__(self, chunk_id: int, items: list[tuple[str, Any]],
                 call: "_ComputeCall") -> None:
        self.chunk_id = chunk_id
        self.items = items
        #: The ``execute`` call this chunk's results are delivered to.
        self.call = call
        #: Keys of this chunk not yet delivered.
        self.pending = {key for key, _job in items}
        self.attempts = 0
        self.assigned_to: "_Worker | None" = None
        self.assigned_at: float | None = None

    @property
    def live(self) -> bool:
        """Whether the chunk still has keys for a call that has not
        failed (a dead chunk is skipped on dequeue)."""
        return bool(self.pending) and not self.call.failed


class _Worker:
    """Coordinator-side state for one registered worker connection."""

    __slots__ = ("worker_id", "writer", "fingerprint", "last_seen",
                 "inflight")

    def __init__(self, worker_id: str, writer: asyncio.StreamWriter,
                 fingerprint: dict[str, Any], now: float) -> None:
        self.worker_id = worker_id
        self.writer = writer
        self.fingerprint = fingerprint
        self.last_seen = now
        self.inflight: _Chunk | None = None

    @property
    def name(self) -> str:
        """``w3@host (py 3.12.1)`` — the label divergence reports use."""
        return (f"{self.worker_id}@{self.fingerprint.get('host', '?')} "
                f"(py {self.fingerprint.get('python', '?')})")


class _ComputeCall:
    """One blocking ``execute`` call waiting on a set of keys.

    The loop thread feeds ``(kind, key, payload)`` tuples into the
    thread-safe queue; the calling thread drains it. ``fail`` is
    idempotent so a poisoned fleet and a chunk failure cannot race into
    delivering two exceptions.
    """

    __slots__ = ("outstanding", "queue", "failed")

    def __init__(self, outstanding: int) -> None:
        #: Keys not yet delivered (loop thread); the coordinator drops
        #: the call when this reaches zero.
        self.outstanding = outstanding
        self.queue: "queue.Queue[tuple[str, str | None, Any]]" = (
            queue.Queue())
        self.failed = False

    def offer(self, key: str, raw: bytes) -> None:
        """Deliver one key's checked entry (loop thread)."""
        self.queue.put(("result", key, raw))

    def fail(self, error: BaseException) -> None:
        """Deliver a terminal failure once (loop thread)."""
        if not self.failed:
            self.failed = True
            self.queue.put(("fail", None, error))


class FleetCoordinator:
    """The work-queue server a worker fleet connects to."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 chunk_size: int | None = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 result_timeout: float = 600.0) -> None:
        from repro.runner.runner import DEFAULT_CHUNK_SIZE

        self.host = host
        self.port = port
        self.chunk_size = max(1, chunk_size if chunk_size is not None
                              else DEFAULT_CHUNK_SIZE)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.chunk_timeout = chunk_timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.result_timeout = result_timeout
        self.stats = FleetStats()

        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self._ready = threading.Event()
        self._start_error: BaseException | None = None
        self._queue: asyncio.Queue[_Chunk] | None = None
        self._workers: dict[str, _Worker] = {}
        self._worker_seq = 0
        self._chunk_seq = 0
        #: Every call with undelivered keys (for poison/stop fan-out).
        self._calls: set[_ComputeCall] = set()
        #: key -> (digest, worker name): the cross-check registry.
        self._digests: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self._poisoned: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetCoordinator":
        """Bind the server on a background loop thread; returns self."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-tls-fleet", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise FleetError("fleet coordinator failed to start")
        if self._start_error is not None:
            raise FleetError(
                f"fleet coordinator failed to bind "
                f"{self.host}:{self.port}: {self._start_error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - bind failures
            self._start_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        try:
            self._server = await asyncio.start_server(
                self._client, self.host, self.port)
        except OSError as exc:
            self._start_error = exc
            self._ready.set()
            return
        self.port = self._server.sockets[0].getsockname()[1]
        monitor = self._loop.create_task(self._monitor())
        self._ready.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            monitor.cancel()

    def stop(self) -> None:
        """Shut the coordinator down, failing any active sweeps."""
        loop = self._loop
        if loop is not None and self._server is not None:
            server = self._server

            def _shutdown() -> None:
                self._fail_everything(
                    FleetError("fleet coordinator stopped"))
                server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            try:
                loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    @property
    def address(self) -> str:
        """``host:port`` of the bound server."""
        return f"{self.host}:{self.port}"

    @property
    def worker_count(self) -> int:
        """Registered workers currently connected."""
        return len(self._workers)

    @property
    def poisoned(self) -> str | None:
        """The divergence reason, if this fleet has been refused."""
        return self._poisoned

    def wait_for_workers(self, n: int, timeout: float) -> None:
        """Block until ``n`` workers are registered (or raise)."""
        deadline = time.monotonic() + timeout
        while self.worker_count < n:
            if time.monotonic() > deadline:
                raise FleetError(
                    f"only {self.worker_count}/{n} fleet workers "
                    f"registered within {timeout:.0f}s on {self.address}")
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # Blocking execution (called from the dispatcher thread)
    # ------------------------------------------------------------------
    def execute(self, pending: Sequence[tuple[str, Any]],
                deliver: Callable[[str, bytes], None]) -> None:
        """Compute every pending job on the fleet, delivering
        ``(key, cache entry)`` pairs as they land, each one checked on
        receipt.

        Blocks until all keys are delivered; raises :class:`FleetError`
        on exhausted retries / timeout and
        :class:`FleetDivergenceError` if the fleet is (or becomes)
        digest-poisoned.
        """
        if self._loop is None:
            raise FleetError("fleet coordinator is not started")
        items = dict(pending)
        if not items:
            return
        call = _ComputeCall(len(items))
        self._loop.call_soon_threadsafe(
            self._submit, list(items.items()), call)
        remaining = set(items)
        while remaining:
            try:
                kind, key, payload = call.queue.get(
                    timeout=self.result_timeout)
            except queue.Empty:
                raise FleetError(
                    f"no fleet result within {self.result_timeout:.0f}s "
                    f"({len(remaining)} keys outstanding)")
            if kind == "fail":
                raise payload
            if key in remaining:
                remaining.discard(key)
                deliver(key, payload)

    # ------------------------------------------------------------------
    # Loop-thread scheduling
    # ------------------------------------------------------------------
    def _submit(self, items: list[tuple[str, Any]],
                call: _ComputeCall) -> None:
        """Enqueue a call's distinct jobs as chunks that carry it, cut by
        the pool's rule (:func:`~repro.dist.dispatch.chunked`) for the
        workers connected now."""
        if self._poisoned is not None:
            call.fail(FleetDivergenceError(self._poisoned))
            return
        self._calls.add(call)
        assert self._queue is not None
        for chunk in chunked(items, len(self._workers), self.chunk_size):
            self._chunk_seq += 1
            self._queue.put_nowait(_Chunk(self._chunk_seq, chunk, call))

    def _backoff_delay(self, attempts: int) -> float:
        """Requeue delay after the ``attempts``-th failed attempt."""
        return min(self.backoff_base * (2 ** max(attempts - 1, 0)),
                   self.backoff_cap)

    def _requeue(self, chunk: _Chunk | None, *, penalty: bool,
                 why: str) -> None:
        """Put a chunk back on the queue (or fail it past the cap)."""
        if chunk is None or not chunk.live:
            return
        if chunk.assigned_to is not None:
            if chunk.assigned_to.inflight is chunk:
                chunk.assigned_to.inflight = None
            chunk.assigned_to = None
        chunk.assigned_at = None
        if not penalty:
            assert self._queue is not None
            self._queue.put_nowait(chunk)
            return
        chunk.attempts += 1
        self.stats.chunks_requeued += 1
        if chunk.attempts >= self.max_attempts:
            self.stats.chunks_failed += 1
            chunk.call.fail(FleetError(
                f"chunk {chunk.chunk_id} abandoned after "
                f"{chunk.attempts} attempts: {why}"))
            self._calls.discard(chunk.call)
            return
        assert self._loop is not None and self._queue is not None
        self._loop.call_later(self._backoff_delay(chunk.attempts),
                              self._queue.put_nowait, chunk)

    def _fail_everything(self, error: BaseException) -> None:
        """Fail all active sweeps (stop or poison); their chunks die."""
        for call in self._calls:
            call.fail(error)
        self._calls.clear()

    def _poison(self, reason: str) -> None:
        """Latch a divergence: refuse this fleet now and forever."""
        self._poisoned = reason
        self._fail_everything(FleetDivergenceError(reason))

    def _record_result(self, worker: _Worker, chunk: _Chunk | None,
                       key: str, digest: str, source: str,
                       zraw: bytes) -> None:
        """Check, cross-check and deliver one result envelope.

        The entry must pass its hash check and its header must carry the
        envelope's digest, or the fleet is poisoned before anything is
        delivered. A poisoned fleet accepts nothing more, so its latched
        reason stays the first failure. A checked entry is delivered to
        the call of ``chunk`` (the one its worker held) if that chunk
        still waits on the key; otherwise it is a duplicate.
        """
        if self._poisoned is not None:
            return
        try:
            raw = zlib.decompress(zraw)
            check_entry(raw)
            intact = entry_digest(raw) == digest
        except (zlib.error, EntryError):
            intact = False
        if not intact:
            self.stats.digest_mismatches += 1
            self._poison(
                f"receipt check failed on key {key[:16]}…: worker "
                f"{worker.name} sent digest {digest[:12]}… with an entry "
                f"that fails its hash check or carries another digest — "
                f"refusing results from this fleet")
            return
        prior = self._digests.get(key)
        if prior is not None and prior[0] != digest:
            self.stats.digest_mismatches += 1
            self._poison(
                f"digest divergence on key {key[:16]}…: worker "
                f"{worker.name} produced {digest[:12]}…, but worker "
                f"{prior[1]} previously produced {prior[0][:12]}… — "
                f"refusing results from this fleet")
            return
        if prior is None:
            self._digests[key] = (digest, worker.name)
            if len(self._digests) > MAX_DIGEST_REGISTRY:
                self._digests.popitem(last=False)
        if source == "cache":
            self.stats.cache_short_circuits += 1
        if chunk is None or key not in chunk.pending:
            self.stats.duplicate_results += 1
            return
        chunk.pending.discard(key)
        self.stats.results_received += 1
        call = chunk.call
        call.outstanding -= 1
        if call.outstanding == 0:
            self._calls.discard(call)
        call.offer(key, raw)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        worker: _Worker | None = None
        try:
            worker = await self._register(reader, writer)
            if worker is None:
                return
            await self._serve_worker(worker, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError,
                ProtocolError, asyncio.TimeoutError, OSError):
            if worker is not None and worker.worker_id in self._workers:
                if worker.inflight is not None:
                    self.stats.workers_lost += 1
                self._requeue(worker.inflight, penalty=True,
                              why=f"worker {worker.name} connection lost")
        except asyncio.CancelledError:
            # Coordinator shutdown cancels every connection task; the
            # asyncio streams machinery would log a re-raise as an
            # unhandled exception, and there is nothing left to unwind.
            return
        finally:
            if worker is not None:
                self._workers.pop(worker.worker_id, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _register(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter) -> _Worker | None:
        """Handle the registration handshake; ``None`` if refused."""
        header, _blob = await asyncio.wait_for(
            read_frame(reader), self.heartbeat_timeout)
        if header.get("type") != "register":
            raise ProtocolError(
                f"expected a register frame, got {header.get('type')!r}")
        fingerprint = header.get("fingerprint")
        if not isinstance(fingerprint, dict):
            fingerprint = {}
        mine = worker_fingerprint()
        refusal: str | None = None
        if fingerprint.get("protocol_version") != PROTOCOL_VERSION:
            refusal = (f"protocol version "
                       f"{fingerprint.get('protocol_version')!r} != "
                       f"{PROTOCOL_VERSION}")
        elif fingerprint.get("engine_version") != mine["engine_version"]:
            refusal = (f"engine version "
                       f"{fingerprint.get('engine_version')!r} != "
                       f"{mine['engine_version']!r}: a stale worker "
                       f"would compute non-current results")
        if refusal is not None:
            self.stats.workers_refused += 1
            await write_frame(writer, {"type": "refused",
                                       "reason": refusal})
            return None
        assert self._loop is not None
        self._worker_seq += 1
        worker = _Worker(f"w{self._worker_seq}", writer, fingerprint,
                         self._loop.time())
        self._workers[worker.worker_id] = worker
        self.stats.workers_registered += 1
        await write_frame(writer, {
            "type": "registered",
            "worker_id": worker.worker_id,
            "heartbeat_interval": self.heartbeat_interval,
        })
        return worker

    async def _serve_worker(self, worker: _Worker,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """The per-connection frame loop after registration."""
        assert self._loop is not None
        read_task: asyncio.Task | None = None
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(read_frame(reader))
                header, blob = await read_task
                read_task = None
                worker.last_seen = self._loop.time()
                kind = header["type"]
                if kind == "heartbeat":
                    continue
                if kind == "pull":
                    chunk, read_task = await self._await_chunk(
                        worker, reader)
                    if chunk is None:
                        # Graceful drain while waiting for work.
                        return
                    await self._assign_chunk(worker, writer, chunk)
                elif kind == "result":
                    self._accept_results(worker, header, blob)
                elif kind == "error":
                    chunk = worker.inflight
                    worker.inflight = None
                    self._requeue(chunk, penalty=True,
                                  why=str(header.get("message",
                                                     "worker error")))
                elif kind == "bye":
                    # Graceful drain: requeue without an attempt
                    # penalty — the work was not at fault.
                    self._requeue(worker.inflight, penalty=False,
                                  why="worker drained")
                    return
                else:
                    raise ProtocolError(
                        f"unexpected frame type {kind!r}")
        finally:
            if read_task is not None:
                read_task.cancel()

    async def _await_chunk(
            self, worker: _Worker, reader: asyncio.StreamReader,
    ) -> tuple[_Chunk | None, asyncio.Task | None]:
        """The next live chunk, while staying responsive to the wire.

        An idle worker waiting for work still sends heartbeats, may
        drain (``bye``), or may vanish entirely; a plain queue wait
        would leave those frames unread until a chunk arrived. Race the
        ready queue against the connection instead. Returns ``(chunk,
        read_task)`` where ``read_task`` is an in-flight, not yet
        consumed read the caller must continue, or ``(None, None)``
        after a graceful ``bye``.
        """
        assert self._loop is not None and self._queue is not None
        get_task: asyncio.Task = asyncio.ensure_future(self._next_chunk())
        read_task: asyncio.Task | None = None
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(read_frame(reader))
                await asyncio.wait({get_task, read_task},
                                   return_when=asyncio.FIRST_COMPLETED)
                if read_task.done():
                    finished, read_task = read_task, None
                    header, _blob = finished.result()  # raises on EOF
                    worker.last_seen = self._loop.time()
                    kind = header["type"]
                    if kind == "bye":
                        self._release_wait_tasks(get_task, None)
                        return None, None
                    if kind != "heartbeat":
                        raise ProtocolError(
                            f"unexpected frame type {kind!r} while "
                            f"awaiting work")
                if get_task.done():
                    chunk = get_task.result()
                    return chunk, read_task
        except BaseException:
            self._release_wait_tasks(get_task, read_task)
            raise

    def _release_wait_tasks(self, get_task: asyncio.Task,
                            read_task: asyncio.Task | None) -> None:
        """Unwind an abandoned chunk wait without losing a chunk."""
        assert self._queue is not None
        if (get_task.done() and not get_task.cancelled()
                and get_task.exception() is None):
            # A chunk landed just as the wait unwound: put it back.
            self._queue.put_nowait(get_task.result())
        else:
            get_task.cancel()
        if read_task is not None:
            read_task.cancel()

    async def _assign_chunk(self, worker: _Worker,
                            writer: asyncio.StreamWriter,
                            chunk: _Chunk) -> None:
        """Hand ``chunk`` to ``worker`` over ``writer``."""
        assert self._loop is not None
        worker.inflight = chunk
        chunk.assigned_to = worker
        chunk.assigned_at = self._loop.time()
        worker.last_seen = chunk.assigned_at
        self.stats.chunks_dispatched += 1
        try:
            await write_frame(
                writer,
                {"type": "chunk", "chunk_id": chunk.chunk_id,
                 "jobs": len(chunk.items)},
                pack_jobs([job for _key, job in chunk.items]))
        except (ConnectionError, OSError):
            self._requeue(chunk, penalty=False,
                          why="assignment send failed")
            raise

    def _accept_results(self, worker: _Worker, header: dict[str, Any],
                        blob: bytes) -> None:
        """Process one ``result`` frame from ``worker``.

        The frame answers the chunk the worker holds, which it now
        releases; a worker whose chunk was taken back (timed out and
        requeued) holds none, so its envelopes are duplicates.
        """
        entries = header.get("results")
        if not isinstance(entries, list):
            raise ProtocolError("result frame carries no "
                                "'results' list")
        results = unpack_results(entries, blob)
        chunk = worker.inflight
        if chunk is not None:
            worker.inflight = None
            chunk.assigned_to = None
            chunk.assigned_at = None
        for key, digest, source, zraw in results:
            self._record_result(worker, chunk, key, digest, source, zraw)

    async def _next_chunk(self) -> _Chunk:
        """The next live chunk off the ready queue."""
        assert self._queue is not None
        while True:
            chunk = await self._queue.get()
            if chunk.live:
                return chunk

    async def _monitor(self) -> None:
        """Evict silent workers and requeue overdue chunks."""
        interval = max(0.05, min(self.heartbeat_timeout,
                                 self.chunk_timeout) / 4)
        assert self._loop is not None
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for worker in list(self._workers.values()):
                if worker.inflight is None:
                    continue
                if now - worker.last_seen > self.heartbeat_timeout:
                    self.stats.workers_lost += 1
                    chunk = worker.inflight
                    self._workers.pop(worker.worker_id, None)
                    try:
                        worker.writer.close()
                    except (ConnectionError, OSError):
                        pass
                    self._requeue(chunk, penalty=True,
                                  why=f"worker {worker.name} missed its "
                                      f"heartbeat")
                elif (chunk := worker.inflight) is not None and \
                        chunk.assigned_at is not None and \
                        now - chunk.assigned_at > self.chunk_timeout:
                    worker.inflight = None
                    self._requeue(chunk, penalty=True,
                                  why=f"chunk {chunk.chunk_id} exceeded "
                                      f"its {self.chunk_timeout:.0f}s "
                                      f"timeout on {worker.name}")

    # ------------------------------------------------------------------
    def stats_dict(self) -> dict[str, Any]:
        """Counters + live gauges (for ``/v1/cache/stats``)."""
        return {
            **self.stats.to_dict(),
            "workers_connected": self.worker_count,
            "poisoned": self._poisoned,
        }


class FleetDispatcher:
    """:class:`~repro.dist.dispatch.Dispatcher` over a worker fleet.

    Owns a :class:`FleetCoordinator` (started lazily on first use) and,
    optionally, a set of locally spawned worker subprocesses — the
    one-command path ``repro-tls sweep --dispatch fleet --workers N``
    and the bench harness use. Local workers take ``worker_cache_dir``
    as their disk tier; with none they keep no cache, and the runner's
    tiers store each entry once. ``compute`` blocks until the fleet has
    delivered every entry, each checked on receipt (its hash, and the
    envelope's digest against its header's) before the runner's cache
    tiers store it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 min_workers: int = 1, start_timeout: float = 60.0,
                 local_workers: int = 0,
                 worker_cache_dir: str | None = None,
                 **coordinator_options: Any) -> None:
        self.coordinator = FleetCoordinator(host, port,
                                            **coordinator_options)
        self.min_workers = max(1, min_workers)
        self.start_timeout = start_timeout
        self.local_workers = local_workers
        self.worker_cache_dir = worker_cache_dir
        self._procs: list[Any] = []
        self._started = False
        #: Whether a batch has already seen ``min_workers`` registered.
        self._quorum_met = False

    # ------------------------------------------------------------------
    def start(self) -> "FleetDispatcher":
        """Bind the coordinator and spawn any requested local workers."""
        if not self._started:
            self.coordinator.start()
            self._started = True
            if self.local_workers:
                from repro.dist.worker import spawn_local_workers

                self._procs = spawn_local_workers(
                    self.coordinator.address, self.local_workers,
                    cache_dir=self.worker_cache_dir)
        return self

    def stop(self) -> None:
        """Stop the coordinator and terminate spawned local workers."""
        for proc in self._procs:
            try:
                proc.terminate()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except Exception:  # noqa: BLE001 - best-effort teardown
                proc.kill()
        self._procs = []
        if self._started:
            self.coordinator.stop()
            self._started = False
            self._quorum_met = False

    def __enter__(self) -> "FleetDispatcher":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    @property
    def address(self) -> str:
        """The coordinator's ``host:port``."""
        return self.coordinator.address

    @property
    def stats(self) -> FleetStats:
        """The coordinator's counters."""
        return self.coordinator.stats

    # ------------------------------------------------------------------
    # Dispatcher protocol
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """``fleet:<host>:<port>`` plus the live worker count."""
        return (f"fleet:{self.coordinator.address}"
                f"[{self.coordinator.worker_count} workers]")

    def compute(self, pending: Sequence[tuple[str, Any]],
                on_result: Callable[[str, bytes], None]) -> None:
        """Ship the batch to the fleet; deliver payloads as they land.

        Only the first batch waits for ``min_workers`` to register; later
        batches need one connected worker, so the survivors of a lost
        worker carry on instead of each batch waiting out
        ``start_timeout`` for a replacement.
        """
        self.start()
        needed = 1 if self._quorum_met else self.min_workers
        self.coordinator.wait_for_workers(needed, self.start_timeout)
        self._quorum_met = True
        self.coordinator.execute(pending, on_result)

    def stats_dict(self) -> dict[str, Any]:
        """Counters + gauges (surfaced in ``/v1/cache/stats``)."""
        return self.coordinator.stats_dict()
