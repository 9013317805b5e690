"""The dispatch seam: how a batch of cache-miss jobs gets computed.

:class:`~repro.runner.runner.SweepRunner` resolves every job through its
cache tiers and single-flight registry, then hands the residue — the
jobs that actually need computing — to a :class:`Dispatcher`. The
dispatcher decides *where* the compute happens:

* :class:`LocalPoolDispatcher` — the single-host default: one
  :class:`~concurrent.futures.ProcessPoolExecutor` kept for the
  dispatcher's lifetime, so its children keep the workloads they
  generated from one batch to the next, fed :func:`chunked` batches
  whose chunks are delivered as they complete; small batches, ``jobs=1``
  and a pool that cannot start or dies mid-batch run serially
  in-process.
* :class:`~repro.dist.coordinator.FleetDispatcher` — the distributed
  backend: chunks cut by the same :func:`chunked` rule, shipped to a
  fleet of remote workers over the TCP work-queue protocol
  (:mod:`repro.dist.protocol`); each worker resolves its chunk through
  a serial runner, i.e. this module's serial path.

The contract is deliberately the same one the runner's ``_compute``
always had: ``compute(pending, on_result)`` delivers ``(key, entry)``
pairs as they land, at most once per key, and each entry is the
result's self-verifying cache entry (:mod:`repro.runner.entry`), built
by :func:`~repro.runner.runner.compute_entry` wherever it was computed
— so any dispatcher is bit-identical with any other by construction,
and the runner's cache stores and progress streams work unchanged.
``stop()`` releases what a backend holds (pool children, coordinator,
local workers); a stopped dispatcher starts afresh on its next batch.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    as_completed,
)
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

#: ``(key, job)`` pairs the runner asks a dispatcher to compute.
PendingJobs = Sequence[tuple[str, Any]]
#: Delivery callback: ``on_result(key, entry)``.
ResultSink = Callable[[str, bytes], None]

#: Chunks per worker the jobs left in a batch are cut into, at least.
CHUNKS_PER_WORKER = 4

#: What a pool failure looks like: it could not start (no ``/dev/shm``,
#: fork limits in a constrained sandbox) or a child died mid-batch.
_POOL_FAILURES = (OSError, ImportError, BrokenExecutor)


def chunked(items: Sequence[Any], width: int,
            chunk_size: int) -> list[Sequence[Any]]:
    """Cut a batch into the chunks ``width`` workers pull, in order.

    Each chunk takes ``max(1, min(chunk_size, left // (4 * width)))``
    of the ``left`` items not yet chunked: at most ``chunk_size`` (one
    chunk amortizes task dispatch over several simulations), and at
    least :data:`CHUNKS_PER_WORKER` chunks per worker when the batch is
    large enough. Chunks shrink as the batch drains, down to single
    items at its end, so no worker idles long while another finishes
    its last chunk. The process pool and the fleet coordinator both cut
    their batches here.
    """
    per_chunk = CHUNKS_PER_WORKER * max(1, width)
    chunks = []
    start = 0
    while start < len(items):
        size = max(1, min(chunk_size, (len(items) - start) // per_chunk))
        chunks.append(items[start:start + size])
        start += size
    return chunks


@runtime_checkable
class Dispatcher(Protocol):
    """Backend protocol for computing a batch of cache-miss jobs.

    Implementations must call ``on_result`` at most once per distinct
    key, from the calling thread, with the *uncompressed* cache entry —
    the bytes :func:`repro.runner.runner.compute_entry` builds.
    """

    def compute(self, pending: PendingJobs,
                on_result: ResultSink) -> None:
        """Execute every pending job, delivering entries as they land."""
        ...

    def describe(self) -> str:
        """Human-readable backend description (for stats endpoints)."""
        ...

    def stop(self) -> None:
        """Release what the backend holds; the next batch starts afresh."""
        ...


@dataclass
class LocalPoolStats:
    """Counters for the in-process/pool dispatch path."""

    #: Batches that went through the process pool.
    pool_batches: int = 0
    #: Chunks submitted to the pool.
    chunks: int = 0
    #: Jobs computed (pool and serial combined).
    jobs: int = 0
    #: Batches that ran serially (small batch, ``jobs=1``, or fallback).
    serial_batches: int = 0
    #: Batches whose pool could not start or broke, recomputed serially.
    pool_failures: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter snapshot (for ``/v1/cache/stats``)."""
        return {"pool_batches": self.pool_batches, "chunks": self.chunks,
                "jobs": self.jobs, "serial_batches": self.serial_batches,
                "pool_failures": self.pool_failures}


class LocalPoolDispatcher:
    """The single-host dispatcher: one warm process pool, serial fallback.

    Batches larger than one chunk (with ``jobs > 1``) fan out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` of ``jobs``
    children in :func:`chunked` chunks; everything else runs serially
    in-process. The pool is started by the first batch that needs it
    (never by construction) and kept until :meth:`stop` or until the
    dispatcher is collected, so its children keep the workloads they
    generated across batches; concurrent :meth:`compute` calls share
    it. A pool that cannot start, or breaks because a child died, is
    discarded: the batch's undelivered keys are recomputed serially and
    the next batch starts a fresh pool.
    """

    def __init__(self, jobs: int | None = None,
                 chunk_size: int | None = None) -> None:
        from repro.runner.runner import DEFAULT_CHUNK_SIZE, default_jobs

        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            self.jobs = 1
        self.chunk_size = (chunk_size if chunk_size is not None
                           else DEFAULT_CHUNK_SIZE)
        if self.chunk_size < 1:
            self.chunk_size = 1
        self.stats = LocalPoolStats()
        #: Started by the first pooled batch; a collected executor shuts
        #: its children down itself, so the pool ends with the dispatcher.
        self._pool: ProcessPoolExecutor | None = None
        #: Guards starting, replacing and stopping the pool, each batch's
        #: submissions (a batch never lands on a stopped pool) and the
        #: counters, which concurrent batches share.
        self._lock = threading.Lock()

    def describe(self) -> str:
        """``local-pool:<workers>x<chunk_size>``."""
        return f"local-pool:{self.jobs}x{self.chunk_size}"

    def stop(self) -> None:
        """Shut the pool down, waiting for its children to exit.

        Chunks already submitted finish first. The dispatcher stays
        usable: its next pooled batch starts a new pool.
        """
        self._release()

    def _release(self, pool: ProcessPoolExecutor | None = None) -> None:
        """Shut the current pool down and forget it (only if it is
        ``pool``, when one is given)."""
        with self._lock:
            if self._pool is None or (pool is not None
                                      and pool is not self._pool):
                return
            pool, self._pool = self._pool, None
        pool.shutdown(wait=True)

    def __enter__(self) -> "LocalPoolDispatcher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def compute(self, pending: PendingJobs,
                on_result: ResultSink) -> None:
        """Execute the batch: chunked pool when it pays, else serial.

        ``on_result`` is called at most once per key: if the pool fails
        part-way through, the serial path computes only the keys not yet
        delivered. An exception raised by ``on_result`` itself
        propagates unchanged; it is never taken for a pool failure.
        """
        from repro.runner.runner import compute_entry

        delivered: set[str] = set()

        def _deliver(key: str, raw: bytes) -> None:
            if key not in delivered:
                delivered.add(key)
                with self._lock:
                    self.stats.jobs += 1
                on_result(key, raw)

        if (self.jobs > 1 and len(pending) > self.chunk_size
                and self._pooled(pending, _deliver)):
            return
        with self._lock:
            self.stats.serial_batches += 1
        for key, job in pending:
            if key in delivered:
                continue
            _deliver(key, compute_entry(job))

    def _pooled(self, pending: PendingJobs, deliver: ResultSink) -> bool:
        """Run the batch on the pool, delivering chunks as they complete.

        Returns ``False`` on a pool failure, after cancelling the batch's
        outstanding chunks and discarding the pool; the caller then
        computes the undelivered keys serially.
        """
        from repro.runner.runner import _worker_chunk

        chunks = chunked([job for _key, job in pending], self.jobs,
                         self.chunk_size)
        pool: ProcessPoolExecutor | None = None
        futures: list[Future] = []
        failed = False
        try:
            try:
                with self._lock:
                    if self._pool is None:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.jobs)
                    pool = self._pool
                    for chunk in chunks:
                        futures.append(pool.submit(_worker_chunk, chunk))
                    self.stats.pool_batches += 1
                    self.stats.chunks += len(chunks)
            except _POOL_FAILURES:
                failed = True
            else:
                for future in as_completed(futures):
                    try:
                        chunk_result = future.result()
                    except _POOL_FAILURES:
                        failed = True
                        break
                    for key, raw in chunk_result:
                        deliver(key, zlib.decompress(raw))
        finally:
            # Whatever ends the batch (a sink error too) leaves none of
            # its chunks queued on the shared pool.
            for future in futures:
                future.cancel()
        if failed:
            with self._lock:
                self.stats.pool_failures += 1
            if pool is not None:
                self._release(pool)
        return not failed
