"""Parallel sweep execution over (machine x scheme x workload) grids.

:class:`SweepRunner` is the single funnel every experiment submits
simulations through. It

* consults a two-tier result cache — a bounded in-process
  :class:`~repro.runner.cache.MemoryResultCache` LRU in front of the
  content-addressed on-disk :class:`~repro.runner.cache.ResultCache` —
  replaying prior runs of the same job instead of re-simulating;
* deduplicates *in-flight* work: concurrent :meth:`SweepRunner.run_many`
  callers (threads sharing one runner) that request the same cell share
  a single computation instead of racing to repeat it;
* hands the residue — jobs that actually need computing — to a
  pluggable :class:`~repro.dist.dispatch.Dispatcher`: by default the
  single-host :class:`~repro.dist.dispatch.LocalPoolDispatcher`
  (chunked :class:`concurrent.futures.ProcessPoolExecutor` fan-out with
  a serial fallback), or a
  :class:`~repro.dist.coordinator.FleetDispatcher` shipping the same
  chunks to remote workers;
* ships worker results back as zlib-compressed cache entries (one
  self-verifying buffer per job, :mod:`repro.runner.entry`, instead of a
  pickled object graph), and
* keeps every result as that entry through all the tiers
  (:meth:`SweepRunner.resolve_raw`), decoding a distinct cell's summary
  once, at the edge, only for a caller that wants the object — so a
  result is bit-identical (see
  :func:`~repro.analysis.serialization.canonical_result_bytes`) whether
  it was computed serially, in a worker process, replayed from the
  memory tier, or read back from disk.

Determinism: a job fully determines its simulation — workload generation
is seeded, and the engine itself is sequential per run — so the
execution mode can never change a result, only how fast it arrives.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Any, Callable, NamedTuple, Sequence

from repro.baselines.sequential import SequentialResult, simulate_sequential
from repro.core.engine import Simulation
from repro.core.results import SimulationResult
from repro.runner.cache import MemoryResultCache, ResultCache
from repro.runner.entry import (
    check_entry,
    decode_summary,
    encode_entry,
    is_entry,
)
from repro.runner.jobs import SimJob
from repro.runner.singleflight import SingleFlight

#: Per-job completion callback: ``progress(key, source)`` where source is
#: one of :data:`PROGRESS_SOURCES`. Called from the submitting thread.
ProgressCallback = Callable[[str, str], None]

#: Where a finished job's result came from, in the order ``run_many``
#: resolves tiers: the in-process LRU, the shared (disk) tier, a live
#: computation this call led, a concurrent caller's in-flight
#: computation, or an uncacheable traced run.
PROGRESS_SOURCES = ("memory", "disk", "computed", "inflight", "live")


class Resolved(NamedTuple):
    """One cell of a tier walk (:meth:`SweepRunner.resolve_raw`)."""

    #: The tier that answered: a :data:`PROGRESS_SOURCES` entry.
    source: str
    #: The cache entry (:mod:`repro.runner.entry`), as every tier
    #: stores it.
    raw: bytes
    #: For a disk hit, the result its summary decoded into when it was
    #: checked; ``None`` for every other source.
    result: SimulationResult | SequentialResult | None = None


#: Per-cell callback of the tier walk: ``on_cell(key, resolved)``, called
#: from the walking thread the moment each cell resolves.
CellCallback = Callable[[str, Resolved], None]


def execute_job(job: SimJob) -> SimulationResult | SequentialResult:
    """Run one job in the current process and return its live result.

    Observation attachments requested by the job — invariant checker,
    metrics hook, trace recorder — are composed here; all are pure
    observers, so the result is bit-identical with or without them.
    """
    workload = job.resolve_workload()
    if job.scheme is None:
        return simulate_sequential(job.machine, workload)
    hooks = []
    if job.check_invariants:
        # Imported lazily: repro.validate depends on repro.runner for the
        # conformance oracle's fan-out.
        from repro.validate.invariants import InvariantChecker

        hooks.append(InvariantChecker())
    if job.collect_metrics:
        from repro.obs.metrics import MetricsHook

        hooks.append(MetricsHook())
    hook = None
    if len(hooks) == 1:
        hook = hooks[0]
    elif hooks:
        from repro.core.hooks import CompositeHook

        hook = CompositeHook(hooks)
    trace = None
    if job.traced:
        from repro.core.trace import TraceRecorder

        trace = TraceRecorder()
    result = Simulation(
        job.machine, job.scheme, workload,
        high_level_patterns=job.high_level_patterns,
        violation_granularity=job.violation_granularity,
        hook=hook,
        trace=trace,
    ).run()
    if trace is not None:
        result.trace = trace
    return result


def payload_from_result(
    result: SimulationResult | SequentialResult,
) -> dict[str, Any]:
    """The full JSON payload stored in the cache / returned by workers."""
    from repro.analysis.serialization import (
        result_to_dict,
        sequential_result_to_dict,
    )

    if isinstance(result, SequentialResult):
        return sequential_result_to_dict(result)
    payload = result_to_dict(result, full=True)
    # Metrics ride the payload (never the canonical serialized form), so
    # pooled and cache-replayed metric jobs still carry their snapshot.
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        payload["metrics"] = metrics.to_dict()
    return payload


def result_from_payload(
    payload: dict[str, Any],
) -> SimulationResult | SequentialResult:
    """Rebuild the result a worker or cache entry serialized."""
    from repro.analysis.serialization import (
        result_from_dict,
        sequential_result_from_dict,
    )

    if payload.get("kind") == "sequential":
        return sequential_result_from_dict(payload)
    # result_from_dict ignores the "metrics" key, so the caller's dict is
    # read, never changed.
    metrics = payload.get("metrics")
    result = result_from_dict(payload)
    if metrics is not None:
        from repro.obs.metrics import MetricsSnapshot

        result.metrics = MetricsSnapshot.from_dict(metrics)
    return result


def decode_payload(raw: bytes) -> SimulationResult | SequentialResult:
    """Decode a cache entry into the result it serializes.

    Parses the summary only: the memory image and observed reads stay
    unparsed until first accessed. Raises on an entry whose summary does
    not decode into a result (a missing field, a bad header); the hash
    is checked where bytes enter the process (:func:`read_entry`).
    """
    return result_from_payload(decode_summary(raw))


def read_entry(
    raw: bytes,
) -> tuple[bytes, SimulationResult | SequentialResult]:
    """The shared tier's read rule: ``(entry to serve, its result)``.

    An entry must pass its hash check and its summary must decode;
    anything else raises, which
    :meth:`~repro.runner.cache.ShardedResultCache.load_checked` counts
    as a miss. Used by :meth:`SweepRunner.lookup`, which the fleet
    worker resolves its chunks through.
    """
    if not is_entry(raw):
        # A headerless entry was written before entries carried a header
        # (same ENGINE_VERSION, so same key): its one full decode is its
        # check, and it is served as its upgrade, which load_checked
        # writes back once. This branch goes at the next ENGINE_VERSION
        # bump, which changes every key.
        payload = json.loads(raw)
        result = result_from_payload(payload)
        return encode_entry(payload), result
    check_entry(raw)
    return raw, decode_payload(raw)


def canonical_payload_digest(raw: bytes) -> str:
    """SHA-256 of the canonical byte form of a serialized result payload.

    For simulation results this decodes the payload JSON and hashes
    :func:`~repro.analysis.serialization.canonical_result_bytes` — the
    exact bytes the determinism tests compare. It is how a client checks
    a service envelope's ``digest`` against the payload it received;
    producers store the same digest in each cache entry's header
    (:func:`~repro.runner.entry.canonical_digest`) without a decode.
    Sequential-baseline payloads (which carry no host-measured field)
    hash their sorted-key JSON form directly.
    """
    from repro.analysis.serialization import canonical_result_bytes

    payload = json.loads(raw)
    if payload.get("kind") == "sequential":
        blob = json.dumps(payload, sort_keys=True).encode()
    else:
        blob = canonical_result_bytes(result_from_payload(payload))
    return hashlib.sha256(blob).hexdigest()


def compute_entry(job: SimJob) -> bytes:
    """Run ``job`` and build its cache entry (:mod:`repro.runner.entry`).

    Every producer builds its entries here — the pool chunk, the serial
    path, and through it the fleet worker — so the entry (and the
    canonical digest its header stores) is made the same way wherever a
    result is computed.
    """
    return encode_entry(payload_from_result(execute_job(job)))


def _worker_chunk(jobs: Sequence[SimJob]) -> list[tuple[str, bytes]]:
    """Pool entry point: execute a chunk of jobs in one task.

    Returns ``(cache key, zlib-compressed cache entry)`` per job: one
    compact buffer crosses the process boundary instead of a pickled
    result-object graph, the entry (and its canonical digest) is built
    here, in the worker process, and the chunking amortizes task
    dispatch overhead across several simulations.
    """
    return [(job.cache_key(), zlib.compress(compute_entry(job), 1))
            for job in jobs]


def default_jobs() -> int:
    """Default worker count: every core the container grants us."""
    return os.cpu_count() or 1


#: Jobs per pool task. Large enough to amortize pickling/IPC per task,
#: small enough to keep the pool load-balanced on uneven cell runtimes.
DEFAULT_CHUNK_SIZE = 4


class SweepRunner:
    """Cache-backed, optionally parallel executor of simulation jobs."""

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None,
                 memory_cache: MemoryResultCache | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 inflight_timeout: float | None = None,
                 dispatcher: Any = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            self.jobs = 1
        if chunk_size < 1:
            chunk_size = 1
        self.cache = cache
        self.memory_cache = (memory_cache if memory_cache is not None
                             else MemoryResultCache())
        self.chunk_size = chunk_size
        #: Bound on how long a ``run_many`` call waits for a computation
        #: another caller leads (``None`` = forever). Service frontends
        #: set this so a wedged leader turns into a timeout response
        #: instead of a hung request.
        self.inflight_timeout = inflight_timeout
        #: Cross-caller stampede protection: one leader computes each
        #: key, concurrent requesters join its flight.
        self.flights = SingleFlight()
        if dispatcher is None:
            # Imported lazily: repro.dist.dispatch reaches back into
            # this module for the pool entry points.
            from repro.dist.dispatch import LocalPoolDispatcher

            dispatcher = LocalPoolDispatcher(jobs=self.jobs,
                                             chunk_size=self.chunk_size)
        #: Where cache-miss batches compute: the single-host pool by
        #: default, or any :class:`~repro.dist.dispatch.Dispatcher`
        #: (e.g. a :class:`~repro.dist.coordinator.FleetDispatcher`).
        self.dispatcher = dispatcher

    # ------------------------------------------------------------------
    def run(self, job: SimJob) -> SimulationResult | SequentialResult:
        """Execute (or replay) one job."""
        return self.run_many([job])[0]

    def run_many(
        self, jobs: Sequence[SimJob],
        progress: ProgressCallback | None = None,
    ) -> list[SimulationResult | SequentialResult]:
        """Execute a batch of jobs, returning results in input order.

        Duplicate jobs (same cache key) are resolved once, through
        :meth:`resolve_raw` — including across *concurrent* callers,
        which join in-flight computations instead of repeating them —
        and each distinct cell's entry summary is decoded exactly once,
        as the cell resolves (a disk hit reuses the decode that checked
        it; a computed cell decodes while the rest of the batch is still
        computing). Traced jobs run live in this process and bypass
        every tier.

        ``progress``, when given, is called once per *distinct* job as
        ``progress(key, source)`` with ``source`` one of
        :data:`PROGRESS_SOURCES`.
        """
        keys = [job.cache_key() for job in jobs]
        by_key: dict[str, SimulationResult | SequentialResult] = {}
        cells: dict[str, SimJob] = {}
        for key, job in zip(keys, jobs):
            if job.traced:
                # A trace recorder lives only in this process: traced jobs
                # run live and bypass every cache tier in both directions.
                if key not in by_key:
                    by_key[key] = execute_job(job)
                    if progress is not None:
                        progress(key, "live")
            else:
                cells.setdefault(key, job)

        def _decode(key: str, hit: Resolved) -> None:
            by_key[key] = (hit.result if hit.result is not None
                           else decode_payload(hit.raw))
            if progress is not None:
                progress(key, hit.source)

        self.resolve_raw(cells, _decode)
        return [by_key[key] for key in keys]

    def lookup(self, key: str) -> Resolved | None:
        """Memory tier, then the checked shared tier; never computes.

        A disk hit is checked by :func:`read_entry` — its hash, then one
        summary decode, which is also the result it returns; an entry
        that fails either is a miss, never promoted — and promoted into
        the memory tier exactly as read. Memory hits are not re-hashed:
        that tier only holds entries checked or computed in this process.
        """
        raw = self.memory_cache.load(key)
        if raw is not None:
            return Resolved("memory", raw)
        if self.cache is None:
            return None
        hit = self.cache.load_checked(key, read_entry)
        if hit is None:
            return None
        raw, result = hit
        self.memory_cache.store(key, raw)
        return Resolved("disk", raw, result)

    def resolve_raw(
        self, cells: dict[str, SimJob],
        on_cell: CellCallback | None = None,
    ) -> dict[str, Resolved]:
        """The tier walk: the cache entry for each ``key -> job`` cell.

        Per cell, in order: :meth:`lookup` (memory tier, then the checked
        shared tier), then the :class:`~repro.runner.singleflight.\
SingleFlight` registry — a key another caller is computing is joined,
        not recomputed — and only then the dispatcher. Every freshly
        computed payload is stored through both tiers the moment it
        lands, so concurrent readers see cells as they finish, and
        ``on_cell(key, resolved)`` is called once per cell as it
        resolves. Nothing is decoded here beyond the disk-hit check:
        callers that only move entries (the service) never build a
        result.
        Cells must be cacheable (not ``traced``).
        """
        resolved: dict[str, Resolved] = {}
        pending: list[tuple[str, SimJob]] = []
        owned: dict[str, Any] = {}
        waiting: dict[str, Any] = {}

        def _done(key: str, hit: Resolved) -> None:
            resolved[key] = hit
            if on_cell is not None:
                on_cell(key, hit)

        for key, job in cells.items():
            hit = self.lookup(key)
            if hit is not None:
                _done(key, hit)
                continue
            flight, leader = self.flights.claim(key)
            if leader:
                owned[key] = flight
                pending.append((key, job))
            else:
                waiting[key] = flight

        if pending:
            def _landed(key: str, raw: bytes) -> None:
                """One computed payload: store, publish, report.

                A shared-tier store that fails (full disk, read-only
                mount) leaves the result computed but not cached: it is
                counted in ``cache.stats.store_errors`` and still served.
                """
                self.memory_cache.store(key, raw)
                if self.cache is not None:
                    try:
                        self.cache.store_raw(key, raw)
                    except OSError:
                        self.cache.stats.store_errors += 1
                self.flights.resolve(key, owned[key], raw)
                _done(key, Resolved("computed", raw))

            try:
                self._compute(pending, _landed)
            finally:
                # Idempotent sweep: any flight _compute never reached
                # (it raised part-way) propagates the abort to joiners.
                for key, flight in owned.items():
                    self.flights.abandon(
                        key, flight,
                        RuntimeError(f"computation of {key} aborted"),
                    )

        for key, flight in waiting.items():
            _done(key, Resolved(
                "inflight", self.flights.wait(flight, self.inflight_timeout)))
        return resolved

    # ------------------------------------------------------------------
    def _compute(
        self, pending: list[tuple[str, SimJob]],
        on_result: Callable[[str, bytes], None],
    ) -> None:
        """Execute the cache misses through the configured dispatcher.

        The dispatcher contract (see :class:`~repro.dist.dispatch.\
Dispatcher`) mirrors what this method always promised: ``on_result``
        is called at most once per key, from this thread, with the
        result's cache entry — so every backend (serial, process pool,
        worker fleet) feeds the cache tiers identically.
        """
        self.dispatcher.compute(pending, on_result)
