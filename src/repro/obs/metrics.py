"""Low-overhead metrics for simulation runs: counters and histograms.

A :class:`MetricsHook` attached to a :class:`~repro.core.engine.Simulation`
(via the ``hook`` parameter, see :mod:`repro.core.hooks`) accumulates a
:class:`MetricsRegistry` of named counters and histograms over the run:
squash/restart events, overflow-area spills and refetches, VCL merges,
version-directory lookups, network messages, commit-wait and token-hold
cycles. When no hook is attached the engine pays one ``is not None``
branch per batch of same-time events, so the metrics layer costs next to
nothing when disabled. Instrumented runs take the same drain loop as
plain ones and stay bit-identical to them (asserted by
``tests/test_obs.py``).

The hook works by *differencing*: the engine already maintains its
statistics (``sim.traffic``, the violation counters, the directory's
:class:`~repro.tls.versions.DirectoryStats`) unconditionally, so the hook
snapshots them in :meth:`MetricsHook.on_start` and converts per-event
deltas into counter increments and histogram samples. It never mutates
engine state.

On completion the hook freezes the registry into a
:class:`MetricsSnapshot` — counters, histograms, and a per-task table —
and attaches it to ``result.metrics`` (a field excluded from the
canonical serialized form, so cache keys and golden digests are
untouched). :func:`aggregate_by_scheme` folds many snapshots into
per-scheme aggregates for the reproduction report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.hooks import SimulationHook

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.engine import Simulation
    from repro.core.results import SimulationResult

#: Default geometric histogram bucket boundaries (cycles). A sample lands
#: in the first bucket whose upper bound is >= the value; the last bucket
#: is open-ended.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Histogram:
    """A fixed-bucket histogram of non-negative samples.

    Tracks per-bucket counts plus the running count/sum/min/max, which is
    all the reproduction report needs; exact quantiles are out of scope.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (exact round-trip via :meth:`from_dict`)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram serialized with :meth:`to_dict`."""
        hist = cls(tuple(data["bounds"]))
        hist.counts = list(data["counts"])
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min = float("inf") if data["min"] is None else float(data["min"])
        hist.max = float(data["max"])
        return hist

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)


class MetricsRegistry:
    """Named counters and histograms for one (or many merged) runs."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record ``value`` into histogram ``name`` (creating it)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(bounds)
            self.histograms[name] = hist
        hist.observe(value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0.0)


@dataclass(frozen=True)
class TaskMetrics:
    """Per-task aggregation row of one instrumented run."""

    task_id: int
    proc_id: int
    squashes: int
    execution_cycles: float
    commit_cycles: float


@dataclass
class MetricsSnapshot:
    """Frozen metrics of one run (or a per-scheme aggregate of many).

    ``runs`` counts how many simulations were folded in — 1 for a single
    instrumented run, more after :func:`aggregate_by_scheme`.
    """

    scheme: str
    workload: str
    counters: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    per_task: list[TaskMetrics] = field(default_factory=list)
    runs: int = 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (exact round-trip via :meth:`from_dict`)."""
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "runs": self.runs,
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "per_task": [
                [t.task_id, t.proc_id, t.squashes,
                 t.execution_cycles, t.commit_cycles]
                for t in self.per_task
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsSnapshot":
        """Rebuild a snapshot serialized with :meth:`to_dict`."""
        return cls(
            scheme=data["scheme"],
            workload=data["workload"],
            runs=int(data.get("runs", 1)),
            counters={k: float(v) for k, v in data["counters"].items()},
            histograms={
                name: Histogram.from_dict(h)
                for name, h in data["histograms"].items()
            },
            per_task=[
                TaskMetrics(int(row[0]), int(row[1]), int(row[2]),
                            float(row[3]), float(row[4]))
                for row in data["per_task"]
            ],
        )


class MetricsHook(SimulationHook):
    """Engine hook that accumulates a :class:`MetricsRegistry` per run.

    Pure observer: reads engine statistics after each event and writes
    only into its own registry, so an instrumented run is bit-identical
    to a plain one. On finish it attaches a :class:`MetricsSnapshot` to
    ``result.metrics``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.snapshot: MetricsSnapshot | None = None
        self._last: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Engine-counter sources: (metric name, getter) pairs differenced on
    # every event. All of them are statistics the engine maintains anyway.
    # ------------------------------------------------------------------
    @staticmethod
    def _sources(sim: "Simulation") -> dict[str, float]:
        traffic = sim.traffic
        directory = sim.directory.stats
        return {
            "squash.events": float(sim._violation_events),
            "squash.task_executions": float(sim._squashed_executions),
            "overflow.spills": float(traffic.overflow_spills),
            "overflow.fetches": float(traffic.overflow_fetches),
            "vcl.merges": float(traffic.vcl_merges),
            "memory.line_writebacks": float(traffic.line_writebacks),
            "network.remote_cache_fetches": float(
                traffic.remote_cache_fetches),
            "network.memory_fetches": float(traffic.memory_fetches),
            "directory.reads": float(directory.reads),
            "directory.writes": float(directory.writes),
            "directory.forwarded_reads": float(directory.forwarded_reads),
            "commit.completed": float(sim.commit.next_to_commit),
        }

    def on_start(self, sim: "Simulation") -> None:
        """Snapshot the engine statistics this hook diffs against."""
        self._last = self._sources(sim)

    def after_event(self, sim: "Simulation", now: float) -> None:
        """Convert per-event statistic deltas into counter increments."""
        current = self._sources(sim)
        last = self._last
        registry = self.registry
        squash_delta = (current["squash.task_executions"]
                        - last["squash.task_executions"])
        for name, value in current.items():
            delta = value - last[name]
            if delta:
                registry.inc(name, delta)
        if current["squash.events"] > last["squash.events"]:
            # Squash depth: how many task executions one violation undid.
            registry.observe("squash.depth", squash_delta,
                             bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        self._last = current

    def on_finish(self, sim: "Simulation", result: "SimulationResult") -> None:
        """Fold final statistics and attach the snapshot to the result."""
        from repro.processor.processor import CycleCategory

        registry = self.registry
        registry.inc("cycles.total", result.total_cycles)
        registry.inc("cycles.commit_wait",
                     result.cycles_by_category[CycleCategory.COMMIT_STALL])
        registry.inc("cycles.recovery",
                     result.cycles_by_category[CycleCategory.RECOVERY])
        registry.inc("cycles.token_hold", result.token_hold_cycles)
        registry.inc("cycles.wasted_busy", result.wasted_busy_cycles)
        registry.inc("events.processed", float(result.events_processed))
        for _tid, start, end in result.commit_wavefront:
            registry.observe("commit.token_hold_cycles", end - start)
        per_task = []
        for timing in result.task_timings:
            registry.observe("task.execution_cycles",
                             timing.execution_cycles)
            registry.observe("task.commit_cycles", timing.commit_cycles)
            per_task.append(TaskMetrics(
                task_id=timing.task_id,
                proc_id=timing.proc_id,
                squashes=timing.squashes,
                execution_cycles=timing.execution_cycles,
                commit_cycles=timing.commit_cycles,
            ))
        self.snapshot = MetricsSnapshot(
            scheme=result.scheme.name,
            workload=result.workload_name,
            counters=dict(self.registry.counters),
            histograms=dict(self.registry.histograms),
            per_task=per_task,
        )
        result.metrics = self.snapshot


def aggregate_by_scheme(
    results: Iterable["SimulationResult"],
) -> dict[str, MetricsSnapshot]:
    """Fold instrumented results into one aggregate snapshot per scheme.

    Counters add, histograms merge, and the per-task tables concatenate;
    results without an attached snapshot are skipped. Insertion order
    follows first appearance, so report tables are deterministic.
    """
    merged: dict[str, MetricsSnapshot] = {}
    for result in results:
        snap = getattr(result, "metrics", None)
        if snap is None:
            continue
        agg = merged.get(snap.scheme)
        if agg is None:
            merged[snap.scheme] = MetricsSnapshot(
                scheme=snap.scheme,
                workload="(aggregate)",
                counters=dict(snap.counters),
                histograms={n: Histogram.from_dict(h.to_dict())
                            for n, h in snap.histograms.items()},
                per_task=list(snap.per_task),
                runs=snap.runs,
            )
            continue
        for name, value in snap.counters.items():
            agg.counters[name] = agg.counters.get(name, 0.0) + value
        for name, hist in snap.histograms.items():
            if name in agg.histograms:
                agg.histograms[name].merge(hist)
            else:
                agg.histograms[name] = Histogram.from_dict(hist.to_dict())
        agg.per_task.extend(snap.per_task)
        agg.runs += snap.runs
    return merged
