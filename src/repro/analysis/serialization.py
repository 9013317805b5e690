"""JSON serialization of workloads and results.

Lets users archive runs, diff reproductions across machines, or feed the
measurements into external tooling. Workloads round-trip exactly;
results serialize the measured quantities (the full memory image is
optional, as it can be megabytes for large runs).

``full=True`` serialization round-trips a :class:`SimulationResult`
exactly (every field, including task timings and observed reads); it is
the body of every result-cache entry (:mod:`repro.runner.entry`), and
:func:`canonical_result_bytes` derives the deterministic byte form used
to assert that serial, process-pool, and cache-replayed runs agree
bit for bit.

The rebuilders take either a plain payload dict, which they decode
eagerly, or a summary read from a cache entry
(:class:`repro.runner.entry.SummaryPayload`): a dict without the heavy
members (the memory image and observed reads) plus a ``load_heavy()``
that parses them. The result then leaves those fields unparsed until
first access (:func:`~repro.core.results.defer_fields`).
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.baselines.sequential import SequentialResult
from repro.core.results import (
    SimulationResult,
    TaskTiming,
    TrafficStats,
    defer_fields,
)
from repro.core.taxonomy import scheme_from_name
from repro.errors import WorkloadError
from repro.processor.processor import CycleCategory
from repro.tls.task import TaskSpec
from repro.workloads.base import Workload

_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def workload_to_dict(workload: Workload) -> dict[str, Any]:
    """A JSON-ready representation of a workload (exact round-trip)."""
    return {
        "format": _FORMAT_VERSION,
        "name": workload.name,
        "description": workload.description,
        "priv_base": workload.priv_predicate_base,
        "priv_limit": workload.priv_predicate_limit,
        "tasks": [
            {"id": task.task_id, "ops": [list(op) for op in task.ops]}
            for task in workload.tasks
        ],
    }


def workload_from_dict(data: dict[str, Any]) -> Workload:
    """Rebuild a workload serialized by :func:`workload_to_dict`."""
    if data.get("format") != _FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported workload format {data.get('format')!r}")
    tasks = tuple(
        TaskSpec(task_id=t["id"],
                 ops=tuple((kind, value) for kind, value in t["ops"]))
        for t in data["tasks"]
    )
    return Workload(
        name=data["name"],
        tasks=tasks,
        priv_predicate_base=data["priv_base"],
        priv_predicate_limit=data["priv_limit"],
        description=data.get("description", ""),
    )


def save_workload(workload: Workload, path: str) -> None:
    """Write a workload to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(workload_to_dict(workload), handle)


def load_workload(path: str) -> Workload:
    """Read a workload written by :func:`save_workload`."""
    with open(path) as handle:
        return workload_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def result_to_dict(result: SimulationResult,
                   include_image: bool = False,
                   full: bool = False) -> dict[str, Any]:
    """A JSON-ready representation of a simulation result.

    ``include_image`` adds the word -> producer memory image (large).
    ``full`` serializes *every* field so :func:`result_from_dict` can
    rebuild the result exactly (implies ``include_image``).
    """
    data: dict[str, Any] = {
        "format": _FORMAT_VERSION,
        "scheme": result.scheme.name,
        "machine": result.machine_name,
        "workload": result.workload_name,
        "n_procs": result.n_procs,
        "n_tasks": result.n_tasks,
        "total_cycles": result.total_cycles,
        "cycles_by_category": {
            category.value: cycles
            for category, cycles in result.cycles_by_category.items()
        },
        "violation_events": result.violation_events,
        "squashed_executions": result.squashed_executions,
        "token_hold_cycles": result.token_hold_cycles,
        "avg_spec_tasks_in_system": result.avg_spec_tasks_in_system,
        "avg_written_footprint_bytes": result.avg_written_footprint_bytes,
        "priv_footprint_fraction": result.priv_footprint_fraction,
        "commit_exec_ratio": result.commit_exec_ratio(),
        "busy_fraction": result.busy_fraction(),
        "peak_overflow_lines": result.peak_overflow_lines,
        "peak_undolog_entries": result.peak_undolog_entries,
        "wasted_busy_cycles": result.wasted_busy_cycles,
        "l2_hit_rate": result.l2_hit_rate,
        "traffic": {
            "remote_cache_fetches": result.traffic.remote_cache_fetches,
            "memory_fetches": result.traffic.memory_fetches,
            "line_writebacks": result.traffic.line_writebacks,
            "vcl_merges": result.traffic.vcl_merges,
            "overflow_spills": result.traffic.overflow_spills,
            "overflow_fetches": result.traffic.overflow_fetches,
        },
        "events_processed": result.events_processed,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    if include_image or full:
        data["memory_image"] = {
            str(word): producer
            for word, producer in result.memory_image.items()
        }
    if full:
        data["full"] = True
        data["l2_speculative_displacements"] = (
            result.l2_speculative_displacements)
        data["commit_wavefront"] = [
            [tid, start, end] for tid, start, end in result.commit_wavefront
        ]
        data["task_timings"] = [
            [t.task_id, t.proc_id, t.start_time, t.finish_time,
             t.commit_start, t.commit_end, t.squashes]
            for t in result.task_timings
        ]
        data["observed_reads"] = [
            [task, word, producer]
            for (task, word), producer in sorted(
                result.observed_reads.items())
        ]
    return data


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` serialized with ``full=True``."""
    if data.get("format") != _FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported result format {data.get('format')!r}")
    if not data.get("full"):
        raise WorkloadError(
            "result_from_dict needs a full serialization "
            "(result_to_dict(..., full=True))")
    categories = {c.value: c for c in CycleCategory}
    result = SimulationResult(
        scheme=scheme_from_name(data["scheme"]),
        machine_name=data["machine"],
        workload_name=data["workload"],
        n_procs=int(data["n_procs"]),
        n_tasks=int(data["n_tasks"]),
        total_cycles=float(data["total_cycles"]),
        cycles_by_category={
            categories[name]: cycles
            for name, cycles in data["cycles_by_category"].items()
        },
        violation_events=int(data["violation_events"]),
        squashed_executions=int(data["squashed_executions"]),
        commit_wavefront=[
            (int(tid), start, end)
            for tid, start, end in data["commit_wavefront"]
        ],
        token_hold_cycles=float(data["token_hold_cycles"]),
        task_timings=[
            TaskTiming(task_id=int(row[0]), proc_id=int(row[1]),
                       start_time=row[2], finish_time=row[3],
                       commit_start=row[4], commit_end=row[5],
                       squashes=int(row[6]))
            for row in data["task_timings"]
        ],
        avg_spec_tasks_in_system=float(data["avg_spec_tasks_in_system"]),
        avg_written_footprint_bytes=float(
            data["avg_written_footprint_bytes"]),
        priv_footprint_fraction=float(data["priv_footprint_fraction"]),
        peak_overflow_lines=int(data["peak_overflow_lines"]),
        peak_undolog_entries=int(data["peak_undolog_entries"]),
        wasted_busy_cycles=float(data["wasted_busy_cycles"]),
        l2_hit_rate=float(data["l2_hit_rate"]),
        l2_speculative_displacements=int(
            data["l2_speculative_displacements"]),
        traffic=TrafficStats(**data["traffic"]),
        events_processed=int(data["events_processed"]),
        wall_clock_seconds=float(data["wall_clock_seconds"]),
    )
    _attach_heavy(result, data, _simulation_heavy)
    return result


def _simulation_heavy(data: dict[str, Any]) -> dict[str, Any]:
    """The deferrable fields of a :class:`SimulationResult`."""
    return {
        "memory_image": {
            int(word): producer
            for word, producer in data["memory_image"].items()
        },
        "observed_reads": {
            (int(task), int(word)): producer
            for task, word, producer in data["observed_reads"]
        },
    }


def _sequential_heavy(data: dict[str, Any]) -> dict[str, Any]:
    """The deferrable field of a :class:`SequentialResult`."""
    return {"memory_image": {
        int(word): producer
        for word, producer in data["memory_image"].items()
    }}


def _attach_heavy(
    result: SimulationResult | SequentialResult, data: dict[str, Any],
    build: Callable[[dict[str, Any]], dict[str, Any]],
) -> None:
    """Give ``result`` its heavy fields: now from a plain payload, or on
    first access from a cache-entry summary's ``load_heavy()``."""
    load_heavy = getattr(data, "load_heavy", None)
    if load_heavy is None:
        result.__dict__.update(build(data))
    else:
        defer_fields(result, lambda: build(load_heavy()))


def canonical_result_bytes(result: SimulationResult) -> bytes:
    """Deterministic byte form of a result (for determinism checks).

    Serializes the full result with sorted keys and drops the fields that
    measure the *host* rather than the simulated machine
    (``wall_clock_seconds``); two runs of the same job are bit-identical
    under this form no matter how (or where) they executed.
    """
    data = result_to_dict(result, full=True)
    del data["wall_clock_seconds"]
    return json.dumps(data, sort_keys=True).encode()


# ----------------------------------------------------------------------
# Sequential-baseline results
# ----------------------------------------------------------------------
def sequential_result_to_dict(result: SequentialResult) -> dict[str, Any]:
    """A JSON-ready (exact round-trip) sequential-baseline result."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "sequential",
        "workload": result.workload_name,
        "machine": result.machine_name,
        "total_cycles": result.total_cycles,
        "busy_cycles": result.busy_cycles,
        "memory_cycles": result.memory_cycles,
        "memory_image": {
            str(word): producer
            for word, producer in result.memory_image.items()
        },
    }


def sequential_result_from_dict(data: dict[str, Any]) -> SequentialResult:
    """Rebuild a :func:`sequential_result_to_dict` serialization."""
    if data.get("format") != _FORMAT_VERSION or data.get("kind") != "sequential":
        raise WorkloadError(
            f"unsupported sequential-result payload "
            f"(format {data.get('format')!r}, kind {data.get('kind')!r})")
    result = SequentialResult(
        workload_name=data["workload"],
        machine_name=data["machine"],
        total_cycles=float(data["total_cycles"]),
        busy_cycles=float(data["busy_cycles"]),
        memory_cycles=float(data["memory_cycles"]),
        memory_image={},
    )
    _attach_heavy(result, data, _sequential_heavy)
    return result


def result_summary_from_dict(data: dict[str, Any]) -> dict[str, Any]:
    """Validate and normalize a serialized result for external analysis.

    Returns a flat summary dict with the scheme resolved back to its
    taxonomy object and category names validated.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported result format {data.get('format')!r}")
    known = {c.value for c in CycleCategory}
    unknown = set(data["cycles_by_category"]) - known
    if unknown:
        raise WorkloadError(f"unknown cycle categories: {sorted(unknown)}")
    return {
        "scheme": scheme_from_name(data["scheme"]),
        "machine": data["machine"],
        "workload": data["workload"],
        "total_cycles": float(data["total_cycles"]),
        "busy_fraction": float(data["busy_fraction"]),
        "violation_events": int(data["violation_events"]),
    }


def save_result(result: SimulationResult, path: str,
                include_image: bool = False) -> None:
    """Write a result to ``path`` as JSON (optionally with the workload)."""
    with open(path, "w") as handle:
        json.dump(result_to_dict(result, include_image=include_image), handle)
