"""Trace-driven workloads: replay ``.tlstrace`` reference streams.

Three entry points, mirroring the synthetic-app pipeline end to end:

* **Replay** — :class:`TraceWorkload` is the trace-file analogue of
  :class:`~repro.runner.jobs.WorkloadSpec`: a tiny, picklable reference
  that a :class:`~repro.runner.jobs.SimJob` can carry across process
  boundaries. Its identity in the result cache is the trace's *content
  digest*, so two byte-different encodings of the same logical trace
  (different filenames, different record coalescing, different
  provenance metadata framing) share one cache entry, while any edit to
  an op stream or header field misses.
* **Capture** — :class:`repro.obs.capture.TraceCaptureHook` rides the
  :mod:`repro.core.hooks` observer interface and dumps the workload
  a simulation executed back out as a trace on completion. The
  differential contract — capture a synthetic run, replay the trace,
  get byte-identical ``canonical_result_bytes`` under every scheme — is
  enforced by :func:`verify_capture_replay` (``repro-tls trace verify``)
  and ``tests/test_trace_replay.py``.
* **Generators** — adversarial reference streams the Table 3 synthetics
  cannot express: :func:`pointer_chase` (dependent irregular loads),
  :func:`squash_storm` (dense cross-task write/read collisions), and
  :func:`hot_line_reduction` (read-modify-write chains on a few hot
  lines). All are deterministic in their parameters and runnable
  end-to-end through ``repro-tls sweep --traces``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.config import WORDS_PER_LINE
from repro.errors import TraceFormatError, WorkloadError
from repro.tls.task import OP_READ, OP_WRITE, TaskSpec
from repro.workloads.base import DEP_BASE, OUTPUT_BASE, SHARED_RO_BASE, Workload
from repro.workloads.patterns import OpListBuilder
from repro.workloads.traceio import (
    TRACE_SUFFIX,
    TraceInfo,
    read_trace,
    write_trace,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.config import MachineConfig
    from repro.core.taxonomy import Scheme

#: Digest -> decoded workload memo shared by every TraceWorkload in the
#: process, so the 8 schemes of one sweep decode each trace file once.
_DECODED: dict[str, Workload] = {}
_DECODED_CAP = 16


def _memoize(digest: str, workload: Workload) -> Workload:
    if digest not in _DECODED and len(_DECODED) >= _DECODED_CAP:
        _DECODED.pop(next(iter(_DECODED)))
    _DECODED[digest] = workload
    return workload


@dataclass(frozen=True)
class TraceWorkload:
    """A job-embeddable reference to a verified on-disk trace.

    Construct via :meth:`open`, which decodes and digest-verifies the
    file once. The instance itself carries only strings and ints, so it
    pickles cheaply into worker processes; :meth:`resolve` re-reads the
    file there (through a digest-keyed memo) and re-verifies that its
    content still matches the digest this reference was opened with.
    """

    path: str
    digest: str
    name: str
    n_tasks: int

    @classmethod
    def open(cls, path: Any) -> "TraceWorkload":
        """Decode, verify, and memoize the trace at ``path``."""
        decoded = read_trace(path)
        _memoize(decoded.digest, decoded.to_workload())
        return cls(path=str(path), digest=decoded.digest,
                   name=decoded.header.name,
                   n_tasks=decoded.header.n_tasks)

    def resolve(self) -> Workload:
        """The decoded workload (from the memo or re-read from disk)."""
        workload = _DECODED.get(self.digest)
        if workload is not None:
            return workload
        decoded = read_trace(self.path)
        if decoded.digest != self.digest:
            raise TraceFormatError(
                f"trace {self.path} changed on disk: expected digest "
                f"{self.digest[:12]}..., found {decoded.digest[:12]}...")
        return _memoize(decoded.digest, decoded.to_workload())

    def fingerprint(self) -> dict[str, Any]:
        """Cache-identity fragment (see :mod:`repro.runner.jobs`)."""
        return {"kind": "trace", "digest": self.digest, "name": self.name}


# ----------------------------------------------------------------------
# Adversarial generators
# ----------------------------------------------------------------------
#: Base of the region the hot-line reduction accumulators live in; clear
#: of the synthetic generators' dependence-pair words.
_HOT_BASE = DEP_BASE + 0x0080_0000


def pointer_chase(n_tasks: int = 64, *, chain_len: int = 96,
                  region_lines: int = 8192, link_lag: int = 32,
                  seed: int = 0) -> Workload:
    """Dependent irregular loads: each task walks a pseudo-random chain.

    Every task issues ``chain_len`` reads at unpredictable addresses in a
    ``region_lines``-line shared region, each followed by a short compute
    burst (the dependent-load serialization the synthetics' bulk shared
    streams cannot express), writes one result word, and reads the result
    of the task ``link_lag`` positions older — a committed producer, so
    the cross-task links stress forwarding, not squashes.
    """
    if n_tasks < 1 or chain_len < 1 or link_lag < 1:
        raise WorkloadError("pointer_chase parameters must be positive")
    rng = random.Random(0x9E3779B9 ^ seed)
    tasks = []
    for tid in range(n_tasks):
        builder = OpListBuilder(600 + 40 * chain_len)
        if tid >= link_lag:
            builder.add(0.02, OP_READ, OUTPUT_BASE
                        + (tid - link_lag) * WORDS_PER_LINE)
        for j in range(chain_len):
            word = (SHARED_RO_BASE
                    + rng.randrange(region_lines) * WORDS_PER_LINE
                    + rng.randrange(WORDS_PER_LINE))
            builder.add(0.05 + 0.88 * j / chain_len, OP_READ, word)
        builder.add(0.97, OP_WRITE, OUTPUT_BASE + tid * WORDS_PER_LINE)
        tasks.append(TaskSpec(task_id=tid, ops=builder.build()))
    return Workload(
        name="PtrChase", tasks=tuple(tasks),
        description=(f"pointer-chase trace: {n_tasks} tasks x {chain_len} "
                     f"dependent loads over {region_lines} lines, "
                     f"link lag {link_lag}, seed {seed}"),
    )


def squash_storm(n_tasks: int = 96, *, collision_every: int = 3,
                 window: int = 3, seed: int = 0) -> Workload:
    """Dense cross-task write/read collisions: an adversarial squash storm.

    Every ``collision_every``-th task writes a storm word as late as
    possible while its ``window`` successors read that word as early as
    possible — when they overlap in flight, every reader observes the
    write out of order and squashes. The synthetics cap this pattern at
    Euler's 0.02 pairs per task; here the collision density is a free
    parameter.
    """
    if n_tasks < 2 or collision_every < 1 or window < 1:
        raise WorkloadError("squash_storm parameters must be positive")
    rng = random.Random(0x5DEECE66D ^ seed)
    tasks = []
    for tid in range(n_tasks):
        builder = OpListBuilder(3000 + rng.randrange(500))
        producer = (tid // collision_every) * collision_every
        if producer != tid:
            lag = tid - producer
            if lag <= window:
                builder.add(0.01, OP_READ,
                            DEP_BASE + producer * WORDS_PER_LINE)
        for j in range(4):
            builder.add(0.30 + 0.12 * j, OP_WRITE,
                        OUTPUT_BASE + (tid * 5 + j) * WORDS_PER_LINE)
        if tid % collision_every == 0:
            builder.add(0.98, OP_WRITE, DEP_BASE + tid * WORDS_PER_LINE)
        tasks.append(TaskSpec(task_id=tid, ops=builder.build()))
    return Workload(
        name="SquashStorm", tasks=tuple(tasks),
        description=(f"squash-storm trace: {n_tasks} tasks, a late write "
                     f"every {collision_every} tasks with {window} early "
                     f"readers, seed {seed}"),
    )


def hot_line_reduction(n_tasks: int = 96, *, hot_lines: int = 2,
                       updates_per_task: int = 6,
                       seed: int = 0) -> Workload:
    """Irregular reduction: every task read-modify-writes a few hot lines.

    All tasks accumulate into the same ``hot_lines`` cache lines
    (``updates_per_task`` read+write pairs each, at seed-jittered
    positions), so every speculative task's first read of an accumulator
    races the previous task's update — the serializing RAW chain of an
    unprivatizable reduction, concentrated on lines every processor
    contends for.
    """
    if n_tasks < 2 or hot_lines < 1 or updates_per_task < 1:
        raise WorkloadError("hot_line_reduction parameters must be positive")
    rng = random.Random(0xB5297A4D ^ seed)
    tasks = []
    for tid in range(n_tasks):
        builder = OpListBuilder(2500 + rng.randrange(400))
        for j in range(updates_per_task):
            line = j % hot_lines
            word = _HOT_BASE + line * WORDS_PER_LINE + (j % WORDS_PER_LINE)
            pos = 0.08 + 0.80 * j / updates_per_task
            pos += rng.random() * 0.02
            builder.add(min(pos, 0.95), OP_READ, word)
            builder.add(min(pos + 0.01, 0.96), OP_WRITE, word)
        builder.add(0.99, OP_WRITE, OUTPUT_BASE + tid * WORDS_PER_LINE)
        tasks.append(TaskSpec(task_id=tid, ops=builder.build()))
    return Workload(
        name="HotLine", tasks=tuple(tasks),
        description=(f"hot-line reduction trace: {n_tasks} tasks x "
                     f"{updates_per_task} read-modify-writes over "
                     f"{hot_lines} shared lines, seed {seed}"),
    )


#: Generator registry for ``repro-tls trace gen``. Each callable accepts
#: ``(n_tasks, seed=...)`` plus kind-specific keyword knobs.
TRACE_GENERATORS: dict[str, Callable[..., Workload]] = {
    "pointer-chase": pointer_chase,
    "squash-storm": squash_storm,
    "hot-line": hot_line_reduction,
}


def generate_trace_workload(kind: str, *, n_tasks: int | None = None,
                            seed: int = 0) -> Workload:
    """Build one adversarial workload by registry name."""
    try:
        generator = TRACE_GENERATORS[kind]
    except KeyError:
        known = ", ".join(TRACE_GENERATORS)
        raise WorkloadError(
            f"unknown trace generator {kind!r}; known: {known}") from None
    if n_tasks is None:
        return generator(seed=seed)
    return generator(n_tasks, seed=seed)


def generate_trace_file(kind: str, path: Any, *,
                        n_tasks: int | None = None,
                        seed: int = 0) -> TraceInfo:
    """Generate an adversarial workload and write it as a trace file."""
    workload = generate_trace_workload(kind, n_tasks=n_tasks, seed=seed)
    return write_trace(path, workload,
                       meta={"generator": kind, "seed": str(seed)})


def discover_traces(directory: Any) -> "list[str]":
    """Sorted ``.tlstrace`` paths directly inside ``directory``."""
    import os

    try:
        entries = sorted(os.listdir(directory))
    except OSError as exc:
        raise WorkloadError(f"cannot list trace dir {directory}: {exc}")
    return [os.path.join(str(directory), entry) for entry in entries
            if entry.endswith(TRACE_SUFFIX)]


# ----------------------------------------------------------------------
# Differential capture -> replay verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VerifyCell:
    """One (app x scheme) comparison of synthetic vs trace-replayed run."""

    app: str
    scheme: str
    ok: bool
    synthetic_key: str
    trace_key: str


def verify_capture_replay(
    machine: "MachineConfig",
    apps: Sequence[str],
    schemes: "Sequence[Scheme]",
    trace_dir: Any,
    *,
    scale: float = 0.1,
    seed: int = 0,
    capture_meta: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """Capture every app as a trace and replay it under every scheme.

    For each app the synthetic workload is run once with a
    :class:`~repro.obs.capture.TraceCaptureHook` attached (proving the
    hook's zero-perturbation contract on the way), then each scheme is
    simulated twice — from the synthetic :class:`WorkloadSpec` and from
    the captured :class:`TraceWorkload` — and the two results' canonical
    bytes are compared. Always cache-less: like the conformance oracle,
    verification re-runs, it never replays cached results.

    Returns ``{"passed": bool, "cells": [VerifyCell...],
    "digests": {app: digest}}``.
    """
    import os

    from repro.analysis.serialization import canonical_result_bytes
    from repro.core.engine import Simulation
    from repro.obs.capture import TraceCaptureHook
    from repro.runner import SimJob, SweepRunner, WorkloadSpec

    runner = SweepRunner(jobs=1, cache=None)
    cells: list[VerifyCell] = []
    digests: dict[str, str] = {}
    os.makedirs(trace_dir, exist_ok=True)
    for app in apps:
        spec = WorkloadSpec(app, seed=seed, scale=scale)
        path = os.path.join(str(trace_dir), f"{app}{TRACE_SUFFIX}")
        hook = TraceCaptureHook(path, meta=capture_meta)
        captured = Simulation(machine, schemes[0], spec.generate(),
                              hook=hook).run()
        digests[app] = hook.info.digest
        trace = TraceWorkload.open(path)
        for scheme in schemes:
            synthetic_job = SimJob(machine=machine, workload=spec,
                                   scheme=scheme)
            trace_job = SimJob(machine=machine, workload=trace,
                               scheme=scheme)
            synthetic = runner.run(synthetic_job)
            replayed = runner.run(trace_job)
            reference = canonical_result_bytes(synthetic)
            ok = canonical_result_bytes(replayed) == reference
            if scheme is schemes[0]:
                # The capture run itself must match too: the hook is a
                # pure observer.
                ok = ok and canonical_result_bytes(captured) == reference
            cells.append(VerifyCell(
                app=app, scheme=scheme.name, ok=ok,
                synthetic_key=synthetic_job.cache_key(),
                trace_key=trace_job.cache_key(),
            ))
    key_collisions = [c for c in cells if c.synthetic_key == c.trace_key]
    return {
        "passed": (all(c.ok for c in cells) and not key_collisions),
        "cells": cells,
        "digests": digests,
    }


def render_verify_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`verify_capture_replay` report."""
    lines = ["capture -> replay bit-identity (canonical_result_bytes)", ""]
    by_app: dict[str, list[VerifyCell]] = {}
    for cell in report["cells"]:
        by_app.setdefault(cell.app, []).append(cell)
    for app, cells in by_app.items():
        bad = [c for c in cells if not c.ok]
        digest = report["digests"][app][:12]
        status = "ok" if not bad else f"FAIL ({len(bad)}/{len(cells)})"
        lines.append(f"  {app:>12}  digest {digest}  "
                     f"{len(cells)} schemes  {status}")
        for cell in bad:
            lines.append(f"      MISMATCH under {cell.scheme}")
    lines.append("")
    lines.append("PASS: every replay is byte-identical to its synthetic run"
                 if report["passed"] else
                 "FAIL: replay diverged from the synthetic run")
    return "\n".join(lines)
