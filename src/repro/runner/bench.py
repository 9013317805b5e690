"""Performance harness: engine microbenchmark + Figure-9 sweep bench.

Two measurements, reported together in ``BENCH_sweep.json``:

* **engine** — raw event-processing throughput (events/second) of the
  simulation engine on a canonical (app x scheme) grid, compared against
  the pre-optimization seed baseline measured on the same container
  (:data:`SEED_EVENTS_PER_SECOND`).
* **sweep** — wall-clock seconds for the canonical Figure-9 sweep
  (7 apps x 6 AMM schemes + sequential baselines on CC-NUMA-16), run
  three ways: serial with no cache, through the parallel runner with a
  cold cache, and again with the warm cache (pure replay). The seed
  baseline for the serial sweep is :data:`SEED_SWEEP_SECONDS`.

A determinism probe rides along: one job executed serially, through the
process pool, and replayed from the cache must produce bit-identical
canonical serializations (see
:func:`repro.analysis.serialization.canonical_result_bytes`); the CI
smoke run fails if it does not.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.runner.runner import default_jobs

#: Wall-clock seconds of the canonical Figure-9 sweep (scale=1.0,
#: seed=0, serial, no cache) measured on the pre-optimization seed
#: engine in this container. Reference point for the >=2x target.
SEED_SWEEP_SECONDS = 30.80
#: Events/second of the engine microbench on the pre-optimization seed
#: engine in this container. Reference point for the >=1.15x target.
SEED_EVENTS_PER_SECOND = 37_246.0
#: Engine-core v2 baseline (PR-5's committed full bench) in the
#: container that measured it. Kept for the perf-trajectory table.
V2_EVENTS_PER_SECOND = 109_942.0
#: Committed perf-regression floor for the CI gate. The ``perf-smoke``
#: CI job fails when the smoke engine bench drops below this. Referenced
#: to the engine-core v3 pure-Python baseline (~95-105k ev/s on the
#: growth container) rather than the seed: anything below the floor is
#: a structural regression, not scheduling jitter. The allowance below
#: the baseline is ~35%, not the 10% a dedicated perf rig would permit,
#: because repeated runs in the shared containers show +-10-15%
#: run-to-run variance and larger container-to-container spread.
FLOOR_EVENTS_PER_SECOND = 66_000.0

#: Canonical engine-microbench grid (a subset keeps the bench short
#: while covering eager/lazy merging and AMM/FMM buffering).
ENGINE_BENCH_APPS = ("Apsi", "Euler", "Track")


def _engine_bench_schemes():
    from repro.core.taxonomy import (
        MULTI_T_MV_EAGER,
        MULTI_T_MV_FMM,
        MULTI_T_MV_LAZY,
        SINGLE_T_EAGER,
    )

    return (SINGLE_T_EAGER, MULTI_T_MV_EAGER, MULTI_T_MV_LAZY,
            MULTI_T_MV_FMM)


def run_engine_bench(scale: float = 1.0, seed: int = 0,
                     apps: tuple[str, ...] = ENGINE_BENCH_APPS,
                     ) -> dict[str, Any]:
    """Measure raw engine throughput (events/second), serial, no cache."""
    from repro.core.config import NUMA_16
    from repro.core.engine import Simulation
    from repro.workloads.apps import APPLICATIONS

    schemes = _engine_bench_schemes()
    events = 0
    started = time.perf_counter()
    for app in apps:
        workload = APPLICATIONS[app].generate(seed=seed, scale=scale)
        for scheme in schemes:
            result = Simulation(NUMA_16, scheme, workload).run()
            events += result.events_processed
    elapsed = time.perf_counter() - started
    eps = events / elapsed if elapsed > 0 else 0.0
    report: dict[str, Any] = {
        "apps": list(apps),
        "schemes": [s.name for s in schemes],
        "scale": scale,
        "events": events,
        "seconds": round(elapsed, 3),
        "events_per_second": round(eps, 1),
    }
    if scale == 1.0 and apps == ENGINE_BENCH_APPS:
        report["seed_events_per_second"] = SEED_EVENTS_PER_SECOND
        report["speedup_vs_seed"] = round(eps / SEED_EVENTS_PER_SECOND, 3)
    return report


def _figure9_sweep(scale: float, seed: int, jobs: int,
                   cache_dir: str | None) -> float:
    """One full Figure-9 sweep; returns wall-clock seconds."""
    from repro.analysis.experiments import ExperimentContext, run_figure9

    ctx = ExperimentContext(
        scale=scale, seed=seed, jobs=jobs,
        cache=cache_dir if cache_dir is not None else False,
    )
    started = time.perf_counter()
    run_figure9(ctx)
    return time.perf_counter() - started


def run_sweep_bench(scale: float = 1.0, seed: int = 0,
                    jobs: int | None = None) -> dict[str, Any]:
    """Figure-9 sweep wall-clock: serial / parallel cold / warm cache.

    ``pool_width`` reports the width the parallel sweep actually ran at.
    On a single-CPU container (or with ``jobs=1``) there is no parallel
    configuration to measure: the parallel leg is skipped with an
    explicit note instead of silently timing a serial run and labeling
    it parallel, and the warm-cache leg replays a cache populated by an
    untimed serial pass.
    """
    jobs = jobs if jobs is not None else default_jobs()
    pool_width = max(jobs, 1)
    parallel_cold: float | None
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        serial_cold = _figure9_sweep(scale, seed, 1, None)
        if pool_width >= 2:
            parallel_cold = _figure9_sweep(scale, seed, jobs, tmp)
        else:
            parallel_cold = None
            _figure9_sweep(scale, seed, 1, tmp)  # populate the warm cache
        warm_cache = _figure9_sweep(scale, seed, jobs, tmp)
    report: dict[str, Any] = {
        "scale": scale,
        "jobs": jobs,
        "pool_width": pool_width,
        "cpu_count": os.cpu_count(),
        "serial_cold_seconds": round(serial_cold, 3),
        "parallel_cold_seconds": (round(parallel_cold, 3)
                                  if parallel_cold is not None else None),
        "warm_cache_seconds": round(warm_cache, 3),
    }
    if parallel_cold is None:
        report["parallel_note"] = (
            f"parallel sweep skipped: effective pool width {pool_width} < 2 "
            f"(cpu_count={os.cpu_count()})"
        )
    if scale == 1.0:
        report["seed_serial_seconds"] = SEED_SWEEP_SECONDS
        report["speedup_serial_vs_seed"] = round(
            SEED_SWEEP_SECONDS / serial_cold, 2)
        if parallel_cold is not None:
            report["speedup_parallel_vs_seed"] = round(
                SEED_SWEEP_SECONDS / parallel_cold, 2)
        report["speedup_warm_vs_seed"] = round(
            SEED_SWEEP_SECONDS / warm_cache, 2)
    return report


def check_determinism(scale: float = 0.25, seed: int = 0) -> dict[str, Any]:
    """Serial, pooled, and cache-replayed runs must be bit-identical."""
    from repro.analysis.serialization import canonical_result_bytes
    from repro.core.config import NUMA_16
    from repro.core.taxonomy import MULTI_T_MV_EAGER, MULTI_T_MV_LAZY
    from repro.runner.cache import ResultCache
    from repro.runner.jobs import SimJob, WorkloadSpec
    from repro.runner.runner import SweepRunner

    job = SimJob(
        machine=NUMA_16,
        workload=WorkloadSpec("Euler", seed=seed, scale=scale),
        scheme=MULTI_T_MV_LAZY,
    )
    sibling = SimJob(
        machine=NUMA_16,
        workload=WorkloadSpec("Euler", seed=seed, scale=scale),
        scheme=MULTI_T_MV_EAGER,
    )
    serial = SweepRunner(jobs=1, cache=None).run(job)
    # Two distinct pending jobs + single-job chunks force the pool path.
    pooled = SweepRunner(jobs=2, cache=None,
                         chunk_size=1).run_many([job, sibling])[0]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache = ResultCache(tmp)
        SweepRunner(jobs=1, cache=cache).run(job)
        replayed = SweepRunner(jobs=1, cache=cache).run(job)
    reference = canonical_result_bytes(serial)
    return {
        "job": job.describe(),
        "serial_vs_pool": canonical_result_bytes(pooled) == reference,
        "serial_vs_cache_replay":
            canonical_result_bytes(replayed) == reference,
        "bit_identical":
            canonical_result_bytes(pooled) == reference
            and canonical_result_bytes(replayed) == reference,
    }


def check_floor(engine_report: dict[str, Any],
                floor: float = FLOOR_EVENTS_PER_SECOND) -> dict[str, Any]:
    """Compare an engine-bench report against the committed perf floor."""
    eps = engine_report["events_per_second"]
    return {
        "floor_events_per_second": round(floor, 1),
        "measured_events_per_second": eps,
        "passed": eps >= floor,
    }


#: Default destination of the :func:`profile_engine` listing.
DEFAULT_PROFILE_PATH = Path("docs/report/profile.txt")


def profile_engine(output: str | Path = DEFAULT_PROFILE_PATH,
                   scale: float = 0.5, seed: int = 0,
                   top: int = 30) -> str:
    """Profile one representative cell under cProfile.

    Runs Euler x MultiT&MV Eager AMM on CC-NUMA-16 (a mid-weight cell
    exercising the multi-version hot paths) and writes two top-``top``
    listings to ``output``: one ordered by cumulative time (where the
    simulated work goes) and one ordered by internal/tottime (which
    function bodies actually burn the cycles — the view that matters
    on the batched drain loop, whose inline paths absorb work
    that cumulative ordering attributes to callees). Returns the
    combined listing.
    """
    import cProfile
    import io
    import pstats

    from repro.core.config import NUMA_16
    from repro.core.engine import Simulation
    from repro.core.taxonomy import MULTI_T_MV_EAGER
    from repro.workloads.apps import APPLICATIONS

    workload = APPLICATIONS["Euler"].generate(seed=seed, scale=scale)
    profiler = cProfile.Profile()
    profiler.enable()
    result = Simulation(NUMA_16, MULTI_T_MV_EAGER, workload).run()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    buffer.write(f"\n==== top {top} by internal time (tottime) ====\n")
    stats.sort_stats("tottime").print_stats(top)
    listing = (
        f"cProfile: Euler x MultiT&MV Eager AMM on CC-NUMA-16 "
        f"(scale={scale}, seed={seed}); "
        f"{result.events_processed:,} events; top {top} by cumulative "
        f"time, then by internal time\n"
        + buffer.getvalue()
    )
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(listing)
    return listing


def run_bench(smoke: bool = False, jobs: int | None = None,
              seed: int = 0,
              output: str | Path | None = "BENCH_sweep.json",
              ) -> dict[str, Any]:
    """Full perf harness; writes the JSON report to ``output``.

    ``smoke=True`` shrinks the workloads (scale 0.1) so the whole run —
    engine bench, three sweeps, determinism probe — finishes in well
    under 30 seconds; the numbers are then only sanity checks, not
    comparable to the seed baselines (the floor check still applies:
    events/second is roughly scale-independent).
    """
    scale = 0.1 if smoke else 1.0
    engine = run_engine_bench(scale=scale, seed=seed)
    report: dict[str, Any] = {
        "benchmark": "tls-buffering perf harness",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "engine": engine,
        "floor": check_floor(engine),
        "sweep": run_sweep_bench(scale=scale, seed=seed, jobs=jobs),
        "determinism": check_determinism(
            scale=0.1 if smoke else 0.25, seed=seed),
    }
    if output is not None:
        path = Path(output)
        path.write_text(json.dumps(report, indent=2) + "\n")
        report["output"] = str(path)
    return report


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a :func:`run_bench` report."""
    engine = report["engine"]
    sweep = report["sweep"]
    det = report["determinism"]
    lines = [
        f"perf harness ({'smoke' if report['smoke'] else 'full'}; "
        f"{report['cpu_count']} CPUs)",
        f"  engine : {engine['events']:>9,} events in "
        f"{engine['seconds']:7.2f}s = "
        f"{engine['events_per_second']:>9,.0f} ev/s"
        + (f" ({engine['speedup_vs_seed']:.2f}x vs seed)"
           if "speedup_vs_seed" in engine else ""),
        f"  sweep  : serial cold {sweep['serial_cold_seconds']:7.2f}s | "
        + (f"parallel(width {sweep.get('pool_width', sweep['jobs'])}) cold "
           f"{sweep['parallel_cold_seconds']:7.2f}s | "
           if sweep.get("parallel_cold_seconds") is not None
           else "parallel skipped (pool width < 2) | ")
        + f"warm cache {sweep['warm_cache_seconds']:7.2f}s",
    ]
    if "speedup_warm_vs_seed" in sweep:
        parallel_part = (
            f"parallel {sweep['speedup_parallel_vs_seed']:.2f}x, "
            if "speedup_parallel_vs_seed" in sweep else "")
        lines.append(
            f"           vs seed {sweep['seed_serial_seconds']:.2f}s: "
            f"serial {sweep['speedup_serial_vs_seed']:.2f}x, "
            + parallel_part
            + f"warm {sweep['speedup_warm_vs_seed']:.2f}x")
    if "floor" in report:
        floor = report["floor"]
        lines.append(
            f"  floor  : {floor['measured_events_per_second']:,.0f} ev/s vs "
            f"committed floor {floor['floor_events_per_second']:,.0f} ev/s: "
            + ("pass" if floor["passed"] else "FAIL (perf regression!)"))
    lines.append(
        "  determinism: "
        + ("bit-identical across serial/pool/cache-replay"
           if det["bit_identical"] else "MISMATCH (regression!)"))
    if "output" in report:
        lines.append(f"  report written to {report['output']}")
    return "\n".join(lines)
