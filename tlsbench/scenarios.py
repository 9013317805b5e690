"""The in-process workloads: cold-grid, warm-replay and fleet-grid.

Each untraced run sets up several times (``setup_s`` is the median) and
then repeats *rounds* until ``--seconds`` have passed. Every timed step
is followed, outside its timing, by a check of every result it returned.

* A **grid round** (cold-grid, fleet-grid) starts from an empty cache
  directory and an empty workload-generation memo, computes Figures 9-11
  through ``run_figure9/10/11`` (``grid_s``), re-renders them on a fresh
  ``ExperimentContext`` over the same runner's memory tier
  (``hot_grid_s``, three times), then computes the 14 cold single cells
  one at a time with ``SweepRunner.run`` (``cell_ms``).
* A **replay round** (warm-replay) renders the figures through a fresh
  ``SweepRunner`` over a warm copy of the cache (disk tier, ``grid_s``),
  again on a fresh context over that runner (memory tier,
  ``hot_grid_s``), then reads the 113 cells one at a time from the
  memory tier with ``SweepRunner.run`` (``cell_ms``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import cells
import measure
from spans import Tracer

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: Memory-tier re-renders after each cold sweep: a sweep takes seconds,
#: a re-render a few tenths, so one each would leave ``hot_grid_s`` with
#: a handful of samples per run.
HOT_PASSES = 3


@dataclass
class Options:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    scale: float = cells.SCALE
    fault: str | None = None


@dataclass
class Entry:
    """A cell with its job and cache key, computed once per run."""

    cell: cells.Cell
    job: object
    key: str


@dataclass
class Run:
    """State shared by one run's rounds: inputs, samples and checks."""

    opt: Options
    checker: cells.Checker
    tracer: Tracer = field(default_factory=Tracer)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    notes: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Stops whatever a stuck round waits on (the round's fleet).
    unblock: object = None

    def __post_init__(self) -> None:
        self.wseed = cells.workload_seed(self.opt.seed)
        self.rng = cells.order_rng(self.opt.seed, self.opt.workload)
        self.grid = self._entries(cells.grid_cells())
        self.cold = self._entries(cells.cold_cells())

    def _entries(self, chosen) -> list[Entry]:
        entries = []
        for cell in chosen:
            job = cell.job(self.opt.scale, self.wseed)
            entries.append(Entry(cell, job, job.cache_key()))
        return entries

    def shuffled(self, items) -> list:
        return self.rng.sample(list(items), len(items))


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
def clear_generation_memo() -> None:
    """Forget generated workloads so a cold round generates them again."""
    from repro.runner import jobs

    memo = getattr(jobs, "_generate_cached", None)
    if hasattr(memo, "cache_clear"):
        memo.cache_clear()


def figure_pass(run: Run, runner, sample: str) -> list:
    """Render Figures 9-11 (in seeded order) on a fresh context over
    ``runner``; time it into ``sample``; check figures and every cell."""
    from repro.analysis import experiments

    ctx = experiments.ExperimentContext(scale=run.opt.scale, seed=run.wseed,
                                        runner=runner)
    order = run.shuffled(cells.FIGURES)
    start = time.perf_counter()
    texts = {name: getattr(experiments, f"run_{name}")(ctx).render()
             for name in order}
    run.samples[sample].append(time.perf_counter() - start)
    with run.tracer.paused():
        results = ctx.submit([entry.job for entry in run.grid])
        oks = [run.checker.figure_ok(run.opt.scale, run.wseed, name, text)
               for name, text in texts.items()]
        oks.append(run.checker.results_ok(
            [(entry.key, result)
             for entry, result in zip(run.grid, results)], sample))
        run.checker.record(all(oks))
    return results


def cell_reads(run: Run, runner, entries, sample: str) -> list:
    """One ``SweepRunner.run`` per cell, each timed and checked; the
    round's mean goes to ``<sample>_round``."""
    results = []
    first = len(run.samples[sample])
    for entry in run.shuffled(entries):
        start = time.perf_counter()
        result = runner.run(entry.job)
        elapsed = time.perf_counter() - start
        with run.tracer.paused():
            ok = run.checker.digest_ok(entry.key, cells.result_digest(result),
                                       sample)
        if run.checker.record(ok):
            run.samples[sample].append(elapsed * 1000.0)
        results.append(result)
    latest = run.samples[sample][first:]
    if latest:
        run.samples[f"{sample}_round"].append(sum(latest) / len(latest))
    return results


def grid_round(run: Run, dispatcher=None, jobs: int | None = None,
               cache_dir: str | None = None):
    """Cold grid, memory-tier re-render, then cold single cells.

    ``cache_dir`` is an empty cache directory the caller owns (and has
    shared with fleet workers); by default the round makes its own.
    """
    from repro.runner import ResultCache, SweepRunner

    clear_generation_memo()
    owned = cache_dir is None
    if owned:
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=measure.WORK_DIR)
    try:
        runner = SweepRunner(jobs=jobs, cache=ResultCache(cache_dir),
                             dispatcher=dispatcher)
        results = figure_pass(run, runner, "grid_s")
        for _ in range(HOT_PASSES):
            figure_pass(run, runner, "hot_grid_s")
        results += cell_reads(run, runner, run.cold, "cell_ms")
        return runner, results
    finally:
        if owned:
            shutil.rmtree(cache_dir, ignore_errors=True)


def fleet_round(run: Run, on_counters=None):
    """A grid round through a fresh fleet whose workers share the
    round's empty cache directory, as ``repro-tls sweep --dispatch
    fleet`` sets them up. ``on_counters`` (the traced run) receives the
    fleet's counters before and after the round."""
    cache_dir = tempfile.mkdtemp(prefix="cold-", dir=measure.WORK_DIR)
    try:
        start = time.perf_counter()
        fleet = start_fleet(cache_dir)
        run.samples["fleet_start_s"].append(time.perf_counter() - start)
        run.unblock = fleet.stop
        try:
            before = fleet.stats.to_dict()
            runner, results = grid_round(run, dispatcher=fleet,
                                         cache_dir=cache_dir)
            if on_counters is not None:
                on_counters(before, fleet.stats.to_dict())
            return runner, results
        finally:
            fleet.stop()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def replay_round(run: Run, cache_dir: str):
    """Disk-tier pass, memory-tier pass, then single-cell memory reads."""
    from repro.runner import ResultCache, SweepRunner

    runner = SweepRunner(cache=ResultCache(cache_dir))
    figure_pass(run, runner, "grid_s")
    figure_pass(run, runner, "hot_grid_s")
    cell_reads(run, runner, run.grid, "cell_ms")
    return runner, []


def warm_fixture(run: Run) -> str:
    """A private copy of a warm cache holding the 113 grid cells.

    The warm cache is built once per (scale, workload seed) in the
    checkout by a cold sweep of this tree, and rebuilt if its key set is
    not exactly the grid's. Filling and copying it is a fixture, not
    set-up, and is not timed.
    """
    from repro.analysis import experiments
    from repro.runner import ResultCache, SweepRunner

    expected = {entry.key for entry in run.grid}
    fixture = measure.WORK_DIR / "fixtures" / f"{run.opt.scale}-{run.wseed}"
    if set(ResultCache(fixture).keys()) != expected:
        shutil.rmtree(fixture, ignore_errors=True)
        staging = tempfile.mkdtemp(prefix="fixture-", dir=measure.WORK_DIR)
        ctx = experiments.ExperimentContext(
            scale=run.opt.scale, seed=run.wseed,
            runner=SweepRunner(cache=ResultCache(staging)))
        for name in cells.FIGURES:
            getattr(experiments, f"run_{name}")(ctx)
        fixture.parent.mkdir(parents=True, exist_ok=True)
        os.replace(staging, fixture)
    copy = tempfile.mkdtemp(prefix="warm-", dir=measure.WORK_DIR)
    shutil.copytree(fixture, copy, dirs_exist_ok=True)
    return copy


def bounded(run: Run, fn, timeout: float, on_timeout) -> bool:
    """Run ``fn`` on a helper thread; past ``timeout`` count a failed
    operation, call ``on_timeout`` (which must unblock ``fn``) and
    report False. Exceptions count as failed operations too."""
    box: dict = {}

    def _target() -> None:
        try:
            box["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        run.checker.record(False, f"round exceeded {timeout:.0f}s")
        on_timeout()
        thread.join(30)
        return False
    if "error" in box:
        run.checker.record(False, f"{type(box['error']).__name__}: "
                                  f"{box['error']}")
        return False
    return True


def round_timeout(opt: Options) -> float:
    return max(60.0, 3.0 * opt.seconds)


def program_children(match: str) -> list[int]:
    """Live child processes of this benchmark whose command line
    contains ``match``."""
    pids = []
    for pid in measure.children_map().get(os.getpid(), []):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if match.encode() in handle.read():
                    pids.append(pid)
        except OSError:
            continue
    return pids


def start_fleet(cache_dir: str):
    """A ``FleetDispatcher`` with ``nproc`` local workers sharing
    ``cache_dir``, all registered."""
    from repro.dist.coordinator import FleetDispatcher
    from repro.runner import default_jobs

    width = default_jobs()
    fleet = FleetDispatcher(min_workers=width, local_workers=width,
                            worker_cache_dir=cache_dir)
    try:
        fleet.start()
        fleet.coordinator.wait_for_workers(width, 60)
    except BaseException:
        fleet.stop()
        raise
    return fleet


# ----------------------------------------------------------------------
# Untraced runs
# ----------------------------------------------------------------------
def _rounds(run: Run, one_round) -> None:
    deadline = time.perf_counter() + run.opt.seconds
    while True:
        if not bounded(run, one_round, round_timeout(run.opt),
                       lambda: run.unblock and run.unblock()):
            return
        if time.perf_counter() >= deadline:
            return


def cold_grid(run: Run) -> None:
    run.samples["setup_s"] = [measure.probe_setup("runner")
                              for _ in range(SETUPS)]
    with measure.RssMonitor(os.getpid()) as rss:
        _rounds(run, lambda: grid_round(run))
    run.peak_rss_mb = rss.peak_mb


def warm_replay(run: Run) -> None:
    cache_dir = warm_fixture(run)
    try:
        run.samples["setup_s"] = [measure.probe_setup("runner")
                                  for _ in range(SETUPS)]
        with measure.RssMonitor(os.getpid()) as rss:
            _rounds(run, lambda: replay_round(run, cache_dir))
        run.peak_rss_mb = rss.peak_mb
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def fleet_grid(run: Run) -> None:
    run.samples["setup_s"] = [measure.probe_setup("fleet")
                              for _ in range(SETUPS)]
    killer = None
    if run.opt.fault == "kill-worker":
        # Lands in a fleet's start-up or sweep; the coordinator requeues
        # the dead worker's chunk, and the next batch waits for the
        # missing worker until it fails: a counted failure either way.
        killer = threading.Timer(1.5, _kill_one_worker)
        killer.start()
    try:
        with measure.RssMonitor(os.getpid()) as rss:
            _rounds(run, lambda: fleet_round(run))
        run.peak_rss_mb = rss.peak_mb
    finally:
        if killer is not None:
            killer.cancel()
            killer.join()


def _kill_one_worker() -> None:
    import signal

    for pid in program_children("worker")[:1]:
        os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# Traced runs: one untraced and one traced leg in the same configuration
# ----------------------------------------------------------------------
def run_legs(run: Run, one_leg) -> tuple[float, float, object]:
    """Time ``one_leg`` untraced, then traced; returns both walls and
    the traced leg's value."""
    start = time.perf_counter()
    one_leg()
    untraced = time.perf_counter() - start
    run.tracer.install()
    run.tracer.active = True
    try:
        start = time.perf_counter()
        value = one_leg()
        traced = time.perf_counter() - start
    finally:
        run.tracer.uninstall()
    return untraced, traced, value


def _runner_counts(runners) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for runner in runners:
        memory = runner.memory_cache.stats
        out["cache.memory.hits"] += memory.hits
        out["cache.memory.misses"] += memory.misses
        if runner.cache is not None:
            out["cache.disk.hits"] += runner.cache.stats.hits
            out["cache.disk.misses"] += runner.cache.stats.misses
        out["singleflight.led"] += runner.flights.stats.led
        out["singleflight.joined"] += runner.flights.stats.joined
    return out


def _engine_seconds(results) -> float:
    return sum(getattr(result, "wall_clock_seconds", 0.0)
               for result in results)


def traced_cold_grid(run: Run) -> dict[str, float]:
    """Serial untraced/traced legs (spans inside pool workers cannot be
    seen from this process), then one pool round for ``dispatch.*``."""
    from repro.runner import default_jobs

    untraced, traced, (runner, _results) = run_legs(
        run, lambda: grid_round(run, jobs=1))
    out = trace_metrics(run, untraced, traced, [runner])
    width = default_jobs()
    pool = Tracer()
    pool.install_dispatch_only()
    pool.active = True
    try:
        runner, results = grid_round(run)
    finally:
        pool.uninstall()
    compute_s = pool.metrics()["dispatch.compute_s"]
    stats = runner.dispatcher.stats
    out.update({"dispatch.compute_s": compute_s,
                "dispatch.pool_batches": float(stats.pool_batches),
                "dispatch.chunks": float(stats.chunks)})
    if compute_s > 0:
        out["dispatch.busy_ratio"] = (_engine_seconds(results)
                                      / (compute_s * width))
    run.notes.append("traced legs compute serially (jobs=1); dispatch.* "
                     f"comes from one untraced pool round of width {width}")
    return out


def traced_warm_replay(run: Run) -> dict[str, float]:
    cache_dir = warm_fixture(run)
    try:
        untraced, traced, (runner, _results) = run_legs(
            run, lambda: replay_round(run, cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return trace_metrics(run, untraced, traced, [runner])


def traced_fleet_grid(run: Run) -> dict[str, float]:
    """Untraced and traced fleet rounds. Engine spans run inside the
    worker processes and cannot be seen from here."""
    from repro.runner import default_jobs

    width = default_jobs()
    counters: dict = {}

    def _counters(before, after) -> None:
        counters.update({name: after[name] - before[name]
                         for name in after if isinstance(after[name], int)})

    untraced, traced, (runner, results) = run_legs(
        run, lambda: fleet_round(run, _counters))
    out = trace_metrics(run, untraced, traced, [runner])
    out["fleet.register_s"] = run.samples["fleet_start_s"][-1]
    for name in ("chunks_dispatched", "chunks_requeued",
                 "cache_short_circuits"):
        out[f"fleet.{name}"] = float(counters[name])
    if out.get("fleet.compute_s", 0) > 0:
        out["fleet.busy_ratio"] = (_engine_seconds(results)
                                   / (out["fleet.compute_s"] * width))
    run.notes.append("engine spans run inside fleet worker processes and "
                     "are not visible; engine time for fleet.busy_ratio "
                     "comes from each result's wall_clock_seconds")
    return out


def trace_metrics(run: Run, untraced: float, traced: float,
                   runners) -> dict[str, float]:
    out = run.tracer.metrics()
    out.update(_runner_counts(runners))
    out["trace.untraced_s"] = untraced
    out["trace.traced_s"] = traced
    out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return out
