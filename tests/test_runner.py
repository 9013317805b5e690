"""Sweep runner + result cache: determinism, dedup, content addressing.

The contract under test (see ``repro.runner.runner``): the execution
mode — serial in-process, fanned out over a chunked process pool,
replayed from the in-memory LRU tier or the on-disk cache, or shared
with a concurrent in-flight computation — can never change a result.
``canonical_result_bytes`` (the full serialization minus the
host-measured wall clock) is the equality we hold all modes to, bit
for bit.
"""

import json
import threading
import time
from collections import Counter

import pytest

from repro.analysis.serialization import canonical_result_bytes
from repro.baselines.sequential import SequentialResult
from repro.core.config import CMP_8, NUMA_16, NUMA_16_BIG_L2
from repro.core.results import SimulationResult
from repro.core.taxonomy import (
    MULTI_T_MV_EAGER,
    MULTI_T_MV_FMM,
    MULTI_T_MV_LAZY,
    SINGLE_T_EAGER,
)
from repro.workloads.base import Workload
from repro.runner import (
    MemoryResultCache,
    ResultCache,
    SimJob,
    SweepRunner,
    WorkloadSpec,
    execute_job,
)

SCALE = 0.15  # keeps each simulation fast while exercising every path


def _job(app="Euler", scheme=MULTI_T_MV_LAZY, machine=NUMA_16, seed=0):
    return SimJob(
        machine=machine,
        workload=WorkloadSpec(app, seed=seed, scale=SCALE),
        scheme=scheme,
    )


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def test_cache_key_is_stable_and_distinguishes_jobs():
    a = _job()
    assert a.cache_key() == _job().cache_key()
    assert a.cache_key() != _job(scheme=MULTI_T_MV_EAGER).cache_key()
    assert a.cache_key() != _job(app="Apsi").cache_key()
    assert a.cache_key() != _job(seed=1).cache_key()
    assert a.cache_key() != _job(machine=CMP_8).cache_key()
    # Sequential baseline is its own job.
    assert a.cache_key() != _job(scheme=None).cache_key()


def test_cache_key_separates_machines_sharing_a_display_name():
    # NUMA_16 and NUMA_16_BIG_L2 are both named "CC-NUMA-16"; the key
    # hashes the full config, so they must never collide.
    assert NUMA_16.name == NUMA_16_BIG_L2.name
    assert (_job(machine=NUMA_16).cache_key()
            != _job(machine=NUMA_16_BIG_L2).cache_key())


def test_cache_key_identity_of_derived_configs():
    # Two independent ParamSpace derivations with identical parameters
    # must land on the same cache entry; any parameter change must miss.
    from repro.explore import ParamSpace

    first = ParamSpace(NUMA_16).variant("l2_size", 1024 * 1024)
    second = ParamSpace(NUMA_16).variant("l2_size", 1024 * 1024)
    assert first.machine == second.machine
    assert (_job(machine=first.machine).cache_key()
            == _job(machine=second.machine).cache_key())

    other_value = ParamSpace(NUMA_16).variant("l2_size", 2 * 1024 * 1024)
    assert (_job(machine=first.machine).cache_key()
            != _job(machine=other_value.machine).cache_key())

    # Same value on a different axis is a different machine even if the
    # timing-relevant knobs could coincide.
    other_axis = ParamSpace(NUMA_16).variant("overflow_capacity", 16)
    assert (_job(machine=first.machine).cache_key()
            != _job(machine=other_axis.machine).cache_key())


def test_base_value_variant_shares_cache_key_with_base():
    # Deriving an axis's base value returns the base config itself, so
    # exploration runs reuse the figure/report pipelines' cache entries.
    from repro.explore import ParamSpace

    variant = ParamSpace(NUMA_16).variant("l2_size", 512 * 1024)
    assert variant.is_base
    assert variant.machine is NUMA_16
    assert (_job(machine=variant.machine).cache_key()
            == _job(machine=NUMA_16).cache_key())


def test_cache_key_includes_engine_version(monkeypatch):
    import repro.runner.jobs as jobs_mod

    before = _job().cache_key()
    monkeypatch.setattr(jobs_mod, "ENGINE_VERSION", "test-bump")
    assert _job().cache_key() != before


# ----------------------------------------------------------------------
# Determinism across execution modes
# ----------------------------------------------------------------------
def test_serial_pool_and_cache_replay_are_bit_identical(tmp_path):
    job = _job()
    sibling = _job(scheme=MULTI_T_MV_EAGER)

    serial = SweepRunner(jobs=1, cache=None).run(job)
    # Two pending jobs + jobs>1 + single-job chunks forces the
    # ProcessPoolExecutor path (larger chunk sizes would fall back to
    # serial for a batch this small).
    pooled = SweepRunner(jobs=2, cache=None,
                         chunk_size=1).run_many([job, sibling])[0]

    cache = ResultCache(tmp_path / "cache")
    SweepRunner(jobs=1, cache=cache).run(job)  # populate
    fresh = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
    replayed = fresh.run(job)
    assert fresh.cache.stats.hits == 1

    reference = canonical_result_bytes(serial)
    assert canonical_result_bytes(pooled) == reference
    assert canonical_result_bytes(replayed) == reference
    assert isinstance(replayed, SimulationResult)
    assert replayed.total_cycles == serial.total_cycles
    assert replayed.cycles_by_category == serial.cycles_by_category
    assert replayed.task_timings == serial.task_timings
    assert replayed.memory_image == serial.memory_image


def test_checked_job_is_deterministic_across_runs_and_replay(tmp_path):
    # The validate path: an invariant-checked job run twice in-process
    # and once through cache replay is bit-identical — the checker
    # observes the run without perturbing it.
    job = SimJob(
        machine=NUMA_16,
        workload=WorkloadSpec("Euler", seed=0, scale=SCALE),
        scheme=MULTI_T_MV_LAZY,
        check_invariants=True,
    )
    runner = SweepRunner(jobs=1, cache=None)
    first = canonical_result_bytes(runner.run(job))
    second = canonical_result_bytes(runner.run(job))

    cache = ResultCache(tmp_path)
    SweepRunner(jobs=1, cache=cache).run(job)  # populate
    fresh = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    replayed = canonical_result_bytes(fresh.run(job))
    assert fresh.cache.stats.hits == 1

    assert first == second == replayed
    # And it matches the unchecked run of the same job bit for bit.
    unchecked = _job(scheme=MULTI_T_MV_LAZY)
    assert job.cache_key() != unchecked.cache_key()
    assert canonical_result_bytes(runner.run(unchecked)) == first


def test_sequential_baseline_round_trips_through_pool_and_cache(tmp_path):
    job = _job(scheme=None)
    other = _job(app="Apsi", scheme=None)
    serial = execute_job(job)
    assert isinstance(serial, SequentialResult)

    pooled = SweepRunner(jobs=2, cache=None,
                         chunk_size=1).run_many([job, other])[0]
    cache = ResultCache(tmp_path)
    SweepRunner(jobs=1, cache=cache).run(job)
    replayed = SweepRunner(jobs=1, cache=cache).run(job)

    for result in (pooled, replayed):
        assert isinstance(result, SequentialResult)
        assert result == serial  # frozen dataclass: full value equality


def test_wall_clock_is_measured_but_excluded_from_canonical_form():
    result = execute_job(_job())
    assert result.wall_clock_seconds > 0
    assert result.events_processed > 0
    assert result.events_per_second() > 0
    payload = json.loads(canonical_result_bytes(result))
    assert "wall_clock_seconds" not in payload
    assert payload["events_processed"] == result.events_processed


# ----------------------------------------------------------------------
# Dedup and cache behavior
# ----------------------------------------------------------------------
def test_run_many_dedupes_identical_jobs(tmp_path):
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    job = _job()
    results = runner.run_many([job, _job(), job])
    assert len(results) == 3
    assert len(cache) == 1  # computed (and stored) exactly once
    b0 = canonical_result_bytes(results[0])
    assert canonical_result_bytes(results[1]) == b0
    assert canonical_result_bytes(results[2]) == b0


def test_figures_share_one_sequential_baseline(tmp_path):
    from repro.analysis.experiments import ExperimentContext

    ctx = ExperimentContext(scale=SCALE, jobs=1, cache=tmp_path / "c")
    apps = ("Euler",)
    ctx.prefetch(NUMA_16, apps, (SINGLE_T_EAGER,), sequential=True)
    stores_after_first = ctx.runner.cache.stats.stores
    # A second figure over the same (machine, app) pair: baseline and
    # scheme runs come from the memo, nothing is recomputed or restored.
    ctx.prefetch(NUMA_16, apps, (SINGLE_T_EAGER,), sequential=True)
    ctx.sequential(NUMA_16, "Euler")
    assert ctx.runner.cache.stats.stores == stores_after_first == 2


def test_corrupt_cache_entry_is_a_miss_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path)
    job = _job()
    runner = SweepRunner(jobs=1, cache=cache)
    first = runner.run(job)
    path = cache.path_for(job.cache_key())
    path.write_text("{ truncated")
    again = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    assert canonical_result_bytes(again) == canonical_result_bytes(first)
    # The recomputed result was stored back over the corrupt entry.
    assert ResultCache(tmp_path).load(job.cache_key())["total_cycles"] > 0


def test_no_cache_runner_recomputes():
    runner = SweepRunner(jobs=1, cache=None)
    job = _job()
    a = runner.run(job)
    b = runner.run(job)
    assert canonical_result_bytes(a) == canonical_result_bytes(b)


def test_experiment_context_no_cache_mode(tmp_path, monkeypatch):
    from repro.analysis.experiments import ExperimentContext

    monkeypatch.chdir(tmp_path)  # any default cache dir would land here
    ctx = ExperimentContext(scale=SCALE, jobs=1, cache=False)
    assert ctx.runner.cache is None
    result = ctx.run(NUMA_16, MULTI_T_MV_LAZY, "Euler")
    assert result.total_cycles > 0
    assert not (tmp_path / ".repro-cache").exists()


# ----------------------------------------------------------------------
# Memory tier (LRU)
# ----------------------------------------------------------------------
def test_memory_cache_lru_eviction_order():
    tier = MemoryResultCache(max_entries=3)
    for key in ("a", "b", "c"):
        tier.store(key, key.encode())
    # Touch "a": it becomes most recent, so "b" is now the LRU victim.
    assert tier.load("a") == b"a"
    tier.store("d", b"d")
    assert "b" not in tier
    assert tier.keys() == ["c", "a", "d"]
    assert tier.stats.evictions == 1
    # Another insert evicts "c" next.
    tier.store("e", b"e")
    assert "c" not in tier
    assert "a" in tier
    assert tier.stats.evictions == 2
    assert tier.load("missing") is None
    assert tier.stats.misses == 1


def test_memory_cache_refresh_does_not_evict():
    tier = MemoryResultCache(max_entries=2)
    tier.store("a", b"1")
    tier.store("b", b"2")
    tier.store("a", b"3")  # overwrite refreshes, never evicts
    assert len(tier) == 2
    assert tier.stats.evictions == 0
    assert tier.load("a") == b"3"
    assert tier.stats.stores == 2  # overwrite is not a new store
    with pytest.raises(ValueError):
        MemoryResultCache(max_entries=0)


def test_memory_disk_and_live_tiers_are_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    job = _job()
    live = runner.run(job)  # live computation, stored through both tiers
    assert job.cache_key() in runner.memory_cache

    hits_before = runner.memory_cache.stats.hits
    from_memory = runner.run(job)  # memory-tier hit, disk untouched
    assert runner.memory_cache.stats.hits == hits_before + 1
    disk_hits_before = cache.stats.hits

    fresh = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    from_disk = fresh.run(job)  # disk-tier replay (fresh memory tier)
    assert fresh.cache.stats.hits == 1
    assert cache.stats.hits == disk_hits_before
    # The disk hit was promoted into the fresh runner's memory tier.
    assert job.cache_key() in fresh.memory_cache

    reference = canonical_result_bytes(live)
    assert canonical_result_bytes(from_memory) == reference
    assert canonical_result_bytes(from_disk) == reference


def test_memory_tier_hit_returns_independent_results():
    # The tier stores serialized bytes and every call decodes its own
    # copy, so two replays of the same cell never share mutable state.
    runner = SweepRunner(jobs=1, cache=None)
    job = _job()
    first = runner.run(job)
    second = runner.run(job)
    assert first is not second
    assert canonical_result_bytes(first) == canonical_result_bytes(second)


# ----------------------------------------------------------------------
# In-flight dedup and dispatch policy
# ----------------------------------------------------------------------
def test_concurrent_run_many_computes_each_cell_once(monkeypatch):
    import repro.runner.runner as runner_mod

    counts = Counter()
    count_lock = threading.Lock()
    real_execute = runner_mod.execute_job

    def counting_execute(job):
        with count_lock:
            counts[job.cache_key()] += 1
        time.sleep(0.05)  # widen the in-flight window
        return real_execute(job)

    monkeypatch.setattr(runner_mod, "execute_job", counting_execute)
    runner = SweepRunner(jobs=1, cache=None)
    batch = [_job(), _job(scheme=MULTI_T_MV_EAGER)]
    barrier = threading.Barrier(2)
    results = [None, None]
    errors = []

    def call(slot):
        try:
            barrier.wait()
            results[slot] = runner.run_many(batch)
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Each distinct cell was simulated exactly once across both callers
    # (the second caller joined the first's in-flight computation or hit
    # the shared memory tier).
    assert len(counts) == 2
    assert all(n == 1 for n in counts.values())
    for a, b in zip(results[0], results[1]):
        assert canonical_result_bytes(a) == canonical_result_bytes(b)


def test_small_batches_skip_pool_startup(monkeypatch):
    import repro.dist.dispatch as dispatch_mod

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("pool started for a batch below one chunk")

    monkeypatch.setattr(dispatch_mod, "ProcessPoolExecutor", ExplodingPool)
    # jobs=1 always stays serial, whatever the batch size.
    runner = SweepRunner(jobs=1, cache=None)
    assert runner.run(_job()) is not None
    # jobs>1 with a batch no larger than one chunk stays serial too.
    runner = SweepRunner(jobs=4, cache=None, chunk_size=4)
    batch = [_job(), _job(scheme=MULTI_T_MV_EAGER),
             _job(scheme=SINGLE_T_EAGER)]
    results = runner.run_many(batch)
    assert len(results) == 3


def test_chunked_pool_dispatch_is_bit_identical_to_serial(tmp_path):
    batch = [
        _job(scheme=scheme, app=app)
        for scheme in (MULTI_T_MV_LAZY, MULTI_T_MV_EAGER, MULTI_T_MV_FMM)
        for app in ("Euler", "Apsi")
    ]
    serial = SweepRunner(jobs=1, cache=None).run_many(batch)
    # Six distinct cells in chunks of two across two workers.
    pooled = SweepRunner(jobs=2, cache=None, chunk_size=2).run_many(batch)
    for a, b in zip(serial, pooled):
        assert canonical_result_bytes(a) == canonical_result_bytes(b)


# ----------------------------------------------------------------------
# Trace workloads: content-addressed identity in the result cache
# ----------------------------------------------------------------------
def _trace_job(path, scheme=MULTI_T_MV_LAZY):
    from repro.workloads import TraceWorkload

    return SimJob(machine=NUMA_16, workload=TraceWorkload.open(path),
                  scheme=scheme)


def _write_storm(path, *, extra_op=False):
    from repro.tls.task import OP_READ, TaskSpec
    from repro.workloads import squash_storm, write_trace

    workload = squash_storm(24, seed=7)
    if extra_op:
        last = workload.tasks[-1]
        tasks = workload.tasks[:-1] + (
            TaskSpec(task_id=last.task_id,
                     ops=last.ops + ((OP_READ, 0x42),)),)
        workload = Workload(
            name=workload.name, tasks=tasks,
            priv_predicate_base=workload.priv_predicate_base,
            priv_predicate_limit=workload.priv_predicate_limit,
            description=workload.description)
    return write_trace(path, workload, meta={"generator": "squash-storm",
                                             "seed": "7"})


def test_trace_identity_is_content_not_filename(tmp_path):
    # Identical content under two different filenames: one cache entry.
    _write_storm(tmp_path / "a.tlstrace")
    _write_storm(tmp_path / "copy-of-a.tlstrace")
    job_a = _trace_job(tmp_path / "a.tlstrace")
    job_b = _trace_job(tmp_path / "copy-of-a.tlstrace")
    assert job_a.cache_key() == job_b.cache_key()

    cache = ResultCache(tmp_path / "cache")
    runner = SweepRunner(jobs=1, cache=cache)
    first = runner.run(job_a)
    hits_before = runner.memory_cache.stats.hits
    second = runner.run(job_b)  # different file, same content: a hit
    assert runner.memory_cache.stats.hits == hits_before + 1
    assert canonical_result_bytes(first) == canonical_result_bytes(second)


def test_one_op_edit_misses_the_cache(tmp_path):
    _write_storm(tmp_path / "a.tlstrace")
    _write_storm(tmp_path / "b.tlstrace", extra_op=True)
    job_a = _trace_job(tmp_path / "a.tlstrace")
    job_b = _trace_job(tmp_path / "b.tlstrace")
    assert job_a.workload.digest != job_b.workload.digest
    assert job_a.cache_key() != job_b.cache_key()
    # And the scheme still differentiates jobs over one trace.
    assert (job_a.cache_key()
            != _trace_job(tmp_path / "a.tlstrace",
                          scheme=MULTI_T_MV_EAGER).cache_key())


def test_warm_cache_trace_replay_is_bit_identical(tmp_path):
    _write_storm(tmp_path / "a.tlstrace")
    job = _trace_job(tmp_path / "a.tlstrace")
    cold = SweepRunner(jobs=1, cache=None).run(job)
    cache = ResultCache(tmp_path / "cache")
    SweepRunner(jobs=1, cache=cache).run(job)  # populate disk tier
    warm_runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
    warm = warm_runner.run(job)
    assert warm_runner.cache.stats.hits == 1
    assert canonical_result_bytes(warm) == canonical_result_bytes(cold)


def test_trace_job_survives_the_process_pool(tmp_path):
    _write_storm(tmp_path / "a.tlstrace")
    job = _trace_job(tmp_path / "a.tlstrace")
    serial = SweepRunner(jobs=1, cache=None).run(job)
    pooled = SweepRunner(jobs=2, cache=None, chunk_size=1).run_many(
        [job, SimJob(machine=NUMA_16, workload=job.workload,
                     scheme=MULTI_T_MV_EAGER)])
    assert canonical_result_bytes(pooled[0]) == canonical_result_bytes(serial)


def test_stale_trace_reference_is_refused(tmp_path):
    from repro.errors import TraceFormatError
    from repro.workloads.trace import _DECODED

    _write_storm(tmp_path / "a.tlstrace")
    job = _trace_job(tmp_path / "a.tlstrace")
    _write_storm(tmp_path / "a.tlstrace", extra_op=True)  # edited on disk
    _DECODED.clear()  # force re-read: the memo would otherwise serve it
    with pytest.raises(TraceFormatError, match="changed on disk"):
        job.resolve_workload()


# ----------------------------------------------------------------------
# The warm path: one key per job object, one job object per cell
# ----------------------------------------------------------------------
FIGURE_SCALE = 0.03
FIGURES = ("run_figure9", "run_figure10", "run_figure11")


def _figure_grid(scale=FIGURE_SCALE):
    """The 113 distinct cells of Figures 9-11, built from scratch."""
    from repro.core.taxonomy import AMM_SCHEMES, MULTI_T_MV_FMM_SW
    from repro.workloads.apps import APPLICATION_ORDER

    def cells(machine, schemes, apps=APPLICATION_ORDER):
        return [SimJob(machine=machine, scheme=scheme,
                       workload=WorkloadSpec(app, scale=scale))
                for app in apps for scheme in schemes]

    return (cells(NUMA_16, (None,) + AMM_SCHEMES)
            + cells(CMP_8, (None,) + AMM_SCHEMES)
            + cells(NUMA_16, (MULTI_T_MV_FMM, MULTI_T_MV_FMM_SW))
            + cells(NUMA_16_BIG_L2, (MULTI_T_MV_LAZY,), apps=("P3m",)))


@pytest.fixture(scope="module")
def warm_figure_runner():
    """A runner whose memory tier holds every cell of Figures 9-11."""
    from repro.analysis import experiments

    runner = SweepRunner(jobs=1, cache=None)
    ctx = experiments.ExperimentContext(scale=FIGURE_SCALE, runner=runner)
    for figure in FIGURES:
        getattr(experiments, figure)(ctx)
    return runner


def test_memoized_key_is_the_fresh_derivation_and_stays_out_of_pickles():
    import hashlib
    import pickle

    jobs = _figure_grid()
    keys = set()
    for job in jobs:
        unkeyed = pickle.dumps(job)
        key = job.cache_key()
        assert job.cache_key() is key  # memoized on the instance
        fresh = hashlib.sha256(json.dumps(job.identity(), sort_keys=True)
                               .encode()).hexdigest()
        assert key == fresh
        assert pickle.dumps(job) == unkeyed
        assert pickle.loads(unkeyed).cache_key() == key
        keys.add(key)
    assert len(keys) == len(jobs) == 113


def test_warm_figures_derive_each_cell_key_once(warm_figure_runner,
                                                monkeypatch):
    from repro.analysis import experiments

    runner = warm_figure_runner
    assert len(runner.memory_cache) == 113
    calls = Counter()
    real_identity = SimJob.identity

    def counting_identity(job):
        calls[job.describe()] += 1
        return real_identity(job)

    monkeypatch.setattr(SimJob, "identity", counting_identity)
    misses = runner.memory_cache.stats.misses
    ctx = experiments.ExperimentContext(scale=FIGURE_SCALE, runner=runner)
    for figure in FIGURES:
        getattr(experiments, figure)(ctx)
    assert runner.memory_cache.stats.misses == misses  # all warm
    assert sum(calls.values()) <= 113
    # One job per machine *object*: NUMA_16 and NUMA_16_BIG_L2 share a
    # display name but are two cells (and two keys).
    assert NUMA_16.name == NUMA_16_BIG_L2.name
    assert (ctx._job(NUMA_16, MULTI_T_MV_LAZY, "P3m")
            is not ctx._job(NUMA_16_BIG_L2, MULTI_T_MV_LAZY, "P3m"))
    assert ctx._job(NUMA_16, None, "P3m") is ctx._job(NUMA_16, None, "P3m")


def test_result_from_payload_leaves_its_argument_unchanged():
    import copy

    from repro.runner import payload_from_result, result_from_payload

    job = SimJob(machine=NUMA_16, scheme=MULTI_T_MV_LAZY,
                 workload=WorkloadSpec("Euler", scale=FIGURE_SCALE),
                 collect_metrics=True)
    payload = payload_from_result(execute_job(job))
    assert "metrics" in payload
    before = copy.deepcopy(payload)
    result = result_from_payload(payload)
    assert payload == before
    assert result.metrics is not None
    assert result.metrics.to_dict() == payload["metrics"]


# ----------------------------------------------------------------------
# Self-verifying entries and deferred heavy fields
# ----------------------------------------------------------------------
def _live_digest(result):
    """SHA-256 of a live result's canonical bytes (sorted-key payload
    JSON for a sequential baseline)."""
    import hashlib

    from repro.analysis.serialization import sequential_result_to_dict

    if isinstance(result, SequentialResult):
        blob = json.dumps(sequential_result_to_dict(result),
                          sort_keys=True).encode()
    else:
        blob = canonical_result_bytes(result)
    return hashlib.sha256(blob).hexdigest()


def _unparsed(result):
    names = type(result).DEFERRED_FIELDS
    return not any(name in vars(result) for name in names)


@pytest.fixture(scope="module")
def figure_cache(tmp_path_factory, warm_figure_runner):
    """A disk cache holding every cell of Figures 9-11: the entries the
    serial path built for ``warm_figure_runner``."""
    root = tmp_path_factory.mktemp("figure-cache")
    cache = ResultCache(root)
    memory = warm_figure_runner.memory_cache
    for key in memory.keys():
        cache.store_raw(key, memory.load(key))
    return root


def test_entry_digest_is_the_canonical_digest_of_every_figure_cell(
        figure_cache):
    from repro.runner import canonical_payload_digest
    from repro.runner.entry import check_entry, entry_body, entry_digest

    cache = ResultCache(figure_cache)
    jobs = _figure_grid()
    assert len(cache) == len(jobs) == 113
    for job in jobs:
        raw = cache.load_raw(job.cache_key())
        check_entry(raw)
        live = _live_digest(execute_job(job))
        assert entry_digest(raw) == live, job.describe()
        assert canonical_payload_digest(bytes(entry_body(raw))) == live


def test_warm_figures_leave_heavy_fields_unparsed(figure_cache):
    from repro.analysis import experiments
    from repro.runner import result_from_payload
    from repro.runner.entry import entry_body

    runner = SweepRunner(jobs=1, cache=ResultCache(figure_cache))
    passes = []
    for _tier in ("disk", "memory"):
        ctx = experiments.ExperimentContext(scale=FIGURE_SCALE,
                                            runner=runner)
        for figure in FIGURES:
            getattr(experiments, figure)(ctx)
        passes.append(dict(ctx._results))
    assert runner.cache.stats.hits == 113
    assert runner.memory_cache.stats.hits == 113
    for results in passes:
        assert len(results) == 113
        assert all(_unparsed(result) for result in results.values())
    cache = ResultCache(figure_cache)
    for results in passes:
        for key, deferred in results.items():
            body = bytes(entry_body(cache.load_raw(key)))
            eager = result_from_payload(json.loads(body))
            assert not _unparsed(eager)
            assert _live_digest(deferred) == _live_digest(eager)
            assert not _unparsed(deferred)
            assert deferred == eager


@pytest.mark.parametrize("scheme", [MULTI_T_MV_LAZY, None])
def test_deferred_fields_behave_like_eager_ones(scheme):
    import dataclasses
    import pickle

    from repro.runner import payload_from_result
    from repro.runner.entry import encode_entry
    from repro.runner.runner import decode_payload

    live = execute_job(_job(scheme=scheme))
    raw = encode_entry(payload_from_result(live))

    assert decode_payload(raw) == live
    assert decode_payload(raw) != dataclasses.replace(
        live, total_cycles=live.total_cycles + 1)

    replaced = dataclasses.replace(decode_payload(raw),
                                   total_cycles=live.total_cycles + 1)
    assert replaced.memory_image == live.memory_image
    assert replaced == dataclasses.replace(
        live, total_cycles=live.total_cycles + 1)

    deferred = decode_payload(raw)
    restored = pickle.loads(pickle.dumps(deferred))
    assert not _unparsed(restored)
    assert "_pending" not in vars(restored)
    assert restored == live
    assert _live_digest(restored) == _live_digest(live)

    # An assigned field keeps its value through the first parse.
    if scheme is not None:
        assigned = decode_payload(raw)
        assigned.memory_image = {}
        assert assigned.observed_reads == live.observed_reads
        assert assigned.memory_image == {}


def test_concurrent_first_access_parses_once(monkeypatch):
    import sys

    from repro.runner import payload_from_result
    from repro.runner.entry import encode_entry
    from repro.runner.runner import decode_payload

    live = execute_job(_job())
    raw = encode_entry(payload_from_result(live))
    parses = []
    real_loads = json.loads

    def slow_loads(text, *args, **kwargs):
        parses.append(len(text))
        time.sleep(0.01)  # hold each parse open for the race
        return real_loads(text, *args, **kwargs)

    names = ("memory_image", "observed_reads")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            result = decode_payload(raw)
            parses.clear()
            monkeypatch.setattr(json, "loads", slow_loads)
            barrier = threading.Barrier(8)
            seen = [None] * 8

            def read(index):
                barrier.wait()
                seen[index] = getattr(result, names[index % 2])

            threads = [threading.Thread(target=read, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            monkeypatch.setattr(json, "loads", real_loads)
            assert len(parses) == 1  # one parse served all eight threads
            for index, value in enumerate(seen):
                assert value is getattr(result, names[index % 2])
            assert result.memory_image == live.memory_image
            assert result.observed_reads == live.observed_reads
    finally:
        sys.setswitchinterval(switch)
