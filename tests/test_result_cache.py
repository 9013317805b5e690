"""The sharded shared tier: layout stability, pluggable backends, tiers.

Contracts under test (see ``repro.runner.cache``):

* the on-disk layout is ``<root>/<key[:2]>/<key>.json`` — a stable
  contract (a warm directory must survive releases and be mountable
  behind many frontends);
* :class:`ShardedResultCache` speaks payload semantics over *any*
  four-method byte store (duck-typed), not just the directory backend;
  and
* a result is bit-identical no matter which tier replays it.
"""

import json

import pytest

from repro.core.config import NUMA_16
from repro.core.taxonomy import MULTI_T_MV_LAZY
from repro.analysis.serialization import canonical_result_bytes
from repro.runner import (
    DirectoryBackend,
    MemoryResultCache,
    ResultCache,
    SHARD_PREFIX_LEN,
    ShardedResultCache,
    SimJob,
    SweepRunner,
    WorkloadSpec,
    shard_of,
)
from tests.conftest import CORRUPTIONS, FullDiskBackend, corrupt, headerless

SCALE = 0.1


def _job(app="Euler", seed=0):
    return SimJob(machine=NUMA_16,
                  workload=WorkloadSpec(app, seed=seed, scale=SCALE),
                  scheme=MULTI_T_MV_LAZY)


# ----------------------------------------------------------------------
# Shard layout stability
# ----------------------------------------------------------------------
def test_shard_of_is_the_two_hex_prefix():
    assert SHARD_PREFIX_LEN == 2
    assert shard_of("ab12cd") == "ab"


def test_directory_layout_is_root_shard_key(tmp_path):
    cache = ResultCache(tmp_path)
    key = "deadbeef" * 8
    assert cache.path_for(key) == tmp_path / "de" / f"{key}.json"


def test_path_shaped_keys_cannot_escape_the_cache_root(tmp_path):
    import pytest

    backend = DirectoryBackend(tmp_path / "cache")
    outside = tmp_path / "outside.json"
    outside.write_text('{"kind":"sequential"}')
    # A key carrying path components must be rejected outright — never
    # resolved to a path outside the root (".." traversal, or a leading
    # "/" making pathlib discard the root).
    for key in ("../outside", "/" + str(outside.with_suffix("")),
                "..", "aa/../../outside", "AA" + "0" * 62, ""):
        with pytest.raises(ValueError, match="invalid cache key"):
            backend.path_for(key)
        with pytest.raises(ValueError, match="invalid cache key"):
            backend.put(key, b"{}")
        # Read paths degrade to a miss rather than traverse.
        assert backend.get(key) is None
        assert backend.delete(key) is False
    assert outside.exists()  # nothing outside the root was touched


def test_entries_land_in_their_shards_and_enumerate(tmp_path):
    backend = DirectoryBackend(tmp_path)
    keys = {f"{i:02x}" + "0" * 62 for i in (0x00, 0x7f, 0xff)}
    for key in keys:
        backend.put(key, b'{"v":1}')
    for key in keys:
        assert (tmp_path / key[:2] / f"{key}.json").exists()
    assert set(backend.keys()) == keys
    # Stray files outside the shard layout are invisible.
    (tmp_path / "notakey.json").write_bytes(b"{}")
    assert set(backend.keys()) == keys


def test_directory_backend_get_put_delete(tmp_path):
    backend = DirectoryBackend(tmp_path)
    assert backend.get("aa" + "0" * 62) is None
    key = "ab" + "0" * 62
    backend.put(key, b"first")
    assert backend.get(key) == b"first"
    backend.put(key, b"second")  # overwrite allowed
    assert backend.get(key) == b"second"
    assert backend.delete(key) is True
    assert backend.delete(key) is False
    assert backend.get(key) is None
    assert backend.keys() == []


# ----------------------------------------------------------------------
# Pluggable backends
# ----------------------------------------------------------------------
class DictBackend:
    """A minimal in-memory backend (what a remote store would be)."""

    def __init__(self):
        self.blobs = {}

    def get(self, key):
        return self.blobs.get(key)

    def put(self, key, raw):
        self.blobs[key] = raw

    def keys(self):
        return list(self.blobs)

    def delete(self, key):
        return self.blobs.pop(key, None) is not None


def test_sharded_cache_over_a_dict_backend():
    backend = DictBackend()
    cache = ShardedResultCache(backend)
    key = "ff" + "0" * 62
    assert cache.load(key) is None
    cache.store(key, {"kind": "x", "v": 2})
    assert cache.load(key) == {"kind": "x", "v": 2}
    assert key in cache
    assert len(cache) == 1
    assert cache.stats.to_dict() == {"hits": 1, "misses": 1,
                                     "stores": 1, "evictions": 0,
                                     "store_errors": 0}
    assert cache.describe() == "DictBackend"
    assert cache.clear() == 1
    assert len(cache) == 0


def test_corrupt_backend_bytes_are_a_miss():
    backend = DictBackend()
    cache = ShardedResultCache(backend)
    backend.put("k", b"{not json")
    assert cache.load("k") is None
    assert cache.stats.misses == 1
    # load_raw is the zero-copy path: it hands back whatever is stored.
    assert cache.load_raw("k") == b"{not json"


def test_runner_accepts_a_custom_backend_tier():
    # The whole point of the protocol: the runner (and so the service)
    # can sit on a non-directory shared tier without code changes.
    backend = DictBackend()
    runner = SweepRunner(jobs=1,
                         cache=ShardedResultCache(backend))
    job = _job()
    first = runner.run(job)
    assert job.cache_key() in backend.blobs
    replay = SweepRunner(jobs=1,
                         cache=ShardedResultCache(backend)).run(job)
    assert canonical_result_bytes(first) == canonical_result_bytes(replay)


def test_result_cache_is_the_directory_sharded_tier(tmp_path):
    cache = ResultCache(tmp_path)
    assert isinstance(cache, ShardedResultCache)
    assert cache.root == tmp_path
    assert cache.describe() == f"directory:{tmp_path}"


# ----------------------------------------------------------------------
# Tier interplay and bit-identity
# ----------------------------------------------------------------------
def test_disk_hit_promotes_into_the_memory_tier(tmp_path):
    job = _job()
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)

    memory = MemoryResultCache()
    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                         memory_cache=memory)
    runner.run(job)
    key = job.cache_key()
    assert key in memory  # promoted on the disk hit
    assert runner.cache.stats.hits == 1
    # Second run is a pure memory hit: the disk tier is not consulted.
    runner.run(job)
    assert runner.cache.stats.hits == 1
    assert memory.stats.hits == 1


def test_result_is_bit_identical_through_every_tier(tmp_path):
    job = _job()
    key = job.cache_key()

    live = SweepRunner(jobs=1, cache=None).run(job)
    expected = canonical_result_bytes(live)

    # Tier 1: computed then stored, replayed from disk by a cold runner.
    disk = ResultCache(tmp_path)
    SweepRunner(jobs=1, cache=disk).run(job)
    from_disk = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    assert canonical_result_bytes(from_disk) == expected

    # Tier 2: the memory tier, fed by the same stored bytes.
    memory = MemoryResultCache()
    warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                       memory_cache=memory)
    warm.run(job)          # disk hit, promotes
    from_memory = warm.run(job)  # memory hit
    assert memory.stats.hits == 1
    assert canonical_result_bytes(from_memory) == expected

    # Tier 3: a foreign backend holding the very same bytes.
    backend = DictBackend()
    backend.put(key, ResultCache(tmp_path).load_raw(key))
    foreign = SweepRunner(jobs=1,
                          cache=ShardedResultCache(backend)).run(job)
    assert canonical_result_bytes(foreign) == expected


def test_disk_hit_is_promoted_as_the_bytes_read(tmp_path, monkeypatch):
    import repro.runner.runner as runner_mod

    jobs = [_job(), _job(seed=1)]
    reference = [canonical_result_bytes(r) for r in
                 SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run_many(jobs)]

    def no_reencode(payload):
        raise AssertionError("a disk hit was re-encoded")

    loads = []
    real_loads = json.loads

    def counting_loads(raw, *args, **kwargs):
        loads.append(raw)
        return real_loads(raw, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "encode_entry", no_reencode)
    monkeypatch.setattr(json, "loads", counting_loads)
    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    results = runner.run_many(jobs)
    assert runner.cache.stats.hits == len(jobs)
    assert len(loads) == len(jobs)  # one parse per disk hit
    assert [canonical_result_bytes(r) for r in results] == reference
    for job in jobs:
        key = job.cache_key()
        assert (runner.memory_cache.load(key)
                == ResultCache(tmp_path).path_for(key).read_bytes())


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_undecodable_entry_is_a_counted_miss_recomputed_and_overwritten(
        tmp_path, kind):
    from repro.runner.runner import decode_payload

    job = _job()
    key = job.cache_key()
    reference = canonical_result_bytes(
        SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job))
    path = ResultCache(tmp_path).path_for(key)
    bad = corrupt(path.read_bytes(), kind)
    path.write_bytes(bad)

    memory = MemoryResultCache()
    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                         memory_cache=memory)
    assert runner.lookup(key) is None
    assert key not in memory  # never promoted
    result = runner.run(job)
    assert canonical_result_bytes(result) == reference
    stats = runner.cache.stats
    assert (stats.hits, stats.misses, stats.stores) == (0, 2, 1)
    stored = path.read_bytes()
    assert stored != bad
    assert canonical_result_bytes(decode_payload(stored)) == reference
    assert memory.load(key) == stored


def test_headerless_entry_is_served_and_upgraded_once(tmp_path):
    from repro.runner.entry import check_entry, is_entry

    job = _job()
    key = job.cache_key()
    fresh = SweepRunner(jobs=1, cache=None).run(job)
    reference = canonical_result_bytes(fresh)
    path = ResultCache(tmp_path).path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(headerless(fresh))

    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    assert canonical_result_bytes(runner.run(job)) == reference
    stats = runner.cache.stats
    assert (stats.hits, stats.misses, stats.stores) == (1, 0, 1)
    upgraded = path.read_bytes()
    assert is_entry(upgraded)
    check_entry(upgraded)
    assert runner.memory_cache.load(key) == upgraded

    # The second read takes the entry path: no decode of the whole
    # payload, no rewrite.
    again = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    result = again.run(job)
    assert "memory_image" not in vars(result)  # left unparsed
    assert canonical_result_bytes(result) == reference
    assert (again.cache.stats.hits, again.cache.stats.stores) == (1, 0)
    assert path.read_bytes() == upgraded


def test_headerless_entry_is_served_when_its_upgrade_cannot_be_written(
        tmp_path):
    from repro.runner.entry import is_entry

    job = _job()
    fresh = SweepRunner(jobs=1, cache=None).run(job)
    legacy = headerless(fresh)
    path = ResultCache(tmp_path).path_for(job.cache_key())
    path.parent.mkdir(parents=True)
    path.write_bytes(legacy)

    cache = ShardedResultCache(FullDiskBackend(tmp_path))
    runner = SweepRunner(jobs=1, cache=cache)
    result = runner.run(job)
    assert canonical_result_bytes(result) == canonical_result_bytes(fresh)
    assert (cache.stats.hits, cache.stats.stores,
            cache.stats.store_errors) == (1, 0, 1)
    assert path.read_bytes() == legacy
    assert is_entry(runner.memory_cache.load(job.cache_key()))


def test_concurrent_writers_never_expose_a_torn_entry(tmp_path):
    import threading
    import time

    from repro.runner import execute_job, payload_from_result
    from repro.runner.entry import check_entry, encode_entry

    entries = [encode_entry(payload_from_result(execute_job(job)))
               for job in (_job(), _job(seed=1))]
    assert entries[0] != entries[1]
    backend = DirectoryBackend(tmp_path)
    key = "ab" * 32
    backend.put(key, entries[0])
    stop = threading.Event()

    def writer(index):
        while not stop.is_set():
            backend.put(key, entries[index % 2])
            index += 1

    writers = [threading.Thread(target=writer, args=(index,))
               for index in range(8)]
    for thread in writers:
        thread.start()
    reads = 0
    try:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            raw = backend.get(key)
            assert raw in entries  # complete: one writer's whole entry
            check_entry(raw)
            reads += 1
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in writers)
    assert reads > 0
    assert list(tmp_path.glob("*/*.tmp")) == []


def test_memory_tier_survives_readers_beside_an_evicting_writer():
    # `serve` reads the tier on its event loop while executor threads
    # store into it: a store that evicts the key a load has just found
    # must not break that load, and two readers' counts must not be
    # lost (three threads on the two-CPU hosts CI runs on).
    import sys
    import threading

    tier = MemoryResultCache(max_entries=2)
    keys = ["0a", "0b", "0c"]
    stop = threading.Event()
    errors = []
    loads = [0, 0]

    def reader(index):
        try:
            while not stop.is_set():
                for key in keys:
                    tier.load(key)
                    loads[index] += 1
        except Exception as exc:
            errors.append(exc)
            stop.set()

    def writer():
        while not stop.is_set():
            for key in keys:
                tier.store(key, b"entry")

    threads = [threading.Thread(target=reader, args=(index,))
               for index in range(2)] + [threading.Thread(target=writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        stop.wait(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(loads)
    assert tier.stats.hits + tier.stats.misses == sum(loads)


def test_raw_and_decoded_paths_see_the_same_payload(tmp_path):
    from repro.runner.entry import check_entry, entry_body

    cache = ResultCache(tmp_path)
    key = "ee" + "0" * 62
    payload = {"kind": "demo", "values": [1, 2, 3]}
    cache.store(key, payload)
    raw = cache.load_raw(key)
    check_entry(raw)
    assert json.loads(bytes(entry_body(raw))) == payload
    assert cache.load(key) == payload


def test_decoded_path_still_reads_a_headerless_payload(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ed" + "0" * 62
    payload = {"kind": "demo", "values": [4]}
    cache.store_raw(key, json.dumps(payload).encode())
    assert cache.load(key) == payload


def test_decoded_path_reads_and_checks_entries(tmp_path):
    from repro.runner.entry import encode_entry

    cache = ResultCache(tmp_path)
    key = "ef" + "0" * 62
    payload = {"kind": "demo", "memory_image": {"1": 2}, "values": [3]}
    cache.store_raw(key, encode_entry(payload))
    assert cache.load(key) == payload
    cache.store_raw(key, corrupt(encode_entry(payload), "header-flip"))
    assert cache.load(key) is None
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)


# ----------------------------------------------------------------------
# A failing shared tier
# ----------------------------------------------------------------------
def test_full_disk_degrades_to_computed_not_cached(tmp_path):
    jobs = [_job(), _job(seed=1)]
    reference = [canonical_result_bytes(r)
                 for r in SweepRunner(jobs=1, cache=None).run_many(jobs)]
    cache = ShardedResultCache(FullDiskBackend(tmp_path))
    # Two pending cells in one-job chunks take the process-pool path.
    runner = SweepRunner(jobs=2, cache=cache, chunk_size=1)
    results = runner.run_many(jobs)
    assert [canonical_result_bytes(r) for r in results] == reference
    assert cache.stats.store_errors == 2
    assert cache.stats.stores == 0
    assert len(cache) == 0
    assert all(job.cache_key() in runner.memory_cache for job in jobs)
    assert len(runner.flights) == 0
    pool = runner.dispatcher.stats
    assert (pool.pool_batches, pool.pool_failures, pool.serial_batches) \
        == (1, 0, 0)
