"""Lock-step tests for the engine's plain cache-line and directory records.

Two structures are exercised here against plain references:

* :class:`repro.memsys.cache.VersionCache` — the fused hot-path
  :meth:`~repro.memsys.cache.VersionCache.install` must be
  operation-for-operation equivalent to constructing a
  :class:`~repro.memsys.cache.CacheLine` and calling :meth:`insert`
  (same flag merging, LRU victim, statistics), and every resident record
  must be reachable through each of the cache's three indexes
  (``lines``, its set list, ``_by_task``) after any operation stream.
  A record keeps its identity while resident, and a displaced victim
  keeps its field values after it leaves the cache.
* :class:`repro.tls.versions.VersionDirectory` — the per-word records
  (``words``) must answer every protocol query exactly like an
  unoptimized per-word two-dict reference.

The engine's batched drain loop reads and writes these records directly
in its inlined fast paths, so a divergence here is a bit-identity bug
even if the public API still looks healthy.
"""

from bisect import bisect_right, insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheGeometry
from repro.memsys.cache import ARCH_TASK_ID, KEY_BIAS, KEY_SHIFT, CacheLine, VersionCache
from repro.tls.versions import VersionDirectory

N_SETS = 4
ASSOC = 2
GEOMETRY = CacheGeometry(size_bytes=N_SETS * ASSOC * 64, assoc=ASSOC)

LINES = [0, 1, 2, 3, 4, 5, 8, 12]
TASKS = [ARCH_TASK_ID, 0, 1, 2, 3]


# ----------------------------------------------------------------------
# Cache: fused install() vs reference insert(CacheLine(...))
# ----------------------------------------------------------------------

CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(LINES),
                  st.sampled_from(TASKS), st.booleans(), st.booleans()),
        st.tuples(st.just("find"), st.sampled_from(LINES),
                  st.sampled_from(TASKS)),
        st.tuples(st.just("mark_committed"), st.sampled_from(TASKS)),
        st.tuples(st.just("drain_clean"), st.sampled_from(TASKS)),
        st.tuples(st.just("invalidate"), st.sampled_from(TASKS)),
    ),
    min_size=0, max_size=60,
)


def _snapshot(cache):
    """Observable state: every resident (line, task) with its flags."""
    return sorted(
        (e.line_addr, e.task_id, e.dirty, e.committed, e.last_touch)
        for e in cache
    )


def _stats_tuple(cache):
    s = cache.stats
    return (s.hits, s.misses, s.displacements,
            s.speculative_displacements, s.committed_dirty_displacements,
            s.peak_resident_lines)


def _check_indexes(cache):
    """Every resident record is the same object in each of the indexes."""
    resident = list(cache)
    for entry in resident:
        key = (entry.line_addr << KEY_SHIFT) + entry.task_id + KEY_BIAS
        assert cache.lines[key] is entry
        cache_set = cache._sets[cache.set_index(entry.line_addr)]
        assert any(e is entry for e in cache_set)
        assert cache._by_task[entry.task_id][entry.line_addr] is entry
    assert len(resident) == len(cache) == len(cache.lines)
    assert sum(len(lines) for lines in cache._by_task.values()) == len(cache)


@settings(max_examples=150, deadline=None)
@given(CACHE_OPS)
def test_install_lockstep_with_insert(ops):
    fused = VersionCache(GEOMETRY, name="fused")
    reference = VersionCache(GEOMETRY, name="reference")
    clock = 0.0
    for op in ops:
        clock += 1.0
        if op[0] == "install":
            _tag, line, task, dirty, committed = op
            victim_a = fused.install(line, task, dirty=dirty,
                                     committed=committed, now=clock)
            victim_b = reference.insert(
                CacheLine(line, task, dirty=dirty, committed=committed),
                clock)
            assert (victim_a is None) == (victim_b is None)
            if victim_a is not None:
                assert (victim_a.line_addr, victim_a.task_id,
                        victim_a.dirty, victim_a.committed,
                        victim_a.last_touch) == (
                    victim_b.line_addr, victim_b.task_id,
                    victim_b.dirty, victim_b.committed,
                    victim_b.last_touch)
        elif op[0] == "find":
            _tag, line, task = op
            hit_a = fused.find(line, task)
            hit_b = reference.find(line, task)
            assert (hit_a is None) == (hit_b is None)
            if hit_a is not None:
                fused.touch(hit_a, clock)
                reference.touch(hit_b, clock)
        elif op[0] == "mark_committed":
            marked_a = fused.mark_committed(op[1])
            marked_b = reference.mark_committed(op[1])
            assert len(marked_a) == len(marked_b)
        elif op[0] == "drain_clean":
            drained_a = fused.drain_task(op[1], clean=True)
            drained_b = reference.drain_task(op[1], clean=True)
            assert len(drained_a) == len(drained_b)
        else:  # invalidate
            assert (fused.invalidate_task(op[1])
                    == reference.invalidate_task(op[1]))
        assert _snapshot(fused) == _snapshot(reference)
        assert _stats_tuple(fused) == _stats_tuple(reference)
        for line in LINES:
            assert fused.version_count(line) == reference.version_count(line)
        _check_indexes(fused)
        _check_indexes(reference)


@settings(max_examples=100, deadline=None)
@given(CACHE_OPS)
def test_find_returns_interned_identity(ops):
    """find() must return the same record object until removal."""
    cache = VersionCache(GEOMETRY)
    clock = 0.0
    for op in ops:
        clock += 1.0
        if op[0] == "install":
            _tag, line, task, dirty, committed = op
            before = cache.find(line, task)
            cache.install(line, task, dirty=dirty, committed=committed,
                          now=clock)
            after = cache.find(line, task)
            assert after is not None
            if before is not None:
                # Re-installing an existing version keeps the object.
                assert after is before
        elif op[0] == "invalidate":
            dropped = cache.lines_of_task(op[1])
            cache.invalidate_task(op[1])
            for entry in dropped:
                assert cache.find(entry.line_addr, entry.task_id) is not entry


def _fields(entry):
    return (entry.line_addr, entry.task_id, entry.dirty, entry.committed,
            entry.last_touch)


def test_victim_keeps_its_fields_and_reinstalling_makes_a_new_record():
    """A displaced record is left alone by later traffic through its set."""
    cache = VersionCache(GEOMETRY)
    # Three versions into one set (lines differ by N_SETS): two ways.
    cache.install(0, 1, dirty=True, committed=False, now=1.0)
    cache.install(N_SETS, 2, dirty=False, committed=True, now=2.0)
    victim = cache.install(2 * N_SETS, 3, dirty=True, committed=True,
                           now=3.0)
    assert _fields(victim) == (0, 1, True, False, 1.0)
    # Later installs, touches and bulk ops in the victim's set.
    cache.install(N_SETS, 2, dirty=True, committed=False, now=4.0)
    cache.install(3 * N_SETS, 1, dirty=False, committed=False, now=5.0)
    cache.mark_committed(1)
    cache.drain_task(3, clean=True)
    cache.install(4 * N_SETS, ARCH_TASK_ID, dirty=True, committed=True,
                  now=6.0)
    assert _fields(victim) == (0, 1, True, False, 1.0)
    # Re-installing the victim's key builds a new record.
    cache.install(0, 1, dirty=False, committed=True, now=7.0)
    again = cache.find(0, 1)
    assert again is not None and again is not victim
    assert _fields(again) == (0, 1, False, True, 7.0)
    assert _fields(victim) == (0, 1, True, False, 1.0)


# ----------------------------------------------------------------------
# Directory: per-word records vs per-word two-dict reference
# ----------------------------------------------------------------------

class ReferenceDirectory:
    """v2-semantics reference: two independent per-word dicts."""

    def __init__(self):
        self.producers = {}
        self.readers = {}
        self.reads = 0
        self.writes = 0
        self.violations = 0
        self.forwarded_reads = 0

    def version_for_read(self, word, reader):
        producers = self.producers.get(word, [])
        idx = bisect_right(producers, reader)
        return producers[idx - 1] if idx else ARCH_TASK_ID

    def record_read(self, word, reader, seen):
        self.reads += 1
        if seen == reader:
            return
        if seen != ARCH_TASK_ID:
            self.forwarded_reads += 1
        readers = self.readers.setdefault(word, {})
        previous = readers.get(reader)
        if previous is None or seen < previous:
            readers[reader] = seen

    def record_write(self, word, producer):
        self.writes += 1
        producers = self.producers.setdefault(word, [])
        idx = bisect_right(producers, producer)
        if idx == 0 or producers[idx - 1] != producer:
            insort(producers, producer)
        violated = sorted(
            reader for reader, seen in self.readers.get(word, {}).items()
            if reader > producer and seen < producer
        )
        if violated:
            self.violations += 1
        return violated

    def purge_task(self, task, written, read):
        for word in written:
            producers = self.producers.get(word)
            if producers:
                idx = bisect_right(producers, task)
                if idx and producers[idx - 1] == task:
                    producers.pop(idx - 1)
        for word in read:
            self.readers.get(word, {}).pop(task, None)

    def forget_reader(self, task):
        for readers in self.readers.values():
            readers.pop(task, None)

    def final_image(self):
        return {word: producers[-1]
                for word, producers in self.producers.items() if producers}

    def words_written(self):
        return {word for word, producers in self.producers.items()
                if producers}


WORDS = list(range(8))
DIR_TASKS = list(range(5))

DIR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.sampled_from(WORDS),
                  st.sampled_from(DIR_TASKS)),
        st.tuples(st.just("write"), st.sampled_from(WORDS),
                  st.sampled_from(DIR_TASKS)),
        st.tuples(st.just("purge"), st.sampled_from(DIR_TASKS)),
        st.tuples(st.just("forget"), st.sampled_from(DIR_TASKS)),
    ),
    min_size=0, max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(DIR_OPS)
def test_directory_rows_lockstep_with_reference(ops):
    directory = VersionDirectory()
    reference = ReferenceDirectory()
    for op in ops:
        if op[0] == "read":
            _tag, word, reader = op
            version = directory.version_for_read(word, reader)
            assert version == reference.version_for_read(word, reader)
            directory.record_read(word, reader, version)
            reference.record_read(word, reader, version)
        elif op[0] == "write":
            _tag, word, producer = op
            assert (directory.record_write(word, producer)
                    == reference.record_write(word, producer))
        elif op[0] == "purge":
            task = op[1]
            written = reference.words_written()
            read = set(WORDS)
            directory.purge_task(task, written, read)
            reference.purge_task(task, written, read)
        else:  # forget
            directory.forget_reader(op[1])
            reference.forget_reader(op[1])
        stats = directory.stats
        assert (stats.reads, stats.writes, stats.violations,
                stats.forwarded_reads) == (
            reference.reads, reference.writes, reference.violations,
            reference.forwarded_reads)
        for word in WORDS:
            assert (directory.producers_of(word)
                    == reference.producers.get(word, []))
            for bound in DIR_TASKS:
                assert (directory.latest_version_at_most(word, bound)
                        == reference.version_for_read(word, bound))
        assert directory.final_image() == reference.final_image()
        assert directory.words_written() == reference.words_written()
