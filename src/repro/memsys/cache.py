"""Set-associative version cache with per-line task-ID tags (CTID).

This is the paper's buffering substrate: a cache whose lines are tagged with
the producer task's ID, so that one cache can hold state from several
speculative tasks and — under MultiT&MV — several versions of the same line
(same address tag, different task ID, occupying different ways of the same
set, as in Cintra00 and Steffan97&00).

The cache is a *timing and capacity* model: which versions exist and which
one a reader must receive is decided by the global
:class:`~repro.tls.versions.VersionDirectory`; this class answers whether a
given version is locally resident, and applies LRU replacement so that
version pressure on a set produces displacements (the effect that hurts P3m
under AMM in Figure 10).

Storage layout (engine-core v3): resident state lives in flat parallel
*slot columns*, preallocated to the cache's line capacity —

* ``_key_slot`` — one dict from the packed ``(line_addr, task_id)`` tag
  (see :data:`KEY_SHIFT`) to the slot index: the single probe behind
  :meth:`find` and the engine's inline L1 read-hit path;
* ``_dirty`` / ``_committed`` — ``bytearray`` flag columns;
* ``_touch`` — the LRU timestamp column (what a hit actually writes);
* ``_line`` / ``_task`` / ``_view`` — the reverse mapping from a slot to
  its address tag and its :class:`CacheLine` view object.

:class:`CacheLine` doubles as the *view*: while resident, its ``dirty`` /
``committed`` / ``last_touch`` properties read and write the columns of the
owning cache, so hooks, invariant checkers, and the engine's slow paths
keep mutating entry objects exactly as before; on displacement the column
values are copied back and the object detaches, which makes victims stable
snapshots even after their slot is reused. Object identity is preserved:
:meth:`insert` interns the caller's instance, and :meth:`find` returns that
same instance until it is removed.

The per-set insertion-ordered lists (LRU tie-break by list position) and
``_by_task`` (per-task bulk-op index) survive from v2 — they organize the
*views*; the columns carry the hot fields. The v2 per-address version map
is gone: all versions of a line live in one set, so :meth:`entries` and
:meth:`version_count` scan at most ``assoc`` elements instead of paying
a third index on every link/unlink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.config import CacheGeometry
from repro.errors import SimulationError

#: Task ID used to tag architectural (committed-to-memory) data fetched into
#: a cache in its traditional role as an extension of main memory.
ARCH_TASK_ID = -1

#: Packed residency key: ``(line_addr << KEY_SHIFT) + task_id + KEY_BIAS``.
#: The bias maps :data:`ARCH_TASK_ID` (-1) to a non-negative field; the
#: shift bounds task IDs at ``2**KEY_SHIFT - KEY_BIAS`` (~4.2M, far above
#: any workload's task count). Python ints are unbounded, so large line
#: addresses cannot collide with the task field.
KEY_SHIFT = 22
KEY_BIAS = 2


class CacheLine:
    """One line version: a resident *view* or a detached snapshot.

    ``task_id`` is the CTID tag: the producer task of this version, or
    :data:`ARCH_TASK_ID` for architectural data. ``committed`` is set when
    the producer commits (Lazy AMM keeps such lines resident and incoherent
    until merged). ``dirty`` lines carry state that must not be silently
    dropped unless the scheme says so.

    While interned in a :class:`VersionCache` the mutable fields live in
    that cache's slot columns and the properties delegate; detached
    instances (freshly constructed, or displaced victims) carry their own
    values.
    """

    __slots__ = ("line_addr", "task_id", "_dirty", "_committed", "_touch",
                 "_cache", "_slot")

    def __init__(self, line_addr: int, task_id: int, dirty: bool = False,
                 committed: bool = False, last_touch: float = 0.0) -> None:
        self.line_addr = line_addr
        self.task_id = task_id
        self._dirty = dirty
        self._committed = committed
        self._touch = last_touch
        self._cache: VersionCache | None = None
        self._slot = -1

    @property
    def dirty(self) -> bool:
        cache = self._cache
        if cache is not None:
            return bool(cache._dirty[self._slot])
        return self._dirty

    @dirty.setter
    def dirty(self, value: bool) -> None:
        cache = self._cache
        if cache is not None:
            cache._dirty[self._slot] = 1 if value else 0
        else:
            self._dirty = value

    @property
    def committed(self) -> bool:
        cache = self._cache
        if cache is not None:
            return bool(cache._committed[self._slot])
        return self._committed

    @committed.setter
    def committed(self, value: bool) -> None:
        cache = self._cache
        if cache is not None:
            cache._committed[self._slot] = 1 if value else 0
        else:
            self._committed = value

    @property
    def last_touch(self) -> float:
        cache = self._cache
        if cache is not None:
            return cache._touch[self._slot]
        return self._touch

    @last_touch.setter
    def last_touch(self, value: float) -> None:
        cache = self._cache
        if cache is not None:
            cache._touch[self._slot] = value
        else:
            self._touch = value

    @property
    def speculative(self) -> bool:
        """True while the line holds uncommitted, non-architectural state."""
        return self.task_id != ARCH_TASK_ID and not self.committed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheLine):
            return NotImplemented
        return (self.line_addr == other.line_addr
                and self.task_id == other.task_id
                and self.dirty == other.dirty
                and self.committed == other.committed
                and self.last_touch == other.last_touch)

    def __repr__(self) -> str:
        return (f"CacheLine(line_addr={self.line_addr}, "
                f"task_id={self.task_id}, dirty={self.dirty}, "
                f"committed={self.committed}, last_touch={self.last_touch})")


@dataclass
class CacheStats:
    """Aggregate counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    displacements: int = 0
    speculative_displacements: int = 0
    committed_dirty_displacements: int = 0
    peak_resident_lines: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


_EMPTY: dict = {}


class VersionCache:
    """A set-associative cache of :class:`CacheLine` versions.

    ``multi_version`` controls whether two versions of the same line address
    (different task IDs) may be resident simultaneously; MultiT&MV schemes
    enable it, SingleT/MultiT&SV schemes disable it for *speculative*
    versions (a committed version and one speculative version may still
    coexist, as in the Speculative Versioning Cache).
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._set_mask = geometry.n_sets - 1
        #: Per-set LRU lists, allocated on a set's first use: geometries
        #: with thousands of sets would otherwise pay for thousands of
        #: empty lists per construction (384 caches per 12-run bench).
        self._sets: list[list[CacheLine] | None] = [None] * geometry.n_sets
        #: task_id -> {line_addr: entry}; a task has at most one version
        #: of a line per cache, so the line address is a unique key.
        self._by_task: dict[int, dict[int, CacheLine]] = {}
        # Flat slot columns (engine-core v3). They grow on demand up to
        # the peak residency, which the set capacities bound at
        # n_sets * assoc; freed slots are recycled through the free list.
        self._key_slot: dict[int, int] = {}
        self._dirty = bytearray()
        self._committed = bytearray()
        self._touch: list[float] = []
        self._view: list[CacheLine | None] = []
        self._free: list[int] = []
        self._resident = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _link(self, entry: CacheLine, cache_set: list[CacheLine]) -> None:
        """Intern a new resident entry: claim a slot, join all indexes."""
        free = self._free
        if free:
            slot = free.pop()
            self._dirty[slot] = 1 if entry._dirty else 0
            self._committed[slot] = 1 if entry._committed else 0
            self._touch[slot] = entry._touch
            self._view[slot] = entry
        else:
            slot = len(self._view)
            self._dirty.append(1 if entry._dirty else 0)
            self._committed.append(1 if entry._committed else 0)
            self._touch.append(entry._touch)
            self._view.append(entry)
        entry._cache = self
        entry._slot = slot
        self._key_slot[
            (entry.line_addr << KEY_SHIFT) + entry.task_id + KEY_BIAS] = slot
        cache_set.append(entry)
        task_lines = self._by_task.get(entry.task_id)
        if task_lines is None:
            self._by_task[entry.task_id] = {entry.line_addr: entry}
        else:
            task_lines[entry.line_addr] = entry
        self._resident += 1

    def _unlink(self, entry: CacheLine, cache_set: list[CacheLine]) -> None:
        """Detach a resident entry: snapshot its columns, free its slot."""
        slot = entry._slot
        entry._dirty = bool(self._dirty[slot])
        entry._committed = bool(self._committed[slot])
        entry._touch = self._touch[slot]
        entry._cache = None
        entry._slot = -1
        self._view[slot] = None
        self._free.append(slot)
        del self._key_slot[
            (entry.line_addr << KEY_SHIFT) + entry.task_id + KEY_BIAS]
        # Remove by identity: __eq__ is value-based and reads the columns,
        # so list.remove would cost several property reads per element.
        for index, resident in enumerate(cache_set):
            if resident is entry:
                del cache_set[index]
                break
        task_lines = self._by_task[entry.task_id]
        del task_lines[entry.line_addr]
        if not task_lines:
            del self._by_task[entry.task_id]
        self._resident -= 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def entries(self, line_addr: int) -> list[CacheLine]:
        """All resident versions of ``line_addr`` (any task ID).

        Scans the line's set — at most ``assoc`` elements — preserving
        the per-line insertion order (both a dedicated per-line index and
        the set list append on link, so their relative orders coincide).
        """
        cache_set = self._sets[line_addr & self._set_mask]
        if not cache_set:
            return []
        return [e for e in cache_set if e.line_addr == line_addr]

    def version_count(self, line_addr: int) -> int:
        """How many versions of ``line_addr`` are resident (O(assoc))."""
        cache_set = self._sets[line_addr & self._set_mask]
        if not cache_set:
            return 0
        count = 0
        for e in cache_set:
            if e.line_addr == line_addr:
                count += 1
        return count

    def find(self, line_addr: int, task_id: int) -> CacheLine | None:
        """The exact (address, task-ID) version, or ``None``."""
        slot = self._key_slot.get(
            (line_addr << KEY_SHIFT) + task_id + KEY_BIAS)
        if slot is None:
            return None
        return self._view[slot]

    def find_speculative(self, line_addr: int) -> list[CacheLine]:
        """All resident *speculative* versions of ``line_addr``."""
        return [e for e in self.entries(line_addr) if e.speculative]

    def touch(self, entry: CacheLine, now: float) -> None:
        """Refresh LRU state after a hit."""
        entry.last_touch = now
        self.stats.hits += 1

    def record_miss(self) -> None:
        self.stats.misses += 1

    # ------------------------------------------------------------------
    # Insertion / replacement
    # ------------------------------------------------------------------
    def insert(self, line: CacheLine, now: float,
               victim_filter: Callable[[CacheLine], bool] | None = None,
               ) -> CacheLine | None:
        """Insert ``line``, returning the displaced victim if the set is full.

        An existing entry with the same (address, task-ID) is overwritten in
        place (no displacement). The victim is the least-recently-used entry
        for which ``victim_filter`` (if given) returns True; entries the
        filter rejects are unevictable (e.g. the line currently being
        written). If every entry is unevictable a :class:`SimulationError`
        is raised — associativity must exceed the number of pinned lines.
        """
        slot = self._key_slot.get(
            (line.line_addr << KEY_SHIFT) + line.task_id + KEY_BIAS)
        if slot is not None:
            if line._dirty:
                self._dirty[slot] = 1
            # A version, once committed, never reverts to speculative.
            if line._committed:
                self._committed[slot] = 1
            self._touch[slot] = now
            return None

        line._touch = now
        set_index = line.line_addr & self._set_mask
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = []
        victim: CacheLine | None = None
        if len(cache_set) >= self.geometry.assoc:
            touch = self._touch
            if victim_filter is None:
                candidates = cache_set
            else:
                candidates = [e for e in cache_set if victim_filter(e)]
                if not candidates:
                    raise SimulationError(
                        f"{self.name}: no evictable line in set "
                        f"{self.set_index(line.line_addr)}"
                    )
            victim = min(candidates, key=lambda e: touch[e._slot])
            speculative = victim.speculative
            dirty = victim.dirty
            self._unlink(victim, cache_set)
            self.stats.displacements += 1
            if speculative and dirty:
                self.stats.speculative_displacements += 1
            if victim._committed and dirty:
                self.stats.committed_dirty_displacements += 1
        self._link(line, cache_set)
        if self._resident > self.stats.peak_resident_lines:
            self.stats.peak_resident_lines = self._resident
        return victim

    def install(self, line_addr: int, task_id: int, *, dirty: bool,
                committed: bool, now: float) -> CacheLine | None:
        """Fused :meth:`insert` for the engine's hot paths.

        Behaves exactly like ``insert(CacheLine(line_addr, task_id, ...),
        now)`` — same flag merging, LRU victim choice, statistics and
        return value — but only constructs the :class:`CacheLine` view
        when a new entry is actually linked, and runs probe, link and
        victim selection in one body.
        """
        key = (line_addr << KEY_SHIFT) + task_id + KEY_BIAS
        key_slot = self._key_slot
        slot = key_slot.get(key)
        if slot is not None:
            if dirty:
                self._dirty[slot] = 1
            # A version, once committed, never reverts to speculative.
            if committed:
                self._committed[slot] = 1
            self._touch[slot] = now
            return None

        set_index = line_addr & self._set_mask
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = []
        touch = self._touch
        victim: CacheLine | None = None
        if len(cache_set) >= self.geometry.assoc:
            victim = min(cache_set, key=lambda e: touch[e._slot])
            speculative = victim.speculative
            was_dirty = victim.dirty
            self._unlink(victim, cache_set)
            stats = self.stats
            stats.displacements += 1
            if speculative and was_dirty:
                stats.speculative_displacements += 1
            if victim._committed and was_dirty:
                stats.committed_dirty_displacements += 1
        entry = CacheLine(line_addr, task_id, dirty, committed, now)
        # Inline _link.
        free = self._free
        if free:
            slot = free.pop()
            self._dirty[slot] = 1 if dirty else 0
            self._committed[slot] = 1 if committed else 0
            touch[slot] = now
            self._view[slot] = entry
        else:
            slot = len(self._view)
            self._dirty.append(1 if dirty else 0)
            self._committed.append(1 if committed else 0)
            touch.append(now)
            self._view.append(entry)
        entry._cache = self
        entry._slot = slot
        key_slot[key] = slot
        cache_set.append(entry)
        task_lines = self._by_task.get(task_id)
        if task_lines is None:
            self._by_task[task_id] = {line_addr: entry}
        else:
            task_lines[line_addr] = entry
        resident = self._resident + 1
        self._resident = resident
        if resident > self.stats.peak_resident_lines:
            self.stats.peak_resident_lines = resident
        return victim

    def remove(self, entry: CacheLine) -> None:
        """Remove a specific resident entry."""
        cache_set = self._sets[entry.line_addr & self._set_mask]
        resident = self.find(entry.line_addr, entry.task_id)
        if resident is not entry:
            raise SimulationError(
                f"{self.name}: removing non-resident line "
                f"{entry.line_addr:#x} task {entry.task_id}"
            )
        self._unlink(entry, cache_set)

    # ------------------------------------------------------------------
    # Bulk operations used by commit / squash / merge
    # ------------------------------------------------------------------
    def invalidate_task(self, task_id: int) -> int:
        """Drop every line owned by ``task_id`` (AMM squash recovery).

        Returns the number of lines invalidated. O(resident lines of the
        task): the per-task index hands us exactly the entries to drop,
        where the original implementation swept every set in the cache.
        """
        task_lines = self._by_task.get(task_id)
        if not task_lines:
            return 0
        dropped = 0
        for entry in list(task_lines.values()):
            self._unlink(entry, self._sets[entry.line_addr & self._set_mask])
            dropped += 1
        return dropped

    def mark_committed(self, task_id: int) -> list[CacheLine]:
        """Flip all lines of ``task_id`` to committed (Lazy AMM commit).

        Returns the lines affected so the caller can account for them.
        """
        task_lines = self._by_task.get(task_id)
        if not task_lines:
            return []
        committed = self._committed
        marked = []
        for entry in task_lines.values():
            if not committed[entry._slot]:
                committed[entry._slot] = 1
                marked.append(entry)
        return marked

    def drain_task(self, task_id: int, *, clean: bool) -> list[CacheLine]:
        """Collect all dirty lines of ``task_id`` (Eager AMM commit merge).

        With ``clean=True`` the lines stay resident but become clean
        architectural data (they were just written back to memory); with
        ``clean=False`` they are removed.
        """
        task_lines = self._by_task.get(task_id)
        if not task_lines:
            return []
        dirty = self._dirty
        drained = []
        for entry in list(task_lines.values()):
            if dirty[entry._slot]:
                drained.append(entry)
                if clean:
                    dirty[entry._slot] = 0
                    self._committed[entry._slot] = 1
                else:
                    self._unlink(
                        entry, self._sets[entry.line_addr & self._set_mask]
                    )
        return drained

    def committed_dirty(self) -> list[CacheLine]:
        """All committed-but-unmerged dirty lines (Lazy AMM final merge)."""
        dirty = self._dirty
        committed = self._committed
        return [e for s in self._sets if s for e in s
                if committed[e._slot] and dirty[e._slot]]

    def lines_of_task(self, task_id: int) -> list[CacheLine]:
        return list(self._by_task.get(task_id, _EMPTY).values())

    def __iter__(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            if cache_set:
                yield from cache_set

    def __len__(self) -> int:
        return self._resident

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VersionCache({self.name}, {self.geometry.size_bytes}B "
                f"{self.geometry.assoc}-way, resident={self._resident})")
