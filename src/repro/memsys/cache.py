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

Storage layout: each resident version is one plain :class:`CacheLine`
record, reachable through three indexes —

* :attr:`VersionCache.lines` — one dict from the packed
  ``(line_addr, task_id)`` tag (see :data:`KEY_SHIFT`) to the record: the
  single probe behind :meth:`~VersionCache.find` and the engine's inline
  L1 read-hit, write and fetch paths, which read and write the record's
  attributes directly;
* the per-set insertion-ordered lists (LRU tie-break by list position),
  which :meth:`~VersionCache.entries` and
  :meth:`~VersionCache.version_count` scan — all versions of a line live
  in one set, so a scan costs at most ``assoc`` elements;
* ``_by_task`` — the per-task index behind the commit/squash bulk ops.

Object identity is preserved: :meth:`~VersionCache.insert` interns the
caller's instance, :meth:`~VersionCache.install` creates one, and
:meth:`~VersionCache.find` returns that same instance until it is
removed. A displaced or removed record is simply no longer indexed, so a
victim keeps the field values it had when it left the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
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


@dataclass(slots=True)
class CacheLine:
    """One version of one line.

    ``task_id`` is the CTID tag: the producer task of this version, or
    :data:`ARCH_TASK_ID` for architectural data. ``committed`` is set when
    the producer commits (Lazy AMM keeps such lines resident and incoherent
    until merged). ``dirty`` lines carry state that must not be silently
    dropped unless the scheme says so. ``last_touch`` is the LRU stamp.
    """

    line_addr: int
    task_id: int
    dirty: bool = False
    committed: bool = False
    last_touch: float = 0.0

    @property
    def speculative(self) -> bool:
        """True while the line holds uncommitted, non-architectural state."""
        return self.task_id != ARCH_TASK_ID and not self.committed


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
_last_touch = attrgetter("last_touch")


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
        #: Packed residency key -> resident record (see :data:`KEY_SHIFT`).
        self.lines: dict[int, CacheLine] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _link(self, entry: CacheLine, cache_set: list[CacheLine]) -> None:
        """Intern a new resident entry: join all indexes."""
        self.lines[
            (entry.line_addr << KEY_SHIFT) + entry.task_id + KEY_BIAS] = entry
        cache_set.append(entry)
        task_lines = self._by_task.get(entry.task_id)
        if task_lines is None:
            self._by_task[entry.task_id] = {entry.line_addr: entry}
        else:
            task_lines[entry.line_addr] = entry

    def _unlink(self, entry: CacheLine, cache_set: list[CacheLine]) -> None:
        """Drop a resident entry from every index."""
        del self.lines[
            (entry.line_addr << KEY_SHIFT) + entry.task_id + KEY_BIAS]
        # Remove by identity: __eq__ is value-based, so list.remove would
        # make a Python-level comparison per element it passes.
        for index, resident in enumerate(cache_set):
            if resident is entry:
                del cache_set[index]
                break
        task_lines = self._by_task[entry.task_id]
        del task_lines[entry.line_addr]
        if not task_lines:
            del self._by_task[entry.task_id]

    def _displace(self, victim: CacheLine,
                  cache_set: list[CacheLine]) -> None:
        """Unlink the replacement victim and count the displacement."""
        self._unlink(victim, cache_set)
        stats = self.stats
        stats.displacements += 1
        if victim.dirty:
            if victim.committed:
                stats.committed_dirty_displacements += 1
            elif victim.task_id != ARCH_TASK_ID:
                stats.speculative_displacements += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def entries(self, line_addr: int) -> list[CacheLine]:
        """All resident versions of ``line_addr`` (any task ID).

        Scans the line's set — at most ``assoc`` elements — in insertion
        order.
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
        return self.lines.get((line_addr << KEY_SHIFT) + task_id + KEY_BIAS)

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
        resident = self.find(line.line_addr, line.task_id)
        if resident is not None:
            if line.dirty:
                resident.dirty = True
            # A version, once committed, never reverts to speculative.
            if line.committed:
                resident.committed = True
            resident.last_touch = now
            return None

        line.last_touch = now
        set_index = line.line_addr & self._set_mask
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = []
        victim: CacheLine | None = None
        if len(cache_set) >= self.geometry.assoc:
            if victim_filter is None:
                candidates = cache_set
            else:
                candidates = [e for e in cache_set if victim_filter(e)]
                if not candidates:
                    raise SimulationError(
                        f"{self.name}: no evictable line in set "
                        f"{self.set_index(line.line_addr)}"
                    )
            victim = min(candidates, key=_last_touch)
            self._displace(victim, cache_set)
        self._link(line, cache_set)
        if len(self.lines) > self.stats.peak_resident_lines:
            self.stats.peak_resident_lines = len(self.lines)
        return victim

    def install(self, line_addr: int, task_id: int, *, dirty: bool,
                committed: bool, now: float) -> CacheLine | None:
        """Fused :meth:`insert` for the engine's hot paths.

        Behaves exactly like ``insert(CacheLine(line_addr, task_id, ...),
        now)`` — same flag merging, LRU victim choice, statistics and
        return value — but only constructs the :class:`CacheLine` when a
        new entry is actually linked, and runs probe, link and victim
        selection in one body.
        """
        key = (line_addr << KEY_SHIFT) + task_id + KEY_BIAS
        lines = self.lines
        entry = lines.get(key)
        if entry is not None:
            if dirty:
                entry.dirty = True
            # A version, once committed, never reverts to speculative.
            if committed:
                entry.committed = True
            entry.last_touch = now
            return None

        set_index = line_addr & self._set_mask
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = []
        victim: CacheLine | None = None
        if len(cache_set) >= self.geometry.assoc:
            victim = min(cache_set, key=_last_touch)
            self._displace(victim, cache_set)
        entry = CacheLine(line_addr, task_id, dirty, committed, now)
        # Inline _link.
        lines[key] = entry
        cache_set.append(entry)
        task_lines = self._by_task.get(task_id)
        if task_lines is None:
            self._by_task[task_id] = {line_addr: entry}
        else:
            task_lines[line_addr] = entry
        if len(lines) > self.stats.peak_resident_lines:
            self.stats.peak_resident_lines = len(lines)
        return victim

    def remove(self, entry: CacheLine) -> None:
        """Remove a specific resident entry."""
        if self.find(entry.line_addr, entry.task_id) is not entry:
            raise SimulationError(
                f"{self.name}: removing non-resident line "
                f"{entry.line_addr:#x} task {entry.task_id}"
            )
        self._unlink(entry, self._sets[entry.line_addr & self._set_mask])

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
        marked = []
        for entry in self._by_task.get(task_id, _EMPTY).values():
            if not entry.committed:
                entry.committed = True
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
        drained = []
        for entry in list(task_lines.values()):
            if entry.dirty:
                drained.append(entry)
                if clean:
                    entry.dirty = False
                    entry.committed = True
                else:
                    self._unlink(
                        entry, self._sets[entry.line_addr & self._set_mask]
                    )
        return drained

    def committed_dirty(self) -> list[CacheLine]:
        """All committed-but-unmerged dirty lines (Lazy AMM final merge)."""
        return [e for s in self._sets if s for e in s
                if e.committed and e.dirty]

    def lines_of_task(self, task_id: int) -> list[CacheLine]:
        return list(self._by_task.get(task_id, _EMPTY).values())

    def __iter__(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            if cache_set:
                yield from cache_set

    def __len__(self) -> int:
        return len(self.lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VersionCache({self.name}, {self.geometry.size_bytes}B "
                f"{self.geometry.assoc}-way, resident={len(self.lines)})")
