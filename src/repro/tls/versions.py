"""Global multi-version directory and violation detection.

The directory is the logical heart of the speculative parallelization
protocol: for every word it maintains the ordered set of versions (by
producer task ID) and the set of speculative readers together with the
version each one consumed. The engine charges realistic latencies for
finding and moving data; this structure answers *which* version a reader
must receive and *who* must be squashed when a write arrives out of order.

Violation rule (matching the paper's base protocol, from Prvulovic01):
squashes are triggered only by an out-of-order RAW on the same word — a
write by task T squashes reader U > T if U consumed a version older than T.
Word granularity means false sharing within a line never squashes.

Storage layout (engine-core v3): per-word state is interned into *rows*.
``_row`` maps a word address to its row index, assigned on the word's
first tracked access and never freed; ``_producers[row]`` (sorted task-ID
list), ``_readers[row]`` (reader -> oldest version seen) and
``_words[row]`` (the reverse mapping) are flat parallel columns. The hot
protocol operations (:meth:`version_for_read`, :meth:`record_read`,
:meth:`record_write`, :meth:`latest_version_at_most`) run several times
per simulated memory op; one shared interning dict plus list indexing
replaces the two independent per-word dict probes of the v2 layout, and
the engine's drain loop binds the columns directly for its inline L1
read-hit path (which must mirror :meth:`version_for_read` and
:meth:`record_read` mutation for mutation).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.memsys.cache import ARCH_TASK_ID

_EMPTY: dict = {}


@dataclass
class DirectoryStats:
    """Counters for version-directory traffic."""
    reads: int = 0
    writes: int = 0
    violations: int = 0
    forwarded_reads: int = 0


class VersionDirectory:
    """System-wide word-granularity version order and reader tracking."""

    def __init__(self) -> None:
        #: word -> row index (assigned on first tracked access, never freed).
        self._row: dict[int, int] = {}
        #: row -> sorted producer task IDs with a live version of the word.
        self._producers: list[list[int]] = []
        #: row -> {reader task ID: oldest producer ID that reader consumed}.
        self._readers: list[dict[int, int]] = []
        #: row -> word address (reverse mapping for sweeps and images).
        self._words: list[int] = []
        self.stats = DirectoryStats()

    def _intern(self, word_addr: int) -> int:
        """Row index for ``word_addr``, creating an empty row if needed."""
        row = self._row.get(word_addr)
        if row is None:
            row = len(self._words)
            self._row[word_addr] = row
            self._producers.append([])
            self._readers.append({})
            self._words.append(word_addr)
        return row

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def version_for_read(self, word_addr: int, reader: int) -> int:
        """Producer whose version ``reader`` must consume for ``word_addr``.

        The latest version with producer ID <= ``reader``; reading your own
        version is allowed (a task has at most one version of a word).
        Returns :data:`ARCH_TASK_ID` if no speculative version precedes the
        reader.
        """
        row = self._row.get(word_addr)
        if row is None:
            return ARCH_TASK_ID
        producers = self._producers[row]
        if not producers:
            return ARCH_TASK_ID
        idx = bisect_right(producers, reader)
        if idx == 0:
            return ARCH_TASK_ID
        return producers[idx - 1]

    def record_read(self, word_addr: int, reader: int, version_seen: int) -> None:
        """Note that ``reader`` consumed ``version_seen`` of ``word_addr``.

        Only reads of *other* tasks' state (or architectural state) are
        recorded: a task reading its own version can never be violated by a
        predecessor write newer than that version's own task.
        """
        self.stats.reads += 1
        if version_seen == reader:
            return
        if version_seen != ARCH_TASK_ID:
            self.stats.forwarded_reads += 1
        readers = self._readers[self._intern(word_addr)]
        previous = readers.get(reader)
        if previous is None or version_seen < previous:
            readers[reader] = version_seen

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def record_write(self, word_addr: int, producer: int) -> list[int]:
        """Insert ``producer``'s version; return violated readers.

        A reader U is violated when U > producer and U consumed a version
        older than ``producer`` (out-of-order RAW). The caller squashes the
        earliest violated reader and its successors.
        """
        self.stats.writes += 1
        row = self._intern(word_addr)
        producers = self._producers[row]
        idx = bisect_right(producers, producer)
        if idx == 0 or producers[idx - 1] != producer:
            insort(producers, producer)
        # Inline violated_readers: the reader map is already in hand, so
        # the hot path does a single list index per write.
        readers = self._readers[row]
        if not readers:
            return []
        violated = sorted(
            reader
            for reader, seen in readers.items()
            if reader > producer and seen < producer
        )
        if violated:
            self.stats.violations += 1
        return violated

    def violated_readers(self, word_addr: int, producer: int) -> list[int]:
        """Readers of ``word_addr`` that a write by ``producer`` violates.

        Read-only check (no version inserted); the line-granularity
        detection mode uses it to find false-sharing victims on the other
        words of the written line.
        """
        row = self._row.get(word_addr)
        if row is None:
            return []
        readers = self._readers[row]
        if not readers:
            return []
        return sorted(
            reader
            for reader, seen in readers.items()
            if reader > producer and seen < producer
        )

    # ------------------------------------------------------------------
    # Squash / commit bookkeeping
    # ------------------------------------------------------------------
    def purge_task(self, task_id: int, written: set[int],
                   read: set[int]) -> None:
        """Remove a squashed task's versions and read records.

        ``written`` / ``read`` are the word sets the squashed attempt
        touched (the engine tracks them per attempt), so the purge is
        targeted rather than a full directory sweep.
        """
        rows = self._row
        all_producers = self._producers
        for word in written:
            row = rows.get(word)
            if row is None:
                continue
            producers = all_producers[row]
            if producers:
                idx = bisect_right(producers, task_id)
                if idx and producers[idx - 1] == task_id:
                    producers.pop(idx - 1)
        all_readers = self._readers
        for word in read:
            row = rows.get(word)
            if row is not None:
                all_readers[row].pop(task_id, None)

    def purge_tasks(self, task_ids: set[int]) -> None:
        """Full-sweep removal of versions and reads of ``task_ids``.

        Slower than :meth:`purge_task`; kept for hand-driven protocol tests
        that do not track per-attempt word sets.
        """
        all_producers = self._producers
        for row, producers in enumerate(all_producers):
            if producers:
                all_producers[row] = [p for p in producers
                                      if p not in task_ids]
        for readers in self._readers:
            for tid in task_ids.intersection(readers):
                del readers[tid]

    def forget_reader(self, task_id: int, read: set[int] | None = None) -> None:
        """Drop reader records of a committed task (it can't be violated)."""
        all_readers = self._readers
        if read is not None:
            rows = self._row
            for word in read:
                row = rows.get(word)
                if row is not None:
                    all_readers[row].pop(task_id, None)
            return
        for readers in all_readers:
            readers.pop(task_id, None)

    # ------------------------------------------------------------------
    # Introspection (used by write-back payload building and invariants)
    # ------------------------------------------------------------------
    def iter_states(self):
        """Yield ``(word, producers, readers)`` for every tracked word.

        The yielded lists/dicts are the live internal structures (no
        copies); callers — the invariant checker sweeps them after every
        engine event — must treat them as read-only. Words with reader
        records but no live version yield an empty producer list, and
        vice versa.
        """
        all_producers = self._producers
        all_readers = self._readers
        for row, word in enumerate(self._words):
            yield word, all_producers[row], all_readers[row]

    def producers_of(self, word_addr: int) -> list[int]:
        """Task IDs with a live version of ``word_addr``, in order."""
        row = self._row.get(word_addr)
        if row is None:
            return []
        return list(self._producers[row])

    def latest_version_at_most(self, word_addr: int, bound: int) -> int:
        """Latest producer <= ``bound`` for ``word_addr`` (ARCH if none)."""
        row = self._row.get(word_addr)
        if row is None:
            return ARCH_TASK_ID
        producers = self._producers[row]
        if not producers:
            return ARCH_TASK_ID
        idx = bisect_right(producers, bound)
        return producers[idx - 1] if idx else ARCH_TASK_ID

    def latest_version_below(self, word_addr: int, bound: int) -> int:
        """Latest producer strictly < ``bound`` (ARCH if none).

        Used by the line-granularity detection mode: a task re-reading its
        own word still exposes the rest of its line copy, whose other words
        date from before the task's own version.
        """
        return self.latest_version_at_most(word_addr, bound - 1)

    def has_version(self, word_addr: int, producer: int) -> bool:
        """True when ``producer`` holds a live version of ``word_addr``."""
        row = self._row.get(word_addr)
        if row is None:
            return False
        producers = self._producers[row]
        if not producers:
            return False
        idx = bisect_right(producers, producer)
        return idx > 0 and producers[idx - 1] == producer

    def final_image(self) -> dict[int, int]:
        """word -> last producer, assuming every remaining task committed.

        Used by the correctness invariant: after a full run this must equal
        both the sequential last-writer image and (for merged words) the
        main-memory image.
        """
        return {
            word: producers[-1]
            for word, producers in zip(self._words, self._producers)
            if producers
        }

    def words_written(self) -> set[int]:
        """Every word address with at least one recorded version."""
        return {
            word
            for word, producers in zip(self._words, self._producers)
            if producers
        }
