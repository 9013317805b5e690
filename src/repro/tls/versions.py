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

Storage layout: :attr:`VersionDirectory.words` is one insertion-ordered
dict from a word address to its record, a ``(producers, readers)`` pair
— the sorted producer task IDs with a live version of the word, and
reader -> oldest version seen. A word gets its record on its first
tracked access and keeps it. The hot protocol operations
(:meth:`~VersionDirectory.version_for_read`,
:meth:`~VersionDirectory.record_read`,
:meth:`~VersionDirectory.record_write`,
:meth:`~VersionDirectory.latest_version_at_most`) run several times per
simulated memory op and cost one dict probe each; the engine's drain loop
reads the same dict in its inline L1 read-hit path (which must mirror
:meth:`~VersionDirectory.version_for_read` and
:meth:`~VersionDirectory.record_read` mutation for mutation).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.memsys.cache import ARCH_TASK_ID

#: The record of a word with no tracked access (never mutated).
_NO_STATE: tuple = ((), {})


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
        #: word -> (sorted producer task IDs with a live version,
        #: {reader task ID: oldest producer ID that reader consumed}).
        self.words: dict[int, tuple[list[int], dict[int, int]]] = {}
        self.stats = DirectoryStats()

    def _intern(self, word_addr: int) -> tuple[list[int], dict[int, int]]:
        """The record of ``word_addr``, creating an empty one if needed."""
        state = self.words.get(word_addr)
        if state is None:
            state = self.words[word_addr] = ([], {})
        return state

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
        return self.latest_version_at_most(word_addr, reader)

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
        readers = self._intern(word_addr)[1]
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
        producers, readers = self._intern(word_addr)
        idx = bisect_right(producers, producer)
        if idx == 0 or producers[idx - 1] != producer:
            insort(producers, producer)
        if not readers:
            return []
        violated = _violated(readers, producer)
        if violated:
            self.stats.violations += 1
        return violated

    def violated_readers(self, word_addr: int, producer: int) -> list[int]:
        """Readers of ``word_addr`` that a write by ``producer`` violates.

        Read-only check (no version inserted); the line-granularity
        detection mode uses it to find false-sharing victims on the other
        words of the written line.
        """
        return _violated(self.words.get(word_addr, _NO_STATE)[1], producer)

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
        words = self.words
        for word in written:
            state = words.get(word)
            if state is None:
                continue
            producers = state[0]
            if producers:
                idx = bisect_right(producers, task_id)
                if idx and producers[idx - 1] == task_id:
                    producers.pop(idx - 1)
        self.forget_reader(task_id, read)

    def purge_tasks(self, task_ids: set[int]) -> None:
        """Full-sweep removal of versions and reads of ``task_ids``.

        Slower than :meth:`purge_task`; kept for hand-driven protocol tests
        that do not track per-attempt word sets.
        """
        for producers, readers in self.words.values():
            if producers:
                producers[:] = [p for p in producers if p not in task_ids]
            for tid in task_ids.intersection(readers):
                del readers[tid]

    def forget_reader(self, task_id: int, read: set[int] | None = None) -> None:
        """Drop reader records of a committed task (it can't be violated)."""
        words = self.words
        if read is not None:
            for word in read:
                state = words.get(word)
                if state is not None:
                    state[1].pop(task_id, None)
            return
        for _producers, readers in words.values():
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
        for word, (producers, readers) in self.words.items():
            yield word, producers, readers

    def producers_of(self, word_addr: int) -> list[int]:
        """Task IDs with a live version of ``word_addr``, in order."""
        return list(self.words.get(word_addr, _NO_STATE)[0])

    def latest_version_at_most(self, word_addr: int, bound: int) -> int:
        """Latest producer <= ``bound`` for ``word_addr`` (ARCH if none)."""
        state = self.words.get(word_addr)
        if state is None:
            return ARCH_TASK_ID
        producers = state[0]
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
        producers = self.words.get(word_addr, _NO_STATE)[0]
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
            for word, (producers, _readers) in self.words.items()
            if producers
        }

    def words_written(self) -> set[int]:
        """Every word address with at least one recorded version."""
        return {
            word
            for word, (producers, _readers) in self.words.items()
            if producers
        }


def _violated(readers: dict[int, int], producer: int) -> list[int]:
    """Readers a write by ``producer`` violates, in task order."""
    return sorted(
        reader
        for reader, seen in readers.items()
        if reader > producer and seen < producer
    )
