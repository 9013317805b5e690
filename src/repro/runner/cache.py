"""Content-addressed caches of simulation results (memory and shard tiers).

Entries are keyed by the SHA-256 digest of the job's canonical identity
(machine config + scheme + workload fingerprint + engine options +
:data:`~repro.core.engine.ENGINE_VERSION`) and hold the *full* JSON
serialization of the result behind a self-verifying header
(:mod:`repro.runner.entry`), so a cache replay reconstructs the exact
:class:`~repro.core.results.SimulationResult` the original run produced.

The stack is layered:

* :class:`MemoryResultCache` — a bounded in-process LRU of serialized
  payload *bytes*: the very bytes the shared tier holds and the service
  splices into its responses. A consumer that needs the result object
  decodes its own copy, so no two callers share a mutable result.
* :class:`ShardedResultCache` — the shared tier: payload-level
  load/store semantics over a pluggable byte-store backend. The default
  :class:`DirectoryBackend` shards entries into 2-hex-prefix
  subdirectories (256 shards) with atomic writes, so concurrent sweep
  workers, multiple service frontends, and unrelated processes can all
  share one cache directory (local or NFS) safely; an entry that fails
  its check is treated as a miss and overwritten
  (:meth:`ShardedResultCache.load_checked`). Alternative backends (an
  object store, a remote cache daemon) only need the four methods
  :class:`ShardedResultCache` documents.
* :class:`ResultCache` — the historical name for the directory-backed
  shared tier; now a thin :class:`ShardedResultCache` subclass kept for
  compatibility (``root``/``path_for`` preserved).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from repro.runner.entry import check_entry, encode_entry, entry_body, is_entry

#: Environment variable overriding the default cache location.
CACHE_ENV_VAR = "REPRO_TLS_CACHE"
#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Cache keys are opaque lowercase-hex strings (SHA-256 digests in
#: practice). :class:`DirectoryBackend` enforces this before touching
#: the filesystem so a hostile key (``../``, an absolute path) can never
#: escape the cache root, whatever layer it arrived through.
_SAFE_KEY_RE = re.compile(r"[0-9a-f]+")

#: Width of the shard prefix: ``key[:SHARD_PREFIX_LEN]`` names the shard.
#: Two hex characters give 256 shards, keeping any one directory small
#: even for corpora of hundreds of thousands of entries. Part of the
#: on-disk layout contract — changing it would orphan existing entries.
SHARD_PREFIX_LEN = 2


def default_cache_root() -> Path:
    """The cache directory honoring :data:`CACHE_ENV_VAR`."""
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def shard_of(key: str) -> str:
    """The shard a key lives in (its first :data:`SHARD_PREFIX_LEN` chars).

    Keys are SHA-256 hex digests, so the prefix distributes uniformly
    across the 256 shards by construction.
    """
    return key[:SHARD_PREFIX_LEN]


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Computed results the tier failed to persist (full disk, read-only
    #: mount): the sweep kept them, uncached.
    store_errors: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter snapshot (for ``/v1/cache/stats``)."""
        return asdict(self)


#: Default entry bound for the in-memory tier. A full paper sweep is a
#: few hundred cells; payloads are tens of KB, so this stays modest.
DEFAULT_MEMORY_ENTRIES = 256


class MemoryResultCache:
    """Bounded in-process LRU tier holding cache entries.

    ``load``/``store`` speak ``bytes``: a computed entry, or a disk hit
    that passed its check. A hit
    refreshes recency; capacity overflow evicts the least recently used
    entry and counts it in :attr:`stats.evictions <CacheStats.evictions>`.
    One lock guards the entries and the counters: ``serve`` reads the
    tier on its event loop while executor threads store into it.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def load(self, key: str) -> bytes | None:
        """The stored entry for ``key`` (refreshes LRU recency)."""
        with self._lock:
            raw = self._entries.get(key)
            if raw is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return raw

    def store(self, key: str, raw: bytes) -> None:
        """Insert (or refresh) ``key``; evicts the LRU entry when full."""
        entries = self._entries
        with self._lock:
            if key in entries:
                entries.move_to_end(key)
                entries[key] = raw
                return
            entries[key] = raw
            self.stats.stores += 1
            if len(entries) > self.max_entries:
                entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            return removed

    def keys(self) -> list[str]:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Shared-tier backends
# ----------------------------------------------------------------------
class DirectoryBackend:
    """The default shared-tier backend: a 2-hex-prefix sharded directory.

    Entry ``<key>`` lives at ``<root>/<key[:2]>/<key>.json``; 256 shard
    subdirectories keep listings fast at corpus scale, and the layout is
    stable across releases so a warm directory can be mounted (NFS or
    volume-shared) behind many service frontends at once. Writes are
    atomic (temp file + ``os.replace`` within the shard), so concurrent
    writers — pool workers, other hosts — can share the root safely.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Entry path: ``<root>/<shard>/<key>.json``.

        Raises :class:`ValueError` for anything but a lowercase-hex
        key: path characters in a key would otherwise let the joined
        path escape ``root`` (``..`` components, or a leading ``/``
        making :class:`~pathlib.Path` discard the root outright).
        """
        if _SAFE_KEY_RE.fullmatch(key) is None:
            raise ValueError(
                f"invalid cache key {key!r}: keys are lowercase hex digests")
        return self.root / shard_of(key) / f"{key}.json"

    def get(self, key: str) -> bytes | None:
        """Read an entry's bytes; any I/O problem — or an invalid,
        path-shaped key — is a miss."""
        try:
            return self.path_for(key).read_bytes()
        except (OSError, ValueError):
            return None

    def put(self, key: str, raw: bytes) -> None:
        """Atomically write ``raw`` (temp file + rename in the shard)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def keys(self) -> list[str]:
        """Every stored key, by scanning the shard directories."""
        if not self.root.exists():
            return []
        glob = "?" * SHARD_PREFIX_LEN + "/*.json"
        return [path.stem for path in self.root.glob(glob)]

    def delete(self, key: str) -> bool:
        """Unlink one entry; missing, unremovable, or invalid-key
        counts as absent."""
        try:
            self.path_for(key).unlink()
            return True
        except (OSError, ValueError):
            return False

    def describe(self) -> str:
        """Human-readable backend location (for stats endpoints)."""
        return f"directory:{self.root}"


class ShardedResultCache:
    """The shared result tier: entry semantics over a byte backend.

    Speaks both raw bytes (:meth:`load_raw`/:meth:`store_raw` — the
    zero-copy path the sweep runner and the service warm path use, via
    :meth:`load_checked`) and decoded payload dicts
    (:meth:`load`/:meth:`store`). An entry that fails its check is a
    miss; the next store overwrites it. All hit/miss/store accounting
    lives here, backend-independent.

    ``backend`` is any object with the four methods of
    :class:`DirectoryBackend` — ``get(key)``, ``put(key, raw)``,
    ``keys()`` and ``delete(key)`` — under three rules: ``put`` is
    atomic per key (readers never observe a torn write); ``get``
    returns ``None`` for an entry that is missing or unreadable; and
    keys are opaque hex strings (a backend may shard on
    :func:`shard_of` but must not otherwise interpret them).
    """

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def load_raw(self, key: str) -> bytes | None:
        """The stored bytes for ``key``, unchecked, or ``None`` on a miss."""
        raw = self.backend.get(key)
        if raw is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return raw

    def load_checked(
        self, key: str, check: Callable[[bytes], tuple[bytes, Any]],
    ) -> tuple[bytes, Any] | None:
        """``check(stored bytes)`` for ``key``, or ``None`` on a miss.

        ``check`` returns ``(entry, value)``: the entry to serve and
        what it decoded into. Stored bytes ``check`` raises on (a failed
        hash, truncated, empty, a missing field) are a miss: counted as
        one, and left in place for the recomputed result to overwrite.
        An entry other than the stored bytes (an upgrade of an older
        format) is written back once; if that write fails it is counted
        in ``stats.store_errors`` and served all the same.
        """
        raw = self.load_raw(key)
        if raw is None:
            return None
        try:
            entry, value = check(raw)
        except Exception:  # noqa: BLE001 - any failed check is a miss
            self.stats.hits -= 1
            self.stats.misses += 1
            return None
        if entry is not raw:
            try:
                self.store_raw(key, entry)
            except OSError:
                self.stats.store_errors += 1
        return entry, value

    def load(self, key: str) -> dict[str, Any] | None:
        """The decoded payload for ``key``; bytes that do not check or
        parse into a JSON object are a miss.

        Reads an entry's whole body, and a plain JSON payload (the
        format before entries carried a header) as it is.
        """
        raw = self.backend.get(key)
        payload = None
        if raw is not None:
            try:
                if is_entry(raw):
                    check_entry(raw)
                    raw = bytes(entry_body(raw))
                payload = json.loads(raw)
            except ValueError:  # a failed check, bad JSON, bad UTF-8
                payload = None
        if isinstance(payload, dict):
            self.stats.hits += 1
            return payload
        self.stats.misses += 1
        return None

    def store(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key`` as an entry
        (:func:`~repro.runner.entry.encode_entry`)."""
        self.store_raw(key, encode_entry(payload))

    def store_raw(self, key: str, raw: bytes) -> None:
        """Atomically persist the entry ``raw`` under ``key``.

        Zero-copy path for the sweep runner, whose workers ship entries
        as bytes: they land in the backend without a decode / re-encode
        round trip.
        """
        self.backend.put(key, raw)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Every stored key (order unspecified)."""
        return list(self.backend.keys())

    def __contains__(self, key: str) -> bool:
        return self.backend.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            if self.backend.delete(key):
                removed += 1
        return removed

    def describe(self) -> str:
        """Human-readable tier description (for stats endpoints)."""
        describe = getattr(self.backend, "describe", None)
        if describe is not None:
            return str(describe())
        return type(self.backend).__name__


class ResultCache(ShardedResultCache):
    """The directory-backed shared tier under its historical name.

    ``ResultCache(root)`` is exactly
    ``ShardedResultCache(DirectoryBackend(root))`` with the ``root`` and
    ``path_for`` accessors earlier releases exposed.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        root = Path(root) if root is not None else default_cache_root()
        super().__init__(DirectoryBackend(root))
        self.root = root

    def path_for(self, key: str) -> Path:
        """Entry path, sharded by the first key byte to keep dirs small."""
        return self.backend.path_for(key)  # type: ignore[attr-defined]
