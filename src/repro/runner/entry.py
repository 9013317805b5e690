"""The result-cache entry format: a self-verifying header, then the payload.

Every tier stores, and every dispatcher delivers, a result as one
*entry*, built once by whoever computed the result (the pool chunk, the
serial path, a fleet worker)::

    TLSE1 <hash> <digest> <heavy>\\n<body>

The header is fixed-width ASCII, so readers slice its fields at constant
offsets and never search it:

* ``TLSE1`` — the format tag;
* ``<hash>`` — 64 hex digits: the SHA-256 of every byte after this
  field, the rest of the header included. :func:`check_entry` recomputes
  it; a bit flip anywhere in the digest, the offset or the body fails;
* ``<digest>`` — 64 hex digits: the canonical digest, the SHA-256 of
  :func:`~repro.analysis.serialization.canonical_result_bytes` (for a
  sequential baseline, of its sorted-key payload JSON) — the digest the
  service and the fleet put on their envelopes;
* ``<heavy>`` — 10 decimal digits: the byte offset, from the start of
  the entry, of the first heavy member (``memory_image``, then
  ``observed_reads``), or the entry's length when there is none.

The body is the payload as one compact JSON object, heavy members last:
the exact wire payload the service splices into its responses. A reader
parses the summary — everything before the heavy members, about a tenth
of the bytes and all that the figures read — and leaves the heavy
members to be parsed on first access (:func:`decode_summary`).

This module owns the layout; the runner, the fleet and the service use
these functions and never slice a header themselves.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: The format tag every entry starts with.
TAG = b"TLSE1 "
_HASH_END = len(TAG) + 64
_DIGEST = slice(_HASH_END + 1, _HASH_END + 65)
_HEAVY = slice(_HASH_END + 66, _HASH_END + 76)
#: Length of the header, newline included: where the body starts.
HEADER_LEN = _HASH_END + 77

#: Payload members only correctness checks read, stored last.
HEAVY_FIELDS = ("memory_image", "observed_reads")
#: Payload members that describe the host, not the simulated machine:
#: outside the canonical digest.
HOST_FIELDS = ("wall_clock_seconds", "metrics")


class EntryError(ValueError):
    """Bytes that are not an intact cache entry."""


class SummaryPayload(dict):
    """An entry's summary members; ``load_heavy()`` parses the rest.

    The result rebuilders (:mod:`repro.analysis.serialization`) take it
    like a payload dict and defer the fields the heavy members hold.
    """

    __slots__ = ("load_heavy",)


def canonical_digest(payload: dict[str, Any]) -> str:
    """SHA-256 of a payload's canonical bytes, straight from the dict.

    Equal to hashing
    :func:`~repro.analysis.serialization.canonical_result_bytes` of the
    result the payload serializes: the same members, minus the host
    ones, dumped with sorted keys — with no decode.
    """
    canonical = {name: value for name, value in payload.items()
                 if name not in HOST_FIELDS}
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def encode_entry(payload: dict[str, Any]) -> bytes:
    """The entry for a result payload dict (:func:`~repro.runner.runner.\
payload_from_result`)."""
    summary = {name: value for name, value in payload.items()
               if name not in HEAVY_FIELDS}
    body = json.dumps(summary, separators=(",", ":")).encode()
    heavy = {name: payload[name] for name in HEAVY_FIELDS
             if name in payload}
    offset = HEADER_LEN + len(body)
    if heavy:
        tail = json.dumps(heavy, separators=(",", ":")).encode()
        body = body[:-1] + b"," + tail[1:]
    rest = b" %s %010d\n%s" % (
        canonical_digest(payload).encode(), offset, body)
    return TAG + hashlib.sha256(rest).hexdigest().encode() + rest


def is_entry(raw: bytes) -> bool:
    """Whether ``raw`` claims to be an entry (carries the format tag)."""
    return raw.startswith(TAG)


def check_entry(raw: bytes) -> None:
    """Raise :class:`EntryError` unless ``raw`` is an intact entry."""
    if not raw.startswith(TAG) or len(raw) < HEADER_LEN:
        raise EntryError("not a cache entry")
    actual = hashlib.sha256(memoryview(raw)[_HASH_END:]).hexdigest()
    if actual.encode() != raw[len(TAG):_HASH_END]:
        raise EntryError("cache entry fails its hash check")


def entry_digest(raw: bytes) -> str:
    """The canonical digest stored in an entry's header."""
    return raw[_DIGEST].decode()


def entry_body(raw: bytes) -> memoryview:
    """The entry's payload JSON: a zero-copy view (``bytes()`` it to
    parse it or keep it)."""
    return memoryview(raw)[HEADER_LEN:]


def decode_summary(raw: bytes) -> SummaryPayload:
    """Parse an entry's summary members; the heavy ones wait.

    Raises on bytes whose summary does not parse into a JSON object. The
    hash is not checked here: :func:`check_entry` is the read rule of
    the shared tier, and everything else (the memory tier, a fresh
    computation) holds entries already checked or built in this process.
    """
    start = int(raw[_HEAVY])
    summary = SummaryPayload(json.loads(raw[HEADER_LEN:start - 1] + b"}"))

    def load_heavy() -> dict[str, Any]:
        if start >= len(raw):
            return {}
        return json.loads(b"{" + raw[start:])

    summary.load_heavy = load_heavy
    return summary
