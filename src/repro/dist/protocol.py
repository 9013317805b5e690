"""Wire protocol of the distributed sweep fleet.

One frame format, both directions, over plain TCP: an 8-byte preamble of
two big-endian ``u32`` lengths (header, blob), a compact-JSON *header*
object carrying the frame type and its metadata, and an opaque binary
*blob* — zlib-compressed pickled job chunks on the way out, concatenated
zlib-compressed result payloads on the way back. The framing is the same
length-prefixed style the service's chunked JSONL stream uses, kept
deliberately tiny so a worker can be implemented in a page of blocking
socket code (:mod:`repro.dist.worker`) and the coordinator in one
asyncio handler (:mod:`repro.dist.coordinator`).

Transport rule: every TCP endpoint the program opens has Nagle off
(``TCP_NODELAY``), so each frame leaves as soon as it is written. A
worker writes a ``result`` and then a small ``pull`` it waits on; with
Nagle on, that ``pull`` sat until the coordinator's delayed ACK, about
40 ms a chunk. The coordinator's asyncio transports disable Nagle
themselves, the worker does in ``WorkerAgent._connect``
(:mod:`repro.dist.worker`), and so do the service's asyncio server and
``ServiceClient``'s ``http.client`` connection.

Frame types (full contract in ``docs/distributed.md``):

===============  =========  ===========================================
Type             Direction  Meaning
===============  =========  ===========================================
``register``     w -> c     hello + :func:`worker_fingerprint`
``registered``   c -> w     accepted; worker id + heartbeat interval
``refused``      c -> w     fingerprint rejected (engine mismatch)
``pull``         w -> c     ready for the next chunk
``chunk``        c -> w     a chunk assignment; blob = pickled jobs
``result``       w -> c     chunk finished; blob = packed payloads
``error``        w -> c     chunk failed; coordinator requeues it
``heartbeat``    w -> c     liveness (any frame also refreshes it)
``bye``          w -> c     graceful drain; in-flight work requeues
``shutdown``     c -> w     no more work ever; worker exits
===============  =========  ===========================================

Trust model: the fleet protocol carries *pickled* job objects, so a
coordinator and its workers must live in one trust domain (your own
hosts, your own CI runner) — exactly like the ``ProcessPoolExecutor``
path it replaces, and unlike the hardened public HTTP API in
:mod:`repro.service`. Never point a worker at an untrusted coordinator.
"""

from __future__ import annotations

import json
import pickle
import platform
import socket
import struct
import zlib
from typing import Any, Iterable, Sequence

from repro.errors import ReproError

#: Protocol revision, carried in ``register``/``registered`` frames.
#: Bumped on any incompatible frame change; a coordinator refuses
#: workers speaking a different revision.
PROTOCOL_VERSION = 1

#: Hard bound on one frame (header + blob). A full result chunk of
#: compressed payloads is a few hundred KB; 64 MiB is generosity, and
#: anything beyond it means a corrupt or hostile peer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The 8-byte frame preamble: header length, blob length (big-endian).
_PREAMBLE = struct.Struct("!II")


class ProtocolError(ReproError):
    """A malformed, oversized, or out-of-contract fleet frame."""


def worker_fingerprint() -> dict[str, Any]:
    """The identity a worker registers with (and results carry).

    Captures everything that could make two hosts compute different
    bytes for the same job: the engine version (refused outright on
    mismatch) plus the python version and platform (recorded, and
    surfaced in any digest-divergence refusal so the operator can see
    *which* host disagreed).
    """
    from repro.core.engine import ENGINE_VERSION

    return {
        "engine_version": ENGINE_VERSION,
        "protocol_version": PROTOCOL_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": socket.gethostname(),
    }


# ----------------------------------------------------------------------
# Frame encode/decode (transport-independent)
# ----------------------------------------------------------------------
def encode_frame(header: dict[str, Any], blob: bytes = b"") -> bytes:
    """Serialize one frame to its wire bytes."""
    head = json.dumps(header, separators=(",", ":")).encode()
    if len(head) + len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(head) + len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _PREAMBLE.pack(len(head), len(blob)) + head + blob


def decode_preamble(preamble: bytes) -> tuple[int, int]:
    """Split the 8-byte preamble into (header length, blob length)."""
    if len(preamble) != _PREAMBLE.size:
        raise ProtocolError(
            f"truncated frame preamble ({len(preamble)} bytes)")
    head_len, blob_len = _PREAMBLE.unpack(preamble)
    if head_len + blob_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {head_len + blob_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return head_len, blob_len


def decode_header(raw: bytes) -> dict[str, Any]:
    """Decode a frame header; anything but a JSON object with a string
    ``type`` is a protocol error."""
    try:
        header = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON: {exc}")
    if not isinstance(header, dict) or not isinstance(
            header.get("type"), str):
        raise ProtocolError("frame header must be an object with a "
                            "string 'type'")
    return header


# ----------------------------------------------------------------------
# Async transport (coordinator side)
# ----------------------------------------------------------------------
async def read_frame(reader: "Any") -> tuple[dict[str, Any], bytes]:
    """Read one frame off an :class:`asyncio.StreamReader`.

    Raises :class:`asyncio.IncompleteReadError` on a clean or abrupt
    close (the coordinator treats both as worker death) and
    :class:`ProtocolError` on malformed framing.
    """
    head_len, blob_len = decode_preamble(
        await reader.readexactly(_PREAMBLE.size))
    header = decode_header(await reader.readexactly(head_len))
    blob = await reader.readexactly(blob_len) if blob_len else b""
    return header, blob


async def write_frame(writer: "Any", header: dict[str, Any],
                      blob: bytes = b"") -> None:
    """Write one frame to an :class:`asyncio.StreamWriter` and drain."""
    writer.write(encode_frame(header, blob))
    await writer.drain()


# ----------------------------------------------------------------------
# Blocking transport (worker side)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, header: dict[str, Any],
               blob: bytes = b"") -> None:
    """Send one frame on a blocking socket."""
    sock.sendall(encode_frame(header, blob))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes, riding out socket timeouts mid-read.

    A timeout with *zero* bytes consumed raises :class:`TimeoutError`
    (the caller's idle tick); once any byte of a frame has arrived the
    read keeps going until the frame completes, so an idle-timeout can
    never desynchronize the stream. A peer close mid-read raises
    :class:`ConnectionError`.
    """
    parts: list[bytes] = []
    got = 0
    while got < n:
        try:
            piece = sock.recv(n - got)
        except (socket.timeout, TimeoutError):
            if got == 0:
                raise TimeoutError("idle")
            continue
        if not piece:
            raise ConnectionError("connection closed mid-frame")
        parts.append(piece)
        got += len(piece)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> tuple[dict[str, Any], bytes]:
    """Read one frame from a blocking socket.

    Raises :class:`TimeoutError` if the socket's timeout elapses with no
    frame started (so a draining worker can poll its stop flag), and
    :class:`ConnectionError` once the peer is gone.
    """
    head_len, blob_len = decode_preamble(
        _recv_exact(sock, _PREAMBLE.size))
    header = decode_header(_recv_exact(sock, head_len))
    blob = _recv_exact(sock, blob_len) if blob_len else b""
    return header, blob


# ----------------------------------------------------------------------
# Chunk and result payload packing
# ----------------------------------------------------------------------
def pack_jobs(jobs: Sequence[Any]) -> bytes:
    """A chunk's blob: the pickled job list, zlib-compressed.

    The same picklability contract the process-pool path relies on; the
    compression level matches the runner's worker payloads (speed over
    ratio — the jobs are small).
    """
    return zlib.compress(pickle.dumps(list(jobs)), 1)


def unpack_jobs(blob: bytes) -> list[Any]:
    """Decode a chunk blob back into its job list."""
    try:
        jobs = pickle.loads(zlib.decompress(blob))
    except Exception as exc:  # noqa: BLE001 - any corruption is protocol
        raise ProtocolError(f"undecodable job chunk: {exc}")
    if not isinstance(jobs, list):
        raise ProtocolError("job chunk did not decode to a list")
    return jobs


def pack_results(
    results: Iterable[tuple[str, str, str, bytes]],
) -> tuple[list[dict[str, Any]], bytes]:
    """Pack per-job result envelopes into (header entries, blob).

    ``results`` yields ``(key, digest, source, zraw)`` with ``zraw`` the
    zlib-compressed cache entry (:mod:`repro.runner.entry`). The header
    entry carries the key, the canonical digest the entry's header
    stores, where the bytes came from (``computed`` or ``cache``), and
    the compressed length; the blob is the concatenation, split back
    apart by those lengths.
    """
    entries: list[dict[str, Any]] = []
    blobs: list[bytes] = []
    for key, digest, source, zraw in results:
        entries.append({"key": key, "digest": digest, "source": source,
                        "length": len(zraw)})
        blobs.append(zraw)
    return entries, b"".join(blobs)


def unpack_results(
    entries: Sequence[dict[str, Any]], blob: bytes,
) -> list[tuple[str, str, str, bytes]]:
    """Split a result frame back into ``(key, digest, source, zraw)``."""
    out: list[tuple[str, str, str, bytes]] = []
    offset = 0
    for entry in entries:
        try:
            key = entry["key"]
            digest = entry["digest"]
            source = entry["source"]
            length = int(entry["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed result entry {entry!r}: {exc}")
        if length < 0 or offset + length > len(blob):
            raise ProtocolError(
                f"result entry for {key!r} overruns the frame blob")
        out.append((key, digest, source, blob[offset:offset + length]))
        offset += length
    if offset != len(blob):
        raise ProtocolError(
            f"{len(blob) - offset} trailing bytes after the last result")
    return out
