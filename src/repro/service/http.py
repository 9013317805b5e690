"""A dependency-free asyncio HTTP/1.1 frontend for the service.

Implements exactly what the API needs — request-line + header parsing,
``Content-Length`` bodies, keep-alive, JSON responses, and chunked
transfer encoding for the progress stream — on plain
:func:`asyncio.start_server`. No third-party framework: the runtime
stays standard-library-only, matching the rest of the repository.

Routes (full reference with schemas in ``docs/service.md``):

========  ==============================  =======================================
Method    Path                            Purpose
========  ==============================  =======================================
GET       ``/healthz``                    liveness probe
GET       ``/v1/cache/stats``             per-tier cache / single-flight counters
POST      ``/v1/jobs``                    run (or replay) one job, return result
GET       ``/v1/jobs/{key}``              fetch a result by content address
POST      ``/v1/sweeps``                  launch a job grid asynchronously
GET       ``/v1/sweeps/{id}``             sweep status summary
GET       ``/v1/sweeps/{id}/events``      chunked JSON-lines progress stream
========  ==============================  =======================================
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Any

from repro.service.app import SimulationService
from repro.service.schemas import (
    ServiceError,
    job_from_request,
    jobs_from_sweep_request,
)

#: Request bodies above this size are refused with 413.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Request line + headers above this size are refused.
MAX_HEADER_BYTES = 64 * 1024
#: Idle keep-alive connections are closed after this many seconds.
#: Also bounds how long a fresh connection may dribble its first
#: request, so a silent client cannot hold a handler task forever.
KEEPALIVE_TIMEOUT = 60.0

#: Job keys on the wire must be full SHA-256 hex digests. Anything else
#: is refused before it can reach a cache tier — path characters in a
#: key must never make it to the directory backend.
_JOB_KEY_RE = re.compile(r"[0-9a-f]{64}")

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
    504: "Gateway Timeout",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def _head(status: int, *, length: int | None = None, chunked: bool = False,
          close: bool = False) -> bytes:
    """Serialize a response head (status line + standard headers)."""
    lines = [f"HTTP/1.1 {status} {_reason(status)}",
             "Content-Type: application/json"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {length or 0}")
    lines.append("Connection: close" if close or chunked
                 else "Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _json_body(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


class _HttpRequest:
    """One parsed request: method, path, headers, body."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str,
                 headers: dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        """The decoded JSON body (400 on anything malformed)."""
        if not self.body:
            raise ServiceError(400, "bad_request", "request body required")
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(400, "bad_json",
                               f"request body is not valid JSON: {exc}")


async def _read_request(
        reader: asyncio.StreamReader) -> _HttpRequest | None:
    """Parse one request off the stream; ``None`` at a clean close.

    Every read — the first request included — is bounded by
    :data:`KEEPALIVE_TIMEOUT`, so a connection that never sends (or
    never finishes) a request is dropped rather than pinned open.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), KEEPALIVE_TIMEOUT)
    except (asyncio.IncompleteReadError, ConnectionError,
            asyncio.TimeoutError):
        return None
    except asyncio.LimitOverrunError:
        raise ServiceError(413, "headers_too_large",
                           "request head exceeds the size limit")
    if len(head) > MAX_HEADER_BYTES:
        raise ServiceError(413, "headers_too_large",
                           "request head exceeds the size limit")
    request_line, _, header_blob = head.decode(
        "latin-1").partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise ServiceError(400, "bad_request",
                           f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in header_blob.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ServiceError(400, "bad_request",
                           f"bad Content-Length {length_text!r}")
    if length < 0:
        raise ServiceError(400, "bad_request",
                           f"bad Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise ServiceError(413, "body_too_large",
                           f"request body of {length} bytes exceeds the "
                           f"{MAX_BODY_BYTES}-byte limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
    return _HttpRequest(method.upper(), target.split("?", 1)[0],
                        headers, body)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
async def _route(service: SimulationService,
                 request: _HttpRequest) -> tuple[int, bytes]:
    """Dispatch one non-streaming request → (status, body bytes)."""
    method, path = request.method, request.path

    if path == "/healthz":
        if method != "GET":
            raise ServiceError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
        return 200, _json_body({"status": "ok"})

    if path == "/v1/cache/stats":
        if method != "GET":
            raise ServiceError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
        return 200, _json_body(service.cache_stats())

    if path == "/v1/jobs":
        if method != "POST":
            raise ServiceError(405, "method_not_allowed",
                               "submit jobs with POST /v1/jobs")
        job = job_from_request(request.json())
        return 200, await service.run_job(job)

    if path.startswith("/v1/jobs/"):
        if method != "GET":
            raise ServiceError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
        key = path[len("/v1/jobs/"):]
        if _JOB_KEY_RE.fullmatch(key) is None:
            # Not a possible cache key (keys are SHA-256 hex digests);
            # refusing here keeps traversal-shaped paths away from the
            # cache tiers entirely.
            raise ServiceError(404, "unknown_key",
                               "job keys are 64-character lowercase hex "
                               "digests")
        hit = service.lookup_raw(key)
        if hit is not None:
            source, raw = hit
            return 200, service.envelope_bytes(key, source, raw)
        if service.pending(key):
            return 202, _json_body({"key": key, "status": "running"})
        raise ServiceError(404, "unknown_key",
                           f"no cached result under key {key!r}")

    if path == "/v1/sweeps":
        if method != "POST":
            raise ServiceError(405, "method_not_allowed",
                               "submit sweeps with POST /v1/sweeps")
        jobs = jobs_from_sweep_request(request.json())
        state = await service.submit_sweep(jobs)
        return 202, _json_body(state.to_dict())

    if path.startswith("/v1/sweeps/") and path.endswith("/events"):
        # GET streams never reach _route (handle_connection owns them),
        # so anything landing here used the wrong method.
        raise ServiceError(405, "method_not_allowed",
                           f"{method} not allowed on {path}")

    if path.startswith("/v1/sweeps/") and not path.endswith("/events"):
        if method != "GET":
            raise ServiceError(405, "method_not_allowed",
                               f"{method} not allowed on {path}")
        state = service.sweep(path[len("/v1/sweeps/"):])
        if state is None:
            raise ServiceError(404, "unknown_sweep",
                               "no such sweep on this frontend")
        return 200, _json_body(state.to_dict())

    raise ServiceError(404, "not_found", f"no route for {method} {path}")


async def _stream_sweep_events(service: SimulationService,
                               sweep_id: str,
                               writer: asyncio.StreamWriter) -> None:
    """``GET /v1/sweeps/{id}/events``: chunked JSON-lines until terminal."""
    state = service.sweep(sweep_id)
    if state is None:
        raise ServiceError(404, "unknown_sweep",
                           "no such sweep on this frontend")
    writer.write(_head(200, chunked=True))
    await writer.drain()
    async for event in service.stream_events(state):
        line = _json_body(event) + b"\n"
        writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


async def _write_error(writer: asyncio.StreamWriter,
                       error: ServiceError) -> None:
    body = _json_body(error.to_dict())
    writer.write(_head(error.status, length=len(body), close=True) + body)
    await writer.drain()


async def handle_connection(service: SimulationService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one client connection (keep-alive) until it closes."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except ServiceError as exc:
                await _write_error(writer, exc)
                return
            if request is None:
                return
            if (request.method == "GET"
                    and request.path.startswith("/v1/sweeps/")
                    and request.path.endswith("/events")):
                sweep_id = request.path[
                    len("/v1/sweeps/"):-len("/events")]
                try:
                    await _stream_sweep_events(service, sweep_id, writer)
                except ServiceError as exc:
                    await _write_error(writer, exc)
                return  # streams always close the connection
            try:
                status, body = await _route(service, request)
            except ServiceError as exc:
                await _write_error(writer, exc)
                return
            except Exception as exc:  # noqa: BLE001 - surface as a 500
                await _write_error(writer, ServiceError(
                    500, "internal_error", f"{type(exc).__name__}: {exc}"))
                return
            close = (request.headers.get("connection", "")
                     .lower() == "close")
            writer.write(_head(status, length=len(body), close=close)
                         + body)
            await writer.drain()
            if close:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


async def start_server(service: SimulationService, host: str = "127.0.0.1",
                       port: int = 0) -> asyncio.Server:
    """Bind the API server and adopt the running loop for ``service``."""
    service.bind_loop()

    async def _client(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(
        _client, host, port, limit=MAX_HEADER_BYTES)


def bound_port(server: asyncio.Server) -> int:
    """The actual TCP port the server listens on (after ``port=0``)."""
    return server.sockets[0].getsockname()[1]


async def serve_forever(service: SimulationService, host: str,
                        port: int) -> None:
    """Run the server until cancelled (the ``repro-tls serve`` body)."""
    server = await start_server(service, host, port)
    address = ", ".join(
        f"http://{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets)
    print(f"repro-tls serve listening on {address}")
    async with server:
        await server.serve_forever()


class ServiceThread:
    """A service + HTTP server running on a background thread's loop.

    The harness for tests, the serve-smoke driver, and embedding: start
    it, talk to ``http://127.0.0.1:{port}`` from any thread with the
    blocking :class:`~repro.service.client.ServiceClient`, stop it when
    done.
    """

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._start_error: OSError | None = None

    def start(self) -> "ServiceThread":
        """Launch the loop thread; returns once the socket is bound.

        A bind failure (a taken port, say) is raised here as the
        :class:`OSError` itself, as soon as the loop thread meets it.
        """
        self._thread = threading.Thread(
            target=self._run, name="repro-tls-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start")
        if self._start_error is not None:
            self._thread.join(timeout=10)
            raise self._start_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self._server = await start_server(self.service, self.host,
                                              self.port)
        except OSError as exc:
            self._start_error = exc
            self._ready.set()
            return
        self.port = bound_port(self._server)
        self._ready.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    @property
    def base_url(self) -> str:
        """The server's root URL."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join the loop thread."""
        loop = self._loop
        if loop is not None and self._server is not None:
            server = self._server

            def _shutdown() -> None:
                # Closing the server stops serve_forever; cancelling the
                # remaining tasks lets asyncio.run tear the loop down.
                server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            # One combined callback: scheduling close and cancel as two
            # separate threadsafe calls leaves a window where the first
            # ends serve_forever and asyncio.run closes the loop before
            # the second is scheduled, raising "Event loop is closed".
            try:
                loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:
                pass  # loop already closed: the thread is already exiting
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.close()
