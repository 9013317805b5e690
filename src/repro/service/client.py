"""Blocking HTTP client for the simulation service (stdlib only).

:class:`ServiceClient` speaks the ``repro-tls serve`` API from scripts,
tests, the CI smoke driver, and the ``repro-tls sweep --server``
passthrough. One client holds one keep-alive connection for
request/response calls; the progress stream opens its own connection
(it occupies one until the sweep's terminal event).

Verification is built in: :meth:`result_from_envelope` reconstructs the
:class:`~repro.core.results.SimulationResult` and checks the envelope's
``digest`` against the locally recomputed canonical byte form, so a
client never silently accepts a result that differs from what a local
run would have produced.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.service.app import canonical_payload_digest


class ServiceClientError(ReproError):
    """A request the server refused (or a transport failure)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


class ServiceClient:
    """Blocking JSON client for one service frontend."""

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        parts = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ServiceClientError(
                0, "bad_url", f"only http:// is supported, got {base_url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(self, method: str, path: str,
                 body: dict[str, Any] | None = None) -> dict[str, Any]:
        """One request/response exchange, retried once on a stale socket."""
        payload = _encode(body) if body is not None else None
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                self.close()
                if attempt:
                    raise ServiceClientError(
                        0, "transport",
                        f"{method} {path} failed: {exc}") from exc
        return self._decode(method, path, response.status, raw)

    @staticmethod
    def _decode(method: str, path: str, status: int,
                raw: bytes) -> dict[str, Any]:
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceClientError(
                status, "bad_response",
                f"{method} {path}: non-JSON response ({exc})")
        if status >= 400:
            error = (data.get("error") or {}) if isinstance(data, dict) \
                else {}
            raise ServiceClientError(
                status, error.get("code", "error"),
                error.get("message", f"{method} {path} -> HTTP {status}"))
        if not isinstance(data, dict):
            raise ServiceClientError(status, "bad_response",
                                     f"{method} {path}: expected an object")
        data["_status"] = status
        return data

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def cache_stats(self) -> dict[str, Any]:
        """``GET /v1/cache/stats``."""
        return self._request("GET", "/v1/cache/stats")

    def submit_job(self, request: dict[str, Any]) -> dict[str, Any]:
        """``POST /v1/jobs``: run (or replay) one job, returning its
        envelope (``key``/``source``/``digest``/``result``)."""
        return self._request("POST", "/v1/jobs", body=request)

    def get_job(self, key: str) -> dict[str, Any]:
        """``GET /v1/jobs/{key}``: fetch a cached result envelope.

        A 202 (still computing) returns ``{"status": "running"}`` with
        ``_status == 202``; a 404 raises ``unknown_key``.
        """
        return self._request("GET", f"/v1/jobs/{key}")

    def submit_sweep(self, request: dict[str, Any]) -> dict[str, Any]:
        """``POST /v1/sweeps``: launch a grid; returns the sweep summary
        (``sweep_id``/``keys``/``total``/``events_url``)."""
        return self._request("POST", "/v1/sweeps", body=request)

    def sweep_status(self, sweep_id: str) -> dict[str, Any]:
        """``GET /v1/sweeps/{id}``."""
        return self._request("GET", f"/v1/sweeps/{sweep_id}")

    def stream_events(self, sweep_id: str) -> Iterator[dict[str, Any]]:
        """``GET /v1/sweeps/{id}/events``: yield progress events.

        Blocks between events; returns after the terminal ``end`` event.
        Uses a dedicated connection so the client's request/response
        channel stays usable while streaming.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/sweeps/{sweep_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                self._decode("GET", f"/v1/sweeps/{sweep_id}/events",
                             response.status, response.read())
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                yield event
                if event.get("event") == "end":
                    return
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------
    @staticmethod
    def result_from_envelope(envelope: dict[str, Any],
                             verify: bool = True) -> Any:
        """Reconstruct the result carried by a job envelope.

        With ``verify`` (the default) the payload's canonical digest is
        recomputed locally and compared against the envelope's
        ``digest`` — a mismatch means the bytes were corrupted or the
        server runs a different engine version, and raises.
        """
        from repro.runner.runner import result_from_payload

        payload = envelope.get("result")
        if not isinstance(payload, dict):
            raise ServiceClientError(0, "bad_envelope",
                                     "envelope carries no result payload")
        if verify:
            expected = envelope.get("digest")
            actual = canonical_payload_digest(
                _encode(payload))
            if expected != actual:
                raise ServiceClientError(
                    0, "digest_mismatch",
                    f"result digest {actual} does not match the "
                    f"envelope's {expected}: corrupted transfer or "
                    f"mismatched engine versions")
        return result_from_payload(payload)
