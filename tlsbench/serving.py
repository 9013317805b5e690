"""The serve-mixed workload: a ``repro-tls serve`` frontend over HTTP.

The untraced run starts ``repro-tls serve`` (default flags, ``--port 0``)
over a private copy of the warm cache :data:`scenarios.SETUPS` times,
timing each start until ``/healthz`` answers, and keeps the last one.
Then, from one benchmark process with at most two connections, with
client and server pinned to one CPU (:func:`pin_to_one_cpu`):

* **Reads** (until 80% of ``--seconds``), in rounds, each request order
  seeded: a warm ``GET /v1/jobs/{key}`` of every grid cell (``get_ms``;
  the first round only promotes keys from disk and is not sampled); the
  grid as three ``POST /v1/sweeps`` streamed to their terminal events
  (``grid_s``; the 49-cell CMP-8 sweep, Figure-9-sized, gives
  ``sweep_ms``); the grid as 113 warm ``POST /v1/jobs`` (``hot_grid_s``,
  per request ``post_ms``).
* **Reads beside writes**: one connection keeps GETting warm keys
  (``busy_get_ms``) while the other POSTs the 14 cold single cells one at
  a time (``cold_post_ms``); each computes in a frontend thread.

Every envelope is checked twice: its ``digest`` and the decoded result's
own digest against the reference. A body byte-identical to one already
checked for that key counts as checked.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict

import cells
import measure
import scenarios

#: Share of ``--seconds`` spent in the reads phase.
READS_SHARE = 0.8
#: Reads rounds of each traced leg.
TRACE_ROUNDS = 3


class Http:
    """One keep-alive connection; failures come back as status 0."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self.requests = 0
        self.errors = 0
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str,
                body: dict | None = None) -> tuple[int, bytes]:
        self.requests += 1
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout)
        payload = json.dumps(body).encode() if body is not None else None
        try:
            self._conn.request(method, path, body=payload,
                               headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            status, data = 0, f"{type(exc).__name__}: {exc}".encode()
        if not 200 <= status < 300:
            self.errors += 1
        return status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Session:
    """The client side of one serve-mixed run against one frontend."""

    def __init__(self, run: scenarios.Run, port: int) -> None:
        self.run = run
        self.port = port
        self.main = Http(port)
        self.verified: dict[str, set[bytes]] = defaultdict(set)
        self.sweeps = []
        for body in cells.grid_sweeps():
            chosen = {cells.Cell(machine, scheme, app)
                      for machine in body["machines"]
                      for scheme in body["schemes"] for app in body["apps"]}
            keys = {entry.key for entry in run.grid if entry.cell in chosen}
            self.sweeps.append(({**body, "seed": run.wseed,
                                 "scale": run.opt.scale}, keys))
        self.connections = [self.main]

    # ------------------------------------------------------------------
    def envelope_ok(self, key: str, status: int, body: bytes,
                    what: str) -> bool:
        """Check one result envelope: status, digest, decoded result."""
        checker = self.run.checker
        if status != 200:
            checker.note(f"{what} {key[:12]}: HTTP {status} "
                         f"{body[:120]!r}")
            return False
        if body in self.verified[key]:
            return True
        from repro.runner import result_from_payload

        with self.run.tracer.paused():
            try:
                envelope = json.loads(body)
                result = result_from_payload(envelope["result"])
            except (ValueError, KeyError, TypeError) as exc:
                checker.note(f"{what} {key[:12]}: bad envelope ({exc})")
                return False
            ok = (envelope.get("key") == key
                  and checker.digest_ok(key, envelope.get("digest", ""),
                                        f"{what} envelope")
                  and checker.digest_ok(key, cells.result_digest(result),
                                        f"{what} result"))
        if ok:
            self.verified[key].add(body)
        return ok

    def timed(self, conn: Http, method: str, path: str,
              body: dict | None = None) -> tuple[int, bytes, float]:
        tag = "http.stream" if path.endswith("/events") else "http.request"
        start = time.perf_counter()
        with self.run.tracer.span(tag, f"{method} {path}"):
            status, data = conn.request(method, path, body)
        return status, data, (time.perf_counter() - start) * 1000.0

    def get(self, conn: Http, entry, sample: str | None) -> None:
        status, body, ms = self.timed(conn, "GET", f"/v1/jobs/{entry.key}")
        if self.run.checker.record(
                self.envelope_ok(entry.key, status, body, "GET")) and sample:
            self.run.samples[sample].append(ms)

    def post(self, conn: Http, entry, sample: str) -> bool:
        request = entry.cell.request(self.run.opt.scale, self.run.wseed)
        status, body, ms = self.timed(conn, "POST", "/v1/jobs", request)
        ok = self.run.checker.record(
            self.envelope_ok(entry.key, status, body, "POST"))
        if ok:
            self.run.samples[sample].append(ms)
        return ok

    def sweep(self, body: dict, keys: set[str]) -> bool:
        """POST one sweep and stream its events to the terminal one."""
        checker = self.run.checker
        status, data, ms = self.timed(self.main, "POST", "/v1/sweeps", body)
        if status != 202:
            return checker.record(False, f"POST /v1/sweeps: HTTP {status}")
        state = json.loads(data)
        if set(state.get("keys", ())) != keys:
            return checker.record(False, "sweep keys differ from the grid")
        stream = Http(self.port)
        self.connections.append(stream)
        try:
            status, data, stream_ms = self.timed(stream, "GET",
                                                 state["events_url"])
        finally:
            stream.close()
        try:
            events = [json.loads(line) for line in data.splitlines()
                      if line.strip()]
        except ValueError:
            events = []
        end = events[-1] if events else {}
        ok = (status == 200 and end.get("event") == "end"
              and end.get("status") == "done"
              and end.get("done") == end.get("total") == len(keys)
              and {event.get("key") for event in events[:-1]} == keys)
        if checker.record(ok, None if ok else
                          f"sweep stream ended with {end}"):
            if len(keys) == 49:
                self.run.samples["sweep_ms"].append(ms + stream_ms)
        return ok

    # ------------------------------------------------------------------
    def reads_round(self, first: bool) -> None:
        run = self.run
        for entry in run.shuffled(run.grid):
            self.get(self.main, entry, None if first else "get_ms")
        start = time.perf_counter()
        oks = [self.sweep(body, keys)
               for body, keys in run.shuffled(self.sweeps)]
        if all(oks):
            run.samples["grid_s"].append(time.perf_counter() - start)
        start = time.perf_counter()
        oks = [self.post(self.main, entry, "post_ms")
               for entry in run.shuffled(run.grid)]
        if all(oks):
            run.samples["hot_grid_s"].append(time.perf_counter() - start)

    def busy_phase(self) -> None:
        """GETs on one connection while the other POSTs cold cells."""
        run = self.run
        writer_conn = Http(self.port, timeout=120.0)
        self.connections.append(writer_conn)
        done = threading.Event()

        def _writer() -> None:
            try:
                for entry in run.shuffled(run.cold):
                    self.post(writer_conn, entry, "cold_post_ms")
            finally:
                done.set()

        writer = threading.Thread(target=_writer, name="tlsbench-writer")
        writer.start()
        try:
            keys = run.shuffled(run.grid)
            index = 0
            while not done.is_set():
                self.get(self.main, keys[index % len(keys)], "busy_get_ms")
                index += 1
        finally:
            writer.join()
            writer_conn.close()

    def drive(self, reads_until: float | None, rounds: int | None) -> None:
        """Reads rounds (until a time or for a count), then the busy
        phase. A failed request is counted and, so that a dead frontend
        cannot spin the loop, followed by a short pause."""
        first, done = True, 0
        while True:
            failed = self.run.checker.failed
            self.reads_round(first)
            first, done = False, done + 1
            if self.run.checker.failed > failed:
                time.sleep(0.05)
            if rounds is not None and done >= rounds:
                break
            # The first round only promotes keys; sample at least one.
            if (reads_until is not None and done >= 2
                    and time.perf_counter() >= reads_until):
                break
        self.busy_phase()
        self.main.close()

    def http_counts(self) -> dict[str, float]:
        return {"http.requests": float(sum(c.requests
                                           for c in self.connections)),
                "http.errors": float(sum(c.errors
                                         for c in self.connections))}


# ----------------------------------------------------------------------
# The frontend as a subprocess (untraced) or in-process (traced)
# ----------------------------------------------------------------------
_LISTEN_RE = re.compile(r":(\d+)\s*$")


def start_server(cache_dir: str) -> tuple[subprocess.Popen, int, float]:
    """Launch ``repro-tls serve``; seconds until ``/healthz`` is 200."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.analysis.cli", "serve",
         "--port", "0", "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, text=True, env=measure.program_env())
    try:
        line = measure.read_line_until(proc, "listening on", 60)
        port = int(_LISTEN_RE.search(line.strip()).group(1))
        probe = Http(port, timeout=5.0)
        deadline = time.monotonic() + 60
        while probe.request("GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline or proc.poll() is not None:
                raise RuntimeError("serve never answered /healthz")
            time.sleep(0.005)
        elapsed = time.perf_counter() - start
        probe.close()
    except BaseException:
        measure.stop_process(proc)
        raise
    return proc, port, elapsed


def pin_to_one_cpu() -> None:
    """Pin this process, and so the servers it starts afterwards, to one
    CPU. Request/response ping-pong across two vCPUs of a virtual machine
    pays a cross-CPU wake-up per request whose cost swings with the
    host's load (warm-GET p99 10-12 ms vs 1.1-1.3 ms pinned, measured on
    a 2-vCPU VM); on one CPU the client's wait hands the CPU straight to
    the server."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def serve_mixed(run: scenarios.Run) -> None:
    pin_to_one_cpu()
    cache_dir = scenarios.warm_fixture(run)
    proc = None
    killer = None
    try:
        run.samples["setup_s"] = []
        for _ in range(scenarios.SETUPS):
            if proc is not None:
                measure.stop_process(proc)
            proc, port, seconds = start_server(cache_dir)
            run.samples["setup_s"].append(seconds)
        session = Session(run, port)
        if run.opt.fault == "kill-server":
            killer = threading.Timer(0.3 * run.opt.seconds, proc.kill)
            killer.start()
        with measure.RssMonitor(proc.pid) as rss:
            session.drive(time.perf_counter()
                          + READS_SHARE * run.opt.seconds, None)
        run.peak_rss_mb = rss.peak_mb
    finally:
        if killer is not None:
            killer.cancel()
            killer.join()
        if proc is not None:
            measure.stop_process(proc)
        shutil.rmtree(cache_dir, ignore_errors=True)


def traced_serve_mixed(run: scenarios.Run) -> dict[str, float]:
    """Untraced and traced legs against an in-process ``ServiceThread``
    (spans in a server subprocess cannot be seen from here), each on a
    fresh warm copy: :data:`TRACE_ROUNDS` reads rounds + the busy phase."""
    from repro.service import ServiceThread, SimulationService

    legs = {}
    pin_to_one_cpu()

    def one_leg():
        cache_dir = scenarios.warm_fixture(run)
        thread = ServiceThread(SimulationService(cache_dir=cache_dir))
        try:
            thread.start()
            session = Session(run, thread.port)
            session.drive(None, TRACE_ROUNDS)
            legs["runner"] = thread.service.runner
            legs["http"] = session.http_counts()
        finally:
            thread.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)

    untraced, traced, _value = scenarios.run_legs(run, one_leg)
    out = scenarios.trace_metrics(run, untraced, traced, [legs["runner"]])
    out.update(legs["http"])
    run.notes.append("traced legs host the service in-process "
                     "(ServiceThread): client and server share one "
                     "interpreter lock")
    return out
