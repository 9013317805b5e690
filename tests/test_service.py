"""End-to-end tests of the ``repro-tls serve`` HTTP/JSON service.

A real server (``ServiceThread``: the asyncio frontend on a background
loop) backed by a temporary sharded cache directory, spoken to with the
blocking ``ServiceClient`` — the same harness the CI smoke driver uses.
The contracts under test: digest-verified bit-identity with direct
``SweepRunner`` execution, warm lookups served from the memory tier,
single-flight collapse of concurrent identical submissions, streamed
per-cell progress, and structured 4xx errors for every refusal.
"""

import errno
import socket
import statistics
import threading
import time

import pytest

from repro.analysis.serialization import canonical_result_bytes
from repro.runner import SimJob, SweepRunner, WorkloadSpec
from repro.core.config import NUMA_16
from repro.core.taxonomy import MULTI_T_MV_LAZY, SINGLE_T_EAGER
from repro.service import (
    MAX_SWEEP_CELLS,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    ServiceThread,
    SimulationService,
    job_from_request,
    jobs_from_sweep_request,
)
from tests.conftest import CORRUPTIONS, corrupt, headerless

SCALE = 0.1
APP = "Euler"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live frontend shared by the module's tests."""
    service = SimulationService(
        cache_dir=tmp_path_factory.mktemp("service-cache"), jobs=2)
    thread = ServiceThread(service).start()
    yield thread
    thread.stop()


@pytest.fixture()
def client(server):
    c = ServiceClient(server.base_url)
    yield c
    c.close()


def _job_request(seed=0, scheme="MultiT&MV Lazy AMM"):
    return {"app": APP, "machine": "numa16", "scheme": scheme,
            "seed": seed, "scale": SCALE}


def _direct_result(seed=0, scheme=MULTI_T_MV_LAZY):
    job = SimJob(machine=NUMA_16,
                 workload=WorkloadSpec(APP, seed=seed, scale=SCALE),
                 scheme=scheme)
    return SweepRunner(jobs=1, cache=None).run(job)


# ----------------------------------------------------------------------
# Basic liveness and the job path
# ----------------------------------------------------------------------
def test_healthz(client):
    assert client.health()["status"] == "ok"


def test_job_round_trip_is_bit_identical_to_a_direct_run(client):
    envelope = client.submit_job(_job_request())
    assert set(envelope) >= {"key", "source", "digest", "result"}
    result = ServiceClient.result_from_envelope(envelope)
    direct = _direct_result()
    assert canonical_result_bytes(result) == canonical_result_bytes(direct)


def test_first_submission_computes_then_serves_warm(client):
    request = _job_request(seed=101)
    first = client.submit_job(request)
    assert first["source"] == "computed"
    again = client.submit_job(request)
    assert again["source"] == "memory"
    assert again["digest"] == first["digest"]
    fetched = client.get_job(first["key"])
    assert fetched["source"] == "memory"
    assert fetched["digest"] == first["digest"]


def test_sequential_baseline_over_the_wire(client):
    from repro.analysis.serialization import sequential_result_to_dict

    envelope = client.submit_job({"app": APP, "scheme": None,
                                  "scale": SCALE})
    result = ServiceClient.result_from_envelope(envelope)
    assert result.total_cycles > 0
    direct = _direct_result(scheme=None)
    # Sequential results have no canonical-bytes form; their full
    # serialization (which carries no host-measured field) is the
    # equality.
    assert (sequential_result_to_dict(result)
            == sequential_result_to_dict(direct))


def test_digest_mismatch_is_detected():
    envelope = {"key": "k", "digest": "0" * 64,
                "result": {"kind": "sequential", "app": "X",
                           "total_cycles": 1}}
    with pytest.raises(ServiceClientError, match="digest"):
        ServiceClient.result_from_envelope(envelope)


def test_a_taken_port_fails_start_at_once_with_the_bind_error():
    held = socket.socket()
    held.bind(("127.0.0.1", 0))
    held.listen()
    service = SimulationService(use_disk=False, jobs=1)
    try:
        started = time.monotonic()
        with pytest.raises(OSError) as caught:
            ServiceThread(service, port=held.getsockname()[1]).start()
        assert time.monotonic() - started < 5
        assert caught.value.errno == errno.EADDRINUSE
    finally:
        service.close()
        held.close()


def test_warm_lookup_is_fast(client):
    key = client.submit_job(_job_request())["key"]
    client.get_job(key)  # ensure the connection + memory tier are warm
    samples = []
    for _ in range(30):
        start = time.perf_counter()
        envelope = client.get_job(key)
        samples.append(time.perf_counter() - start)
        assert envelope["source"] == "memory"
    median = statistics.median(samples)
    # The acceptance target is < 1 ms on an idle host; CI boxes are
    # noisy, so the test gate is an order of magnitude looser. The
    # serve-smoke driver reports the honest number.
    assert median < 0.05, f"warm GET median {median * 1e3:.2f} ms"


# ----------------------------------------------------------------------
# Sweeps: streaming, status, identity
# ----------------------------------------------------------------------
def test_sweep_streams_progress_and_lands_every_cell(client):
    sweep = client.submit_sweep({
        "apps": [APP],
        "schemes": ["MultiT&MV Lazy AMM", "SingleT Eager AMM"],
        "seed": 7, "scale": SCALE,
    })
    assert sweep["_status"] == 202
    assert sweep["total"] == 2 and len(sweep["keys"]) == 2
    events = list(client.stream_events(sweep["sweep_id"]))
    assert events[-1]["event"] == "end"
    assert events[-1]["status"] == "done"
    results = [e for e in events if e["event"] == "result"]
    assert {e["key"] for e in results} == set(sweep["keys"])
    assert [e["done"] for e in results] == [1, 2]
    assert all(e["total"] == 2 for e in results)

    status = client.sweep_status(sweep["sweep_id"])
    assert status["status"] == "done" and status["done"] == 2

    # Every cell is fetchable, digest-verified, and bit-identical to a
    # direct runner execution of the same job.
    for key, scheme in zip(sweep["keys"],
                           (MULTI_T_MV_LAZY, SINGLE_T_EAGER)):
        result = ServiceClient.result_from_envelope(client.get_job(key))
        direct = _direct_result(seed=7, scheme=scheme)
        assert (canonical_result_bytes(result)
                == canonical_result_bytes(direct))


def test_late_subscriber_replays_the_full_history(client):
    sweep = client.submit_sweep({"apps": [APP],
                                 "schemes": ["MultiT&MV Lazy AMM"],
                                 "seed": 8, "scale": SCALE})
    # Wait for completion via one stream, then subscribe again: the
    # second subscriber must still see every event from the beginning.
    first = list(client.stream_events(sweep["sweep_id"]))
    second = list(client.stream_events(sweep["sweep_id"]))
    assert second == first
    assert second[-1]["event"] == "end"


def test_concurrent_identical_sweeps_compute_each_cell_once(server, client):
    body = {"apps": [APP],
            "schemes": ["MultiT&MV Lazy AMM", "SingleT Eager AMM"],
            "seed": 909, "scale": SCALE}
    before = client.cache_stats()["shared"]["stores"]

    outcomes = []

    def submit_and_drain():
        c = ServiceClient(server.base_url)
        try:
            sweep = c.submit_sweep(body)
            events = list(c.stream_events(sweep["sweep_id"]))
            outcomes.append((sweep, events))
        finally:
            c.close()

    threads = [threading.Thread(target=submit_and_drain) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(outcomes) == 2
    assert all(events[-1]["status"] == "done" for _, events in outcomes)
    after = client.cache_stats()["shared"]["stores"]
    # Two identical 2-cell sweeps → exactly 2 stores: the second sweep
    # joined flights or replayed tiers, never recomputed.
    assert after - before == 2


def test_warm_sweep_streams_without_decoding_a_result(monkeypatch):
    import repro.runner.runner as runner_mod

    service = SimulationService(use_disk=False, jobs=1)
    thread = ServiceThread(service).start()
    c = ServiceClient(thread.base_url)
    try:
        body = {"apps": [APP],
                "schemes": ["MultiT&MV Lazy AMM", "SingleT Eager AMM"],
                "seed": 11, "scale": 0.03}
        cold = c.submit_sweep(body)
        assert list(c.stream_events(cold["sweep_id"]))[-1]["status"] == "done"

        decodes = []
        real_decode = runner_mod.result_from_payload

        def counting_decode(payload):
            decodes.append(payload)
            return real_decode(payload)

        monkeypatch.setattr(runner_mod, "result_from_payload",
                            counting_decode)
        warm = c.submit_sweep(body)
        events = list(c.stream_events(warm["sweep_id"]))
        assert decodes == []
        assert warm["keys"] == cold["keys"]
        assert events == [
            *({"event": "result", "key": key, "source": "memory",
               "done": done, "total": 2}
              for done, key in enumerate(warm["keys"], start=1)),
            {"event": "end", "status": "done", "done": 2, "total": 2},
        ]
    finally:
        c.close()
        thread.stop()


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_undecodable_entry_is_404_then_recomputed(tmp_path, monkeypatch,
                                                  kind):
    from repro.runner import ResultCache
    from repro.runner.runner import decode_payload

    request = {"app": APP, "machine": "numa16",
               "scheme": "MultiT&MV Lazy AMM", "scale": 0.03}
    job = job_from_request(request)
    key = job.cache_key()
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    path = ResultCache(tmp_path).path_for(key)
    bad = corrupt(path.read_bytes(), kind)
    path.write_bytes(bad)

    service = SimulationService(cache_dir=str(tmp_path), jobs=1)
    memory = service.runner.memory_cache
    promoted = []
    real_store = memory.store

    def recording_store(store_key, raw):
        promoted.append(raw)
        real_store(store_key, raw)

    monkeypatch.setattr(memory, "store", recording_store)
    thread = ServiceThread(service).start()
    c = ServiceClient(thread.base_url)
    try:
        error = _refused(c.get_job, key)
        assert (error.status, error.code) == (404, "unknown_key")
        first = c.submit_job(request)
        second = c.submit_job(request)
    finally:
        c.close()
        thread.stop()
    assert (first["source"], second["source"]) == ("computed", "memory")
    assert first["key"] == key
    assert first["digest"] == second["digest"]
    result = ServiceClient.result_from_envelope(first)
    assert canonical_result_bytes(result) == canonical_result_bytes(
        decode_payload(path.read_bytes()))
    assert bad not in promoted
    assert promoted == [path.read_bytes()]


def test_serving_takes_the_stored_digest_and_computes_none(tmp_path,
                                                         monkeypatch):
    import hashlib

    from repro.runner import ResultCache
    from repro.runner.entry import entry_digest
    from repro.service import app as app_module

    request = {"app": APP, "machine": "numa16",
               "scheme": "MultiT&MV Lazy AMM", "scale": 0.03}
    job = job_from_request(request)
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    stored = ResultCache(tmp_path).load_raw(job.cache_key())

    def no_digest(raw):
        raise AssertionError("the serve path computed a digest")

    monkeypatch.setattr(app_module, "canonical_payload_digest", no_digest)
    service = SimulationService(cache_dir=str(tmp_path), jobs=1)
    thread = ServiceThread(service).start()
    c = ServiceClient(thread.base_url)
    try:
        disk = c.get_job(job.cache_key())
        memory = c.get_job(job.cache_key())
        posted = c.submit_job(request)
    finally:
        c.close()
        thread.stop()
    assert [e["source"] for e in (disk, memory, posted)] \
        == ["disk", "memory", "memory"]
    fresh = SweepRunner(jobs=1, cache=None).run(job)
    reference = hashlib.sha256(canonical_result_bytes(fresh)).hexdigest()
    assert entry_digest(stored) == reference
    assert [e["digest"] for e in (disk, memory, posted)] == [reference] * 3


def test_headerless_entries_keep_serving(tmp_path):
    import hashlib

    from repro.runner import ResultCache
    from repro.runner.entry import is_entry

    request = {"app": APP, "machine": "numa16",
               "scheme": "MultiT&MV Lazy AMM", "scale": 0.03}
    job = job_from_request(request)
    key = job.cache_key()
    fresh = SweepRunner(jobs=1, cache=None).run(job)
    reference = hashlib.sha256(canonical_result_bytes(fresh)).hexdigest()
    # A cache written before entries carried a header.
    path = ResultCache(tmp_path).path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(headerless(fresh))

    service = SimulationService(cache_dir=str(tmp_path), jobs=1)
    thread = ServiceThread(service).start()
    c = ServiceClient(thread.base_url)
    try:
        first = c.get_job(key)
        second = c.get_job(key)
    finally:
        c.close()
        thread.stop()
    assert (first["source"], second["source"]) == ("disk", "memory")
    assert first["digest"] == second["digest"] == reference
    result = ServiceClient.result_from_envelope(first)  # verifies
    assert canonical_result_bytes(result) == canonical_result_bytes(fresh)
    assert is_entry(path.read_bytes())
    assert service.runner.cache.stats.stores == 1


# ----------------------------------------------------------------------
# Refusals: structured errors on every bad input
# ----------------------------------------------------------------------
def _refused(call, *args):
    with pytest.raises(ServiceClientError) as info:
        call(*args)
    return info.value


def test_unknown_app_is_a_structured_400(client):
    error = _refused(client.submit_job, {"app": "NotAnApp"})
    assert (error.status, error.code) == (400, "unknown_app")


def test_unknown_machine_and_scheme_are_refused(client):
    error = _refused(client.submit_job,
                     {"app": APP, "machine": "vax780"})
    assert (error.status, error.code) == (400, "unknown_machine")
    error = _refused(client.submit_job,
                     {"app": APP, "scheme": "MadeUp Scheme"})
    assert (error.status, error.code) == (400, "unknown_scheme")


def test_traced_jobs_are_refused_as_uncacheable(client):
    error = _refused(client.submit_job, {"app": APP, "traced": True})
    assert (error.status, error.code) == (400, "uncacheable")


def test_malformed_json_body_is_a_structured_400(client):
    conn = client._connection()
    conn.request("POST", "/v1/jobs", body=b"{not json",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    client.close()  # the server closes errored connections
    assert response.status == 400
    import json
    assert json.loads(raw)["error"]["code"] == "bad_json"


def test_unknown_key_and_sweep_are_404(client):
    error = _refused(client.get_job, "f" * 64)
    assert (error.status, error.code) == (404, "unknown_key")
    error = _refused(client.sweep_status, "s999999")
    assert (error.status, error.code) == (404, "unknown_sweep")
    error = _refused(client._request, "GET", "/v1/nothing/here")
    assert (error.status, error.code) == (404, "not_found")


def test_wrong_method_is_405(client):
    error = _refused(client._request, "GET", "/v1/jobs")
    assert (error.status, error.code) == (405, "method_not_allowed")
    error = _refused(client._request, "POST", "/healthz", {})
    assert (error.status, error.code) == (405, "method_not_allowed")


def test_cache_stats_shape(client):
    stats = client.cache_stats()
    assert set(stats) >= {"engine_version", "memory", "shared",
                          "singleflight", "service", "sweeps"}
    assert stats["shared"]["backend"].startswith("directory:")
    assert stats["memory"]["entries"] >= 1
    assert stats["service"]["jobs.submitted"] >= 1


# ----------------------------------------------------------------------
# Hardening: hostile keys, hostile framing, bounded state
# ----------------------------------------------------------------------
def test_traversal_shaped_keys_are_refused(client):
    # Anything that is not a 64-hex digest — path components included —
    # must 404 before reaching a cache tier, not address the filesystem.
    for key in ("../../../etc/passwd", "/etc/hostname", "..",
                "deadbeef", "F" * 64, "f" * 63, "f" * 65):
        error = _refused(client._request, "GET", f"/v1/jobs/{key}")
        assert (error.status, error.code) == (404, "unknown_key"), key


def _raw_exchange(server, payload: bytes) -> bytes:
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        sock.settimeout(10)
        chunks = []
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def test_negative_content_length_is_a_structured_400(server):
    raw = _raw_exchange(
        server,
        b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 400 ")
    assert b'"bad_request"' in raw


def test_silent_connection_is_dropped_after_timeout(server, monkeypatch):
    from repro.service import http as http_module

    monkeypatch.setattr(http_module, "KEEPALIVE_TIMEOUT", 0.2)
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.settimeout(5)
        # Send nothing: the server must close the connection rather
        # than pin a handler task open forever.
        assert sock.recv(4096) == b""


def test_non_get_on_events_is_405(client):
    error = _refused(client._request, "POST", "/v1/sweeps/s000001/events",
                     {})
    assert (error.status, error.code) == (405, "method_not_allowed")
    error = _refused(client._request, "DELETE", "/v1/sweeps/zzz/events")
    assert (error.status, error.code) == (405, "method_not_allowed")


def test_finished_sweeps_are_pruned_but_running_ones_kept(monkeypatch):
    from repro.service import app as app_module
    from repro.service.app import SweepState

    monkeypatch.setattr(app_module, "MAX_FINISHED_SWEEPS", 4)
    service = SimulationService(use_disk=False)
    try:
        for i in range(10):
            sweep_id = f"s{i:06d}"
            service._sweeps[sweep_id] = SweepState(
                sweep_id=sweep_id, keys=[], descriptions=[], total=0,
                status="done")
        service._sweeps["running"] = SweepState(
            sweep_id="running", keys=[], descriptions=[], total=1)
        service._prune_finished_sweeps()
        finished = [s for s in service._sweeps.values() if s.finished]
        assert len(finished) == 4
        # Oldest finished dropped, newest kept, running untouched.
        assert "s000000" not in service._sweeps
        assert "s000009" in service._sweeps
        assert "running" in service._sweeps
    finally:
        service.close()


# ----------------------------------------------------------------------
# Request validation (no server needed)
# ----------------------------------------------------------------------
def test_job_request_defaults():
    job = job_from_request({"app": APP})
    assert job.machine is NUMA_16
    # Scheme omitted (or null) means the sequential baseline.
    assert job.scheme is None
    job = job_from_request({"app": APP, "scheme": "MultiT&MV Lazy AMM"})
    assert job.scheme is MULTI_T_MV_LAZY


def test_sweep_request_grid_shape_and_bounds():
    jobs = jobs_from_sweep_request({
        "apps": [APP], "schemes": ["MultiT&MV Lazy AMM", None],
        "scale": SCALE,
    })
    assert len(jobs) == 2
    assert {j.scheme for j in jobs} == {MULTI_T_MV_LAZY, None}

    with pytest.raises(ServiceError) as info:
        jobs_from_sweep_request({"machines": ["numa16"] * 100,
                                 "scale": SCALE})
    assert info.value.code == "grid_too_large"
    assert 100 * 8 * 7 > MAX_SWEEP_CELLS  # the arithmetic the test rides

    with pytest.raises(ServiceError) as info:
        jobs_from_sweep_request({"machine": "numa16",
                                 "machines": ["cmp8"]})
    assert info.value.code == "bad_field"


def test_field_bounds_are_enforced():
    for bad in ({"app": APP, "scale": 0.0},
                {"app": APP, "scale": 1e9},
                {"app": APP, "seed": -1},
                {"app": APP, "seed": "zero"},
                {"app": APP, "collect_metrics": "yes"},
                {"app": APP, "violation_granularity": "page"},
                "not an object"):
        with pytest.raises(ServiceError) as info:
            job_from_request(bad)
        assert info.value.status == 400


def test_parsed_jobs_key_without_rederiving_the_machine():
    import dataclasses
    import hashlib
    import json
    import pickle

    from repro.analysis.experiments import FIGURE10_SCHEMES
    from repro.core.taxonomy import AMM_SCHEMES
    from repro.workloads.apps import APPLICATION_ORDER

    apps = list(APPLICATION_ORDER)
    amm = [scheme.name for scheme in AMM_SCHEMES]
    numa = amm + [scheme.name for scheme in FIGURE10_SCHEMES
                  if scheme.name not in amm]
    sweeps = [
        {"machines": ["numa16"], "schemes": numa + [None], "apps": apps},
        {"machines": ["cmp8"], "schemes": amm + [None], "apps": apps},
        {"machines": ["numa16-bigl2"], "schemes": ["MultiT&MV Lazy AMM"],
         "apps": ["P3m"]},
    ]
    jobs = [job for body in sweeps
            for job in jobs_from_sweep_request({**body, "scale": 0.03})]
    jobs += [job_from_request({"app": app, "machine": "cmp8",
                               "scheme": scheme, "scale": 0.03})
             for scheme in ("MultiT&MV FMM", "MultiT&MV FMM.Sw")
             for app in apps]
    keys = set()
    for job in jobs:
        unkeyed = pickle.dumps(job)
        identity = job.identity()
        identity["machine"] = dataclasses.asdict(job.machine)
        fresh = hashlib.sha256(
            json.dumps(identity, sort_keys=True).encode()).hexdigest()
        assert job.cache_key() == fresh
        assert pickle.dumps(job) == unkeyed
        keys.add(fresh)
    assert len(keys) == len(jobs) == 127
    # The memo is never handed out: a caller's copy is its own.
    machine = jobs[0].machine
    mine = machine.identity()
    mine["l1"]["size_bytes"] = -1
    mine["lat_memory_by_hops"].clear()
    assert machine.identity() == dataclasses.asdict(machine)
    assert jobs[0].identity()["machine"] == dataclasses.asdict(machine)
