"""The persistent execution service: daemon, scheduler, store, client.

Covers the PR-6 acceptance surface:

* client/server round-trip over a unix socket,
* artifact-store hit on a second identical request (recompilation
  provably skipped: one pool task ran),
* worker-crash retry, per-request timeout → clean error,
* backpressure (bounded queue → ``overloaded``),
* graceful-drain ordering (in-flight responses before the drain ack),
* ``Session.local()`` equivalence with ``Jrpm.run()`` (byte-identical
  reports),
* ``RunOptions`` strictness and schema/protocol version gating.
"""

import asyncio
import json
import os
import socket as socket_module
import threading
import time

import pytest

from repro.core.pipeline import Jrpm, JrpmReport
from repro.hydra.config import HydraConfig
from repro.serialize import REPORT_SCHEMA_VERSION, SchemaVersionError
from repro.service import (ArtifactStore, JobScheduler, JobSpec,
                           JrpmClient, JrpmServer, JrpmServiceError,
                           RunOptions, Session, execute_job, protocol)
from repro.workloads import lookup
from conftest import LONG_RUNNING, CrashOnce, SlowJob, wrap_main

TINY = wrap_main("""
        int s = 0;
        for (int i = 0; i < 1500; i = i + 1) { s = s + i * i; }
        return s;
""")

OTHER = wrap_main("""
        int s = 1;
        for (int i = 1; i < 900; i = i + 1) { s = s + i * 3; }
        return s;
""")


# ---------------------------------------------------------------------------
# daemon fixture: a real server on a unix socket, on a background loop
# ---------------------------------------------------------------------------

class ServiceFixture:
    def __init__(self, tmp_path, **server_kwargs):
        kwargs = dict(jobs=2, use_cache=False, timeout=60.0,
                      batch_max=8)
        kwargs.update(server_kwargs)
        self.socket_path = str(tmp_path / "jrpm.sock")
        self.server = JrpmServer(socket_path=self.socket_path, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        # the socket file appears at bind(), a beat before listen() —
        # poll with real connection attempts so no test can race into
        # the bind/listen window under load
        deadline = time.perf_counter() + 10.0
        while True:
            try:
                self.client().close()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                assert time.perf_counter() < deadline, \
                    "daemon never started listening"
                time.sleep(0.02)

    def _serve(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.loop.run_until_complete(self.server.serve_until_drained())

    def client(self):
        return JrpmClient.connect(socket_path=self.socket_path,
                                  timeout=60.0)

    def stop(self):
        if not self.server._done.is_set():
            self.loop.call_soon_threadsafe(self.server.initiate_drain)
        self.thread.join(timeout=20.0)
        assert not self.thread.is_alive(), "daemon failed to drain"
        self.loop.close()


@pytest.fixture
def service(tmp_path):
    fixture = ServiceFixture(tmp_path)
    yield fixture
    fixture.stop()


# ---------------------------------------------------------------------------
# round-trip + artifact store
# ---------------------------------------------------------------------------

def test_client_server_round_trip_unix_socket(service):
    with service.client() as client:
        pong = client.ping()
        assert pong["pong"] is True
        assert pong["protocol"] == protocol.PROTOCOL_VERSION
        assert pong["report_schema"] == REPORT_SCHEMA_VERSION
        report = client.run(TINY, name="tiny")
        assert isinstance(report, JrpmReport)
        assert report.outputs_match()
        assert report.tls_speedup > 1.0


def test_second_identical_profile_request_skips_recompilation(
        fresh_registry, service):
    """Acceptance: the second identical ``profile`` request is served
    from the shared artifact store — the pipeline provably executes
    exactly once (one pool task), and the response says cached."""
    with service.client() as client:
        payload = client.job_payload(TINY, name="tiny")
        first = client.request("profile", payload)
        assert first["annotations"] > 0
        (second, cached, _), = client.request_many(
            [("profile", payload)])
        assert cached is True
        assert second == first
        assert fresh_registry.total("jrpm_store_lookups", verb="profile",
                                    outcome="hit") == 1
        assert fresh_registry.total("jrpm_store_lookups", verb="profile",
                                    outcome="miss") == 1
    assert fresh_registry.total("jrpm_pool_tasks", status="ok") == 1, \
        "second identical request must not recompile"


def test_replies_match_the_pinned_digests_on_miss_and_hit(service):
    """Each job verb's reply for the pinned workload, on the store miss
    that computes it and on the store hit that repeats it, is the one
    in ``tests/golden/report_digests.json`` (``replies``)."""
    import regen_report_digests as digests
    pinned = digests.load_manifest()["replies"]
    with service.client() as client:
        payload = client.job_payload(workload=digests.REPLY_WORKLOAD,
                                     size=digests.SIZE)
        requests = [(verb, payload) for verb in digests.REPLY_VERBS]
        for expect_cached in (False, True):
            settled = client.request_many(requests)
            assert [cached for _, cached, _ in settled] \
                == [expect_cached] * len(requests)
            assert {verb: digests.reply_digest(result) for verb,
                    (result, _, _) in zip(digests.REPLY_VERBS, settled)} \
                == pinned


def test_identical_burst_is_coalesced_to_one_execution(fresh_registry,
                                                       service):
    """Ten pipelined identical requests in one burst → one pipeline
    execution (batching + coalescing), every response identical."""
    with service.client() as client:
        payload = client.job_payload(TINY, name="tiny")
        settled = client.request_many([("run", payload)] * 10)
    results = [result for result, _, _ in settled]
    assert all(not isinstance(result, JrpmServiceError)
               for result in results)
    reports = [result["report"] for result in results]
    assert all(report == reports[0] for report in reports)
    assert fresh_registry.total("jrpm_pool_tasks", status="ok") == 1


def test_stats_verb_reports_queue_store_and_latency(fresh_registry,
                                                   service):
    """``stats`` reports the live queue and store state, no counts; the
    request latency is ``jrpm_service_request_seconds`` in ``metrics``."""
    from repro.metrics import MetricsRegistry
    with service.client() as client:
        client.run(TINY, name="tiny")
        stats = client.stats()
        registry = MetricsRegistry.from_dict(client.metrics()["metrics"])
    assert set(stats) == {"uptime", "started_at", "endpoint",
                          "scheduler", "store"}
    assert stats["scheduler"] == {
        "queue_depth": 0, "queue_limit": 64, "in_flight": 0,
        "workers": 2, "draining": False}
    assert stats["store"] == {"entries": 1, "max_entries": 512,
                              "persistent": False}
    assert stats["endpoint"] == service.socket_path
    assert stats["uptime"] > 0.0
    assert registry.total("jrpm_service_request_seconds",
                          verb="run") == 1
    run_latency = registry.get("jrpm_service_request_seconds") \
        .labels(verb="run")
    assert run_latency.percentile(0.95) >= run_latency.percentile(0.5) \
        > 0.0


# ---------------------------------------------------------------------------
# failure modes: crash retry, timeout, backpressure, bad input
# ---------------------------------------------------------------------------

def test_worker_crash_is_retried_and_succeeds(fresh_registry, service,
                                              tmp_path):
    marker = str(tmp_path / "crash.marker")
    pool = service.server.scheduler._pool
    pool.fn = CrashOnce(marker, pool.fn)
    with service.client() as client:
        result = client.request("run", client.job_payload(TINY,
                                                          name="tiny"))
    assert os.path.exists(marker), "first worker should have died"
    assert fresh_registry.total("jrpm_pool_retries") == 1
    report = JrpmReport.from_dict(result["report"])
    assert report.outputs_match()


def test_request_timeout_is_a_clean_error(service):
    with service.client() as client:
        payload = client.job_payload(
            LONG_RUNNING, name="slow", options=RunOptions(timeout=0.5))
        with pytest.raises(JrpmServiceError) as excinfo:
            client.request("run", payload)
        assert excinfo.value.kind == "timeout"
        # the daemon survives: next request on the same connection works
        assert client.ping()["pong"] is True


def test_bounded_queue_applies_backpressure(tmp_path):
    fixture = ServiceFixture(tmp_path, jobs=1, queue_limit=1,
                             batch_max=1)
    fixture.server.scheduler._pool.fn = SlowJob(0.8)
    try:
        with fixture.client() as client:
            payload = client.job_payload(TINY, name="tiny")
            settled = client.request_many([("run", payload)] * 6)
        kinds = [result.kind if isinstance(result, JrpmServiceError)
                 else "ok" for result, _, _ in settled]
        assert "overloaded" in kinds, kinds
        assert "ok" in kinds, kinds
    finally:
        fixture.stop()


def test_bad_requests_get_clear_errors(service):
    with service.client() as client:
        with pytest.raises(JrpmServiceError) as excinfo:
            client.request("florble", {"source": TINY})
        assert excinfo.value.kind == "bad-request"
        with pytest.raises(JrpmServiceError) as excinfo:
            client.request("run", {})
        assert excinfo.value.kind == "bad-request"
        assert "source" in str(excinfo.value)
        with pytest.raises(JrpmServiceError) as excinfo:
            client.request("run", {"source": TINY,
                                   "options": {"warp_speed": 9}})
        assert excinfo.value.kind == "bad-request"
        assert "warp_speed" in str(excinfo.value)


def test_job_payloads_are_strict_before_queueing(fresh_registry, service,
                                                tmp_path):
    """A job payload carries only what a job computes: a retired test
    hook, a non-string ``source``/``name``/``workload`` and a retired
    verb are each a ``bad-request``, answered before anything is
    queued, so no hook can touch a file."""
    exec_log = tmp_path / "exec.log"
    marker = tmp_path / "crash.marker"
    requests = [("run", {"source": TINY, "exec_log": str(exec_log)}),
                ("run", {"source": TINY, "crash_marker": str(marker)}),
                ("run", {"source": TINY, "delay": 5.0}),
                ("run", {"source": 123}),
                ("run", {"source": TINY, "name": [1, 2]}),
                ("profile", {"workload": 7})]
    requests += [(verb, {"source": TINY})
                 for verb in ("compile", "select", "recompile", "analyze")]
    with service.client() as client:
        settled = client.request_many(requests)
    kinds = [getattr(result, "kind", "ok") for result, _, _ in settled]
    assert kinds == ["bad-request"] * len(requests)
    for (result, _, _), needle in zip(settled, (
            "exec_log", "crash_marker", "delay", "source", "name",
            "workload", "compile", "select", "recompile", "analyze")):
        assert needle in str(result)
    assert fresh_registry.total("jrpm_scheduler_submits") == 0
    assert not exec_log.exists() and not marker.exists()


def test_analysis_option_is_a_bad_request_before_queueing(
        fresh_registry, service):
    """The retired ``analysis`` run option (static pruning) is an
    unknown field: rejected before any job is queued."""
    with service.client() as client:
        with pytest.raises(JrpmServiceError) as excinfo:
            client.request("run", {"source": TINY,
                                   "options": {"analysis": True}})
        assert excinfo.value.kind == "bad-request"
        assert "analysis" in str(excinfo.value)
        assert fresh_registry.total("jrpm_scheduler_submits") == 0


def test_bad_engine_is_a_bad_request_before_queueing(fresh_registry,
                                                     service):
    """A mistyped engine value, or the removed ``fastpath`` option,
    is rejected before any job is queued — never run and cached."""
    with service.client() as client:
        for options, needle in (({"engine": "bogus"}, "bogus"),
                                ({"fastpath": False}, "fastpath")):
            with pytest.raises(JrpmServiceError) as excinfo:
                client.request("run", {"source": TINY,
                                       "options": options})
            assert excinfo.value.kind == "bad-request"
            assert needle in str(excinfo.value)
        assert fresh_registry.total("jrpm_scheduler_submits") == 0


def test_bad_run_option_values_are_bad_requests_before_queueing(
        fresh_registry, service):
    """An unknown ``warm_start`` (the retired ``force`` included) or
    the retired adapt ``policy`` field is rejected before any job is
    queued; the error names the bad value, or the retired field."""
    with service.client() as client:
        for options, needle in (({"warm_start": "force"}, "force"),
                                ({"warm_start": "bogus"}, "bogus"),
                                ({"policy": "nope"}, "policy")):
            with pytest.raises(JrpmServiceError) as excinfo:
                client.request("run_adaptive", {"source": TINY,
                                                "options": options})
            assert excinfo.value.kind == "bad-request"
            assert needle in str(excinfo.value)
        assert fresh_registry.total("jrpm_scheduler_submits") == 0


def test_control_payloads_are_strict(fresh_registry, tmp_path):
    """The ``profdb`` verb works on the daemon's own ``--profdb`` DB
    only and takes only ``op`` and non-negative int caps; ``metrics``
    takes only ``format``; ``ping``, ``stats``, ``version`` and
    ``drain`` take nothing, so a mistyped ``drain`` does not drain; a
    job naming its own ``profile_db`` is refused.  A refused path gets
    no directory and no ``.lock``, and a typo'd cap evicts nothing."""
    fixture = ServiceFixture(tmp_path, jobs=1,
                             profdb_path=str(tmp_path / "daemon"))
    elsewhere = tmp_path / "elsewhere" / "db"
    try:
        with fixture.client() as client:
            client.run(TINY, name="tiny")
            bad = [("profdb", {"op": "gc", "max_programs": 0,
                               "path": str(elsewhere)}),
                   ("profdb", {"op": "gc", "max_program": 0}),
                   ("profdb", {"op": "gc", "max_programs": -1}),
                   ("profdb", {"op": "gc", "max_inputs": "0"}),
                   ("metrics", {"format": "json", "verbose": True}),
                   ("run", {"source": TINY, "options": {
                       "profile_db": str(elsewhere)}}),
                   ("ping", {"bogus": 1}),
                   ("stats", {"bogus": 1}),
                   ("version", {"bogus": 1}),
                   ("drain", {"now": True})]
            settled = client.request_many(bad)
            kinds = [getattr(result, "kind", "ok")
                     for result, _, _ in settled]
            assert kinds == ["bad-request"] * len(bad)
            for (result, _, _), needle in zip(settled, (
                    "path", "max_program", "-1", "'0'", "verbose",
                    "profile_db", "bogus", "bogus", "bogus", "now")):
                assert needle in str(result)
            # the refused drain left the daemon serving
            assert client.ping()["draining"] is False
            stats = client.profdb()["profdb"]
            assert (stats["programs"], stats["runs"]) == (1, 1)
    finally:
        fixture.stop()
    assert not (tmp_path / "elsewhere").exists()
    assert fresh_registry.total("jrpm_scheduler_submits") == 1


def test_profdb_verb_needs_a_daemon_db(service):
    with service.client() as client:
        with pytest.raises(JrpmServiceError) as excinfo:
            client.profdb()
        assert excinfo.value.kind == "bad-request"
        assert "--profdb" in str(excinfo.value)


def test_protocol_version_mismatch_is_rejected(service):
    raw = socket_module.socket(socket_module.AF_UNIX,
                               socket_module.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(service.socket_path)
    try:
        frame = protocol.make_request("x1", "ping")
        frame["v"] = 99
        raw.sendall(protocol.encode_frame(frame))
        response = protocol.decode_frame(
            raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["kind"] == "protocol"
        assert "v%d" % protocol.PROTOCOL_VERSION \
            in response["error"]["message"]
    finally:
        raw.close()


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------

def test_graceful_drain_answers_in_flight_requests_first(tmp_path):
    """Pipelined work followed by ``drain`` on one connection: every
    in-flight response arrives before the drain ack, then the daemon
    refuses new work and shuts down."""
    fixture = ServiceFixture(tmp_path, jobs=2)
    fixture.server.scheduler._pool.fn = SlowJob(0.3)
    client = fixture.client()
    try:
        run_payload = client.job_payload(TINY, name="tiny")
        ids, arrival = [], []
        for verb, payload in [("run", run_payload),
                              ("run", run_payload),
                              ("drain", None)]:
            request_id = client._next_id()
            ids.append(request_id)
            client._send(protocol.make_request(request_id, verb,
                                               payload))
        responses = {}
        while len(responses) < len(ids):
            response = client._recv()
            arrival.append(response["id"])
            responses[response["id"]] = response
        assert arrival[-1] == ids[-1], \
            "drain ack must come after in-flight responses"
        for request_id in ids[:2]:
            assert responses[request_id]["ok"], responses[request_id]
        assert responses[ids[-1]]["result"]["drained"] is True
        fixture.thread.join(timeout=20.0)
        assert not fixture.thread.is_alive()
    finally:
        client.close()
        fixture.stop()


def test_drained_scheduler_rejects_new_submissions(tmp_path):
    store = ArtifactStore()
    scheduler = JobScheduler(store, jobs=1, queue_limit=4, timeout=30.0)
    try:
        spec = JobSpec(verb="profile", source=TINY,
                       options=RunOptions())
        job = scheduler.submit(spec)
        scheduler.drain()
        assert job.future.done()
        assert job.future.result()["annotations"] > 0
        # a store hit is still served while draining (it costs nothing)
        assert scheduler.submit(spec).cached is True
        from repro.service import Draining
        with pytest.raises(Draining):
            scheduler.submit(JobSpec(verb="profile", source=OTHER,
                                     options=RunOptions()))
    finally:
        scheduler.close()


def test_cancelled_job_leaves_the_dispatcher_serving(fresh_registry):
    """A waiter may cancel a job's future while the job runs (asyncio's
    ``wrap_future`` does when its task is cancelled).  The scheduler
    drops that future, counts it ``cancelled``, serves the next job and
    drains."""
    scheduler = JobScheduler(ArtifactStore(), jobs=1, timeout=60.0)
    scheduler._pool.fn = SlowJob(0.5)
    try:
        job = scheduler.submit(JobSpec(verb="profile", source=TINY))
        time.sleep(0.1)
        assert job.future.cancel()
        following = scheduler.submit(JobSpec(verb="profile", source=OTHER))
        assert following.future.result(timeout=30)["annotations"] > 0
        scheduler.drain(timeout=3)
    finally:
        if scheduler._thread.is_alive():
            scheduler.close()
        else:                   # a dead dispatcher would never drain
            scheduler._pool.close()
    assert fresh_registry.total("jrpm_scheduler_settled",
                                result="cancelled") == 1
    assert fresh_registry.total("jrpm_scheduler_settled",
                                result="ok") == 1


# ---------------------------------------------------------------------------
# Session.local() — the in-process half of the unified API
# ---------------------------------------------------------------------------

def test_local_session_run_matches_jrpm_run_byte_identical():
    direct = Jrpm(options=RunOptions()).run(TINY, name="tiny")
    with Session.local() as session:
        via_session = session.run(TINY, name="tiny")
    assert via_session.to_dict() == direct.to_dict()


def test_local_session_memoizes_in_artifact_store(fresh_registry):
    with Session.local() as session:
        first = session.profile(TINY)
        second = session.profile(TINY)
        assert first == second
        assert session.stats() == {"local": True, "store": {
            "entries": 1, "max_entries": 512, "persistent": False}}
    assert fresh_registry.total("jrpm_store_lookups", verb="profile",
                                outcome="hit") == 1
    assert fresh_registry.total("jrpm_store_lookups", verb="profile",
                                outcome="miss") == 1


def test_local_session_results_are_final_and_private(fresh_registry):
    """The store keeps a result without its metric delta, and a caller
    that edits what it was handed cannot change a later hit."""
    with Session.local() as session:
        first = session.profile(TINY, name="x")
        assert "metrics" not in first
        assert all("metrics" not in result
                   for result in session.store._entries.values())
        expected = first["annotations"]
        first["annotations"] = -1
        second = session.profile(TINY, name="x")
        assert second["annotations"] == expected

        session.run(TINY, name="x")
        session.run(TINY, name="x")
    assert fresh_registry.total("jrpm_runs") == 1


def test_cached_report_answers_to_its_own_name(fresh_registry):
    """The report embeds its name, so the name is key material: a run
    of the same source under another name is a miss, not a replay."""
    with Session.local() as session:
        assert session.run(TINY, name="alpha").name == "alpha"
        assert session.run(TINY, name="beta").name == "beta"
        assert session.run(TINY, name="alpha").name == "alpha"
    assert fresh_registry.total("jrpm_store_lookups", outcome="hit") == 1
    assert fresh_registry.total("jrpm_store_lookups",
                                outcome="miss") == 2


def test_local_and_remote_sessions_return_identical_reports(service):
    with Session.local() as session:
        local_report = session.run(TINY, name="tiny")
    with service.client() as client:
        remote_report = client.run(TINY, name="tiny")
    assert local_report.to_dict() == remote_report.to_dict()


def test_execute_job_rejects_unknown_verb():
    with pytest.raises(ValueError, match="unknown verb"):
        execute_job(JobSpec(verb="nope", source=TINY))


# ---------------------------------------------------------------------------
# persistent workers and their compile cache
# ---------------------------------------------------------------------------

def _canonical(result):
    """A job result without its wall time and metric delta, as JSON."""
    result = dict(result)
    result.pop("wall_time", None)
    result.pop("metrics", None)
    return json.dumps(result, sort_keys=True)


def test_settled_job_has_left_in_flight():
    """A job leaves ``in_flight`` before its future resolves, so
    whoever sees the result (a reply, here a done-callback) never sees
    its job still counted."""
    scheduler = JobScheduler(ArtifactStore(), jobs=1, timeout=60.0)
    scheduler._pool.fn = SlowJob(0.2)
    seen = []
    try:
        job = scheduler.submit(JobSpec(verb="profile", source=TINY))
        job.future.add_done_callback(lambda _: seen.append(
            (threading.current_thread().name,
             scheduler.stats_dict()["in_flight"])))
        job.future.result(timeout=60)
    finally:
        scheduler.close()
    # the callback ran where the job settled, not at registration
    assert seen == [("jrpm-scheduler", 0)]


def test_scheduler_workers_outlive_a_batch_and_stop_on_drain(
        fresh_registry):
    import multiprocessing
    scheduler = JobScheduler(ArtifactStore(), jobs=1, timeout=60.0)
    try:
        for source in (TINY, OTHER):
            spec = JobSpec(verb="profile", source=source)
            assert scheduler.submit(spec).future.result(timeout=60)
        pids = scheduler._pool.pids
        scheduler.drain()
    finally:
        scheduler.close()
    assert (fresh_registry.total("jrpm_scheduler_batches"),
            fresh_registry.total("jrpm_pool_tasks", status="ok"),
            fresh_registry.total("jrpm_pool_workers_spawned")) \
        == (2, 2, 1), "one worker for both batches"
    assert not [child for child in multiprocessing.active_children()
                if child.pid in pids]


def test_profdb_daemon_warm_runs_are_byte_identical(fresh_registry,
                                                    tmp_path):
    """A ``--profdb`` daemon serves one warm ``run`` three times from a
    worker whose compile cache holds the program: the replies equal
    each other and an in-process ``Jrpm.run`` byte for byte."""
    from repro.metrics import MetricsRegistry
    source = lookup("BitOps").source("small")
    fixture = ServiceFixture(tmp_path, jobs=1,
                             profdb_path=str(tmp_path / "daemon.json"))
    try:
        with fixture.client() as client:
            payload = client.job_payload(source, name="BitOps")
            replies = [client.request("run", payload) for _ in range(4)]
            registry = MetricsRegistry.from_dict(
                client.metrics()["metrics"])
    finally:
        fixture.stop()
    reports = [json.dumps(reply["report"], sort_keys=True)
               for reply in replies]
    local_db = str(tmp_path / "local.json")
    cold = Jrpm(profdb=local_db).run(source, name="BitOps")
    warm = Jrpm(profdb=local_db).run(source, name="BitOps")
    assert warm.profile_provenance == "warm"
    assert reports[0] == json.dumps(cold.to_dict(), sort_keys=True)
    assert reports[1] == reports[2] == reports[3] \
        == json.dumps(warm.to_dict(), sort_keys=True)
    assert registry.total("jrpm_compile_cache_lookups", kind="program",
                          outcome="hit") == 3
    assert registry.total("jrpm_compile_cache_lookups",
                          kind="recompiled", outcome="hit") >= 2


@pytest.fixture(scope="module")
def warm_compile_cache():
    """A compile cache that every verb has already run BitOps through."""
    from repro.service.jobs import CompileCache
    cache = CompileCache()
    source = lookup("BitOps").source("small")
    for verb in ("run", "profile", "run_adaptive"):
        execute_job(JobSpec(verb, source, name="BitOps",
                            options=RunOptions(epochs=3)),
                    compile_cache=cache)
    return cache


@pytest.mark.parametrize("verb", ["profile", "run_adaptive"])
def test_cached_compiles_serve_every_verb_like_a_fresh_worker(
        warm_compile_cache, verb):
    """Runs never write into the cached Program or compiled programs: a
    verb answered from a warm cache equals a fresh worker's answer."""
    spec = JobSpec(verb, lookup("BitOps").source("small"), name="BitOps",
                   options=RunOptions(epochs=3))
    size = len(warm_compile_cache)
    cached = execute_job(spec, compile_cache=warm_compile_cache)
    assert len(warm_compile_cache) == size, "every compile was a hit"
    assert _canonical(cached) == _canonical(execute_job(spec))


def test_compile_cache_is_a_bounded_lru():
    from repro.service.jobs import COMPILE_CACHE_ENTRIES, CompileCache
    from repro.workloads import names
    assert COMPILE_CACHE_ENTRIES >= 3 * len(names())
    cache = CompileCache()
    built = []

    def get(key):
        return cache.get(("program", key),
                         lambda: built.append(key) or key)

    for key in range(COMPILE_CACHE_ENTRIES):
        get(key)
    get(0)                                   # 0 is now the newest entry
    get(COMPILE_CACHE_ENTRIES)               # evicts 1, the oldest
    assert len(cache) == COMPILE_CACHE_ENTRIES
    assert len(built) == COMPILE_CACHE_ENTRIES + 1
    get(0)
    assert len(built) == COMPILE_CACHE_ENTRIES + 1, "0 must survive"
    get(1)
    assert built[-1] == 1, "1 must have been evicted"
    assert len(cache) == COMPILE_CACHE_ENTRIES


# ---------------------------------------------------------------------------
# RunOptions
# ---------------------------------------------------------------------------

def test_run_options_round_trip_and_strictness():
    options = RunOptions(cpus=2, trace=True, epochs=7, args=(3,))
    rebuilt = RunOptions.from_dict(options.to_dict())
    assert rebuilt == options
    with pytest.raises(ValueError, match="unknown RunOptions field"):
        RunOptions.from_dict({"adapt_epochs": 3})


def test_service_import_leaves_the_adapt_package_unloaded():
    """``RunOptions`` names no adapt policy, so a daemon that never
    serves ``run_adaptive`` never imports ``repro.adapt``."""
    import subprocess
    import sys
    code = ("import sys, repro.service; print(sorted(m for m in "
            "sys.modules if m.startswith('repro.adapt')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_run_options_reject_an_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        RunOptions(engine="bogus")
    with pytest.raises(ValueError, match="unknown engine"):
        RunOptions.from_dict({"engine": "stepwise"})
    with pytest.raises(ValueError, match="unknown engine"):
        HydraConfig(engine="legacy")
    assert RunOptions(engine="reference").hydra_config().engine \
        == "reference"


def test_run_suite_accepts_run_options(tmp_path):
    from repro.runner import SuiteRunner
    runner = SuiteRunner(jobs=1, use_cache=False)
    reports = runner.run_suite(
        size="small", workloads=["BitOps"],
        options=RunOptions(adapt=True, epochs=2))
    assert reports["BitOps"].adaptation is not None


# ---------------------------------------------------------------------------
# schema single source of truth
# ---------------------------------------------------------------------------

def test_report_schema_version_single_source_of_truth():
    assert JrpmReport.SCHEMA_VERSION == REPORT_SCHEMA_VERSION


def test_from_dict_rejects_future_schema_versions():
    report = Jrpm().run(TINY, name="tiny")
    payload = report.to_dict()
    payload["schema"] = REPORT_SCHEMA_VERSION + 1
    with pytest.raises(SchemaVersionError) as excinfo:
        JrpmReport.from_dict(payload)
    assert "newer" in str(excinfo.value)
    # older / missing schema fields still load (readers default-fill)
    payload["schema"] = 1
    del payload["trace_aggregates"]
    del payload["adaptation"]
    assert JrpmReport.from_dict(payload).name == "tiny"


def test_cache_key_depends_on_report_schema(monkeypatch):
    from repro.runner import cache as cache_module
    from repro.jit.stl import StlOptions
    from repro.core.pipeline import VmOptions
    from repro.hydra.config import HydraConfig
    key_args = (TINY, (), cache_module.options_fingerprint(
        HydraConfig(), StlOptions(), VmOptions()))
    before = cache_module.cache_key(*key_args, salt="s")
    monkeypatch.setattr(cache_module, "REPORT_SCHEMA_VERSION",
                        REPORT_SCHEMA_VERSION + 1)
    after = cache_module.cache_key(*key_args, salt="s")
    assert before != after


# ---------------------------------------------------------------------------
# metrics verb + request-correlated tracing (ISSUE 10)
# ---------------------------------------------------------------------------

def test_metrics_verb_round_trip(fresh_registry, service):
    """The ``metrics`` control verb returns the daemon's registry in
    both formats, and worker-side metric deltas (the job executed in a
    pool process) are merged into it exactly once."""
    from repro.metrics import MetricsRegistry, lint

    with service.client() as client:
        client.run(TINY, name="tiny")

        result = client.metrics()
        registry = MetricsRegistry.from_dict(result["metrics"])
        assert registry.total("jrpm_runs") == 1
        # scheduler + TLS fold families came along
        assert registry.get("jrpm_scheduler_submits") is not None
        assert registry.get("jrpm_tls_threads") is not None

        text = client.metrics(format="openmetrics")["openmetrics"]
        assert lint(text) == []
        assert "jrpm_runs_total" in text

        with pytest.raises(JrpmServiceError) as excinfo:
            client.metrics(format="nope")
        assert excinfo.value.kind == "bad-request"

        # a second identical run is a store hit: the run counter must
        # NOT double-count the stored result's delta
        client.run(TINY, name="tiny")
        registry = MetricsRegistry.from_dict(
            client.metrics()["metrics"])
        assert registry.total("jrpm_runs") == 1


def test_daemon_counts_each_event_once(fresh_registry, service):
    """A store miss, an identical hit and a bad request: each request,
    lookup, settle and run is counted once, in the registry, and
    ``drain`` reports the registry's settle counts."""
    total = fresh_registry.total
    with service.client() as client:
        payload = client.job_payload(TINY, name="tiny")
        settled = client.request_many([("run", payload)])
        settled += client.request_many([("run", payload)])
        assert [cached for _, cached, _ in settled] == [False, True]
        with pytest.raises(JrpmServiceError) as excinfo:
            client.request("run", {"source": TINY,
                                   "options": {"warp_speed": 9}})
        assert excinfo.value.kind == "bad-request"

        assert (total("jrpm_service_requests", verb="run", outcome="ok"),
                total("jrpm_service_requests", verb="run", outcome="error"),
                total("jrpm_service_requests"),
                total("jrpm_service_request_seconds", verb="run"),
                total("jrpm_service_request_seconds")) == (2, 1, 3, 3, 3)
        assert (total("jrpm_store_lookups", verb="run", outcome="miss"),
                total("jrpm_store_lookups", verb="run", outcome="hit"),
                total("jrpm_store_lookups")) == (1, 1, 2)
        # a store hit settles at submit, counted there once
        assert (total("jrpm_scheduler_submits", outcome="store_hit"),
                total("jrpm_scheduler_submits"),
                total("jrpm_scheduler_settled", result="ok"),
                total("jrpm_scheduler_settled"),
                total("jrpm_runs")) == (1, 2, 1, 1, 1)
        # the other families perfbench reads from the ``metrics`` verb
        assert (total("jrpm_pool_workers_spawned"),
                total("jrpm_scheduler_batches"),
                total("jrpm_profdb_warm_runs")) == (2, 1, 0)
        drained = client.drain()
    assert (drained["completed"], drained["failed"]) == (2, 0)


def test_metrics_http_endpoint_serves_openmetrics(fresh_registry,
                                                  tmp_path):
    """``--metrics-port 0`` exposes a curl-able /metrics endpoint."""
    import http.client

    from repro.metrics import CONTENT_TYPE, lint

    fixture = ServiceFixture(tmp_path, metrics_port=0)
    try:
        with fixture.client() as client:
            client.run(TINY, name="tiny")
            result = client.metrics()
            endpoint = result["http_endpoint"]     # "host:port"
        host, port = endpoint.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == CONTENT_TYPE
        assert lint(body) == []
        assert "jrpm_runs_total" in body
        assert "jrpm_pool_tasks_total" in body
    finally:
        fixture.stop()


def test_traced_daemon_run_correlates_request_id(service):
    """A traced run through the daemon exports a chrome trace whose
    request span carries the wire request id."""
    from repro.trace import validate_chrome_trace

    with service.client() as client:
        payload = client.job_payload(TINY, name="tiny")
        payload["options"]["trace"] = True
        result = client.request("run", payload)
        data = result["chrome_trace"]
        assert validate_chrome_trace(data) == []
        request_id = data["otherData"]["request_id"]
        spans = [e for e in data["traceEvents"]
                 if e.get("cat") == "request"]
        assert len(spans) == 1
        assert spans[0]["name"] == "request %s" % request_id
        stamped = [e for e in data["traceEvents"]
                   if e["ph"] not in ("M", "C") and e is not spans[0]]
        assert stamped
        assert all(e["args"]["request_id"] == request_id
                   for e in stamped)


# ---------------------------------------------------------------------------
# store hits from bytes: keys and wire frames stay what they were
# ---------------------------------------------------------------------------

#: ``job_fingerprint(..., salt="s")`` of BitOps at size "small": the key
#: as computed before its options part was memoized, with no
#: ``analysis`` option in the key material and, under ``run_adaptive``,
#: no ``policy`` option
PINNED_KEYS = {
    ("run", "default"):
        "9d93295d356005dc0b1088238b39da90aab6ddbd09f08ff595ea3ab22ec0c24e",
    ("run", "cpus2-trace"):
        "e12678a265bcdcea9784e2302cb6ce0c3df99f1eca1bcaebea2081050f1a85a9",
    ("run", "old-reference-epochs3"):
        "a91cce9ca4b3faa71e4956def3aac6b56026e11d119f475f04c19ddf0bc97c2f",
    ("run_adaptive", "default"):
        "aa08174794c72aa5fec79d0c960384db32f974a98c4e886344f4e7a05b390e25",
    ("run_adaptive", "cpus2-trace"):
        "e8638d93470f1a5486fb0b80bf2ade52822b28ab99cbab4760e164d4b09615b6",
    ("run_adaptive", "old-reference-epochs3"):
        "aa320b3450325fb4456f2436bea7909c7eaf6f9e79297c7dba25948bca19a13f",
    ("profile", "default"):
        "14f72f5d4c8f65c439b7913b68f44309a42ff7e455ec5f292f640b7e9a99bacf",
    ("profile", "cpus2-trace"):
        "760a14c8a8a609ef84dfba545b11f604be2f1e2d40733e5109202246302cb3df",
    ("profile", "old-reference-epochs3"):
        "6fbaf21b87cf6653988c6d8973fba857209561649210c296e45eb607d994d06d",
}

PINNED_OPTIONS = {
    "default": dict(),
    "cpus2-trace": dict(cpus=2, trace=True),
    "old-reference-epochs3": dict(old_handlers=True, engine="reference",
                                  epochs=3),
}


def _bitops_spec(verb, **options):
    return JobSpec(verb=verb, source=lookup("BitOps").source("small"),
                   name="BitOps", options=RunOptions(**options))


def test_job_fingerprint_keys_are_pinned():
    from repro.service import job_fingerprint
    for _ in range(2):                 # cold, then memoized
        for (verb, label), digest in PINNED_KEYS.items():
            spec = _bitops_spec(verb, **PINNED_OPTIONS[label])
            assert job_fingerprint(spec, salt="s") == digest, (verb, label)


def test_job_fingerprint_follows_a_mutated_option():
    """The memo is keyed on the field values, not on the options
    object: changing a keyed field after a lookup changes the key."""
    from repro.service import job_fingerprint
    spec = _bitops_spec("run")
    assert job_fingerprint(spec, salt="s") == PINNED_KEYS["run", "default"]
    spec.options.cpus = 2
    spec.options.trace = True
    assert job_fingerprint(spec, salt="s") == \
        PINNED_KEYS["run", "cpus2-trace"]
    spec.options.epochs = 3            # inert under run ...
    assert job_fingerprint(spec, salt="s") == \
        PINNED_KEYS["run", "cpus2-trace"]
    spec.verb = "run_adaptive"         # ... key material under run_adaptive
    assert job_fingerprint(spec, salt="s") != job_fingerprint(
        _bitops_spec("run_adaptive", cpus=2, trace=True), salt="s")
    # equal hashes, different JSON: True and 1 key apart
    assert job_fingerprint(_bitops_spec("run", cpus=True), salt="s") != \
        job_fingerprint(_bitops_spec("run", cpus=1), salt="s")
    # a wire value the memo cannot hash is keyed as before, unmemoized
    assert job_fingerprint(_bitops_spec("run", cpus=[2]), salt="s") == \
        "7ef2ffc0648b084027be97d8f1330041ba28a951ed69b6a5d6f83bb197c9da9a"


def test_encode_response_equals_the_whole_frame_encoding():
    result = execute_job(JobSpec(verb="run", source=TINY, name="tiny"))
    result_json = protocol.encode_result(result)
    for request_id in ("r1", 7, None, "über-日本",
                       {"b": 1, "a": [2]}):
        for cached in (False, True):
            for elapsed in (0.0, 0.2134567891, 1e-07, 12.5, 3):
                frame = {"v": protocol.PROTOCOL_VERSION, "id": request_id,
                         "ok": True, "cached": cached,
                         "elapsed": round(elapsed, 6), "result": result}
                assert protocol.encode_response(
                    request_id, result_json, cached, elapsed) == \
                    protocol.encode_frame(frame)


def _raw_result_text(line):
    """The ``result`` text of one encoded success frame (keys sorted,
    so it is the span between ``"result":`` and the trailing ``v``)."""
    head, tail = b',"result":', b',"v":%d}\n' % protocol.PROTOCOL_VERSION
    assert line.endswith(tail)
    return line[line.index(head) + len(head):-len(tail)]


def test_miss_and_hit_replies_carry_identical_result_bytes(service):
    raw = socket_module.socket(socket_module.AF_UNIX,
                               socket_module.SOCK_STREAM)
    raw.settimeout(60.0)
    raw.connect(service.socket_path)
    try:
        reader = raw.makefile("rb")
        payload = {"source": TINY, "name": "tiny",
                   "options": RunOptions().to_dict()}
        lines = []
        for request_id in ("miss", "hit"):
            raw.sendall(protocol.encode_frame(
                protocol.make_request(request_id, "run", payload)))
            lines.append(reader.readline())
    finally:
        raw.close()
    miss, hit = (json.loads(line) for line in lines)
    assert (miss["cached"], hit["cached"]) == (False, True)
    assert "metrics" not in miss["result"]
    assert _raw_result_text(lines[0]) == _raw_result_text(lines[1])


def test_store_encodes_each_entry_once_and_evicts_its_text():
    store = ArtifactStore(max_entries=2)
    specs = [JobSpec(verb="profile", source=source, name=name)
             for source, name in ((TINY, "a"), (OTHER, "b"), (TINY, "c"))]
    keys = [store.key_of(spec) for spec in specs]
    results = [{"name": spec.name, "cycles": [index] * 50}
               for index, spec in enumerate(specs)]
    texts = []
    for spec, key, result in zip(specs[:2], keys, results):
        store.put(spec, result)
        texts.append(store.result_text(key, result))
        assert store.result_text(key, result) is texts[-1]
        assert texts[-1] == protocol.encode_result(result)
    store.put(specs[2], results[2])            # evicts entry 0
    store.result_text(keys[2], results[2])
    assert store.get(specs[0], count=False) is None
    assert set(store._texts) == {keys[1], keys[2]}
    again = store.result_text(keys[0], results[0])
    assert again == texts[0] and again is not texts[0]
    assert keys[0] not in store._texts
    # a result that is not the stored entry is encoded, never kept
    other = dict(results[1])
    assert store.result_text(keys[1], other) is not texts[1]
    assert store.result_text(keys[1], results[1]) is texts[1]


def test_store_texts_stay_consistent_under_concurrent_puts():
    """Puts, evictions and lazy encodes from many threads at once: every
    text returned matches its result, and no text outlives its entry."""
    import sys
    store = ArtifactStore(max_entries=3)
    specs = [JobSpec(verb="profile", source=TINY, name="n%d" % index)
             for index in range(8)]
    keys = [store.key_of(spec) for spec in specs]
    errors = []

    def churn(offset):
        try:
            for step in range(300):
                index = (offset + step) % len(specs)
                result = {"name": specs[index].name, "step": step}
                store.put(specs[index], result)
                text = store.result_text(keys[index], result)
                if text != protocol.encode_result(result):
                    errors.append((index, step))
        except Exception as error:         # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert set(store._texts) <= set(store._entries)
    assert len(store) <= 3
