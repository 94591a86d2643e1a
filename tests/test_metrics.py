"""The unified metrics registry (``repro.metrics``).

Covers the ISSUE-10 acceptance surface:

* typed families (counter / gauge / histogram) with labels, idempotent
  re-registration, and type/label mismatch rejection;
* thread-safety: concurrent ``inc``/``record`` from many threads loses
  no updates;
* lossless ``to_dict``/``from_dict`` round-trips and merge semantics
  (counters add, gauges max, histograms concatenate);
* the deque reservoir's O(1) wrap behavior (the PR-6 ``list.pop(0)``
  fix), at the default reservoir size request latencies use;
* ``total()``, the one way code and tests read a count;
* OpenMetrics rendering passing its own lint, plus the lint's ability
  to reject malformed expositions;
* the ``/metrics`` HTTP endpoint over a real socket;
* the global enable switch and report-fold instrumentation.
"""

import http.client
import json
import threading

import pytest

from repro.metrics import (CONTENT_TYPE, DEFAULT_MAX_SAMPLES,
                           METRICS_SCHEMA_VERSION, MetricsHttpServer,
                           MetricsRegistry, enabled, lint,
                           observe_report_dict, render, set_enabled)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    runs = registry.counter("runs", "total runs")
    runs.inc()
    runs.inc(2.5)
    assert runs.value == 3.5
    with pytest.raises(ValueError):
        runs.labels(verb="run").inc()   # label-less family

    depth = registry.gauge("depth", "queue depth")
    depth.set(7)
    depth.dec(2)
    assert depth.value == 5.0

    lat = registry.histogram("latency", "seconds")
    for value in (0.001, 0.002, 0.004, 10.0):
        lat.record(value)
    hist = lat.to_dict()["series"][""]
    assert hist["count"] == 4
    assert hist["max"] == 10.0
    assert sum(hist["buckets"]) == 4


def test_registration_is_idempotent_and_type_checked():
    registry = MetricsRegistry()
    first = registry.counter("jobs", "jobs", labels=("verb",))
    again = registry.counter("jobs", "ignored", labels=("verb",))
    assert first is again
    with pytest.raises(ValueError):
        registry.gauge("jobs")          # type mismatch
    with pytest.raises(ValueError):
        registry.counter("jobs")        # label mismatch
    with pytest.raises(ValueError):
        registry.counter("bad name")    # OpenMetrics-illegal name
    with pytest.raises(ValueError):
        registry.counter("9lives")


def test_labeled_series_are_independent():
    registry = MetricsRegistry()
    jobs = registry.counter("jobs", "by verb", labels=("verb",))
    jobs.labels(verb="run").inc(3)
    jobs.labels(verb="profile").inc()
    payload = jobs.to_dict()
    assert payload["series"]["run"]["value"] == 3.0
    assert payload["series"]["profile"]["value"] == 1.0
    with pytest.raises(ValueError):
        jobs.labels(wrong="x")


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("n").inc(-1)


# ---------------------------------------------------------------------------
# thread safety
# ---------------------------------------------------------------------------

def test_registry_is_thread_safe_under_concurrent_mutation():
    """8 threads x 1000 mixed mutations lose no updates."""
    registry = MetricsRegistry()
    threads_n, per_thread = 8, 1000

    def hammer(index):
        counter = registry.counter("hits", "total", labels=("worker",))
        gauge = registry.gauge("level")
        hist = registry.histogram("obs")
        for i in range(per_thread):
            counter.labels(worker=str(index % 2)).inc()
            gauge.inc()
            hist.record(i * 0.001)

    threads = [threading.Thread(target=hammer, args=(i,))
               for i in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert registry.total("hits") == threads_n * per_thread
    assert registry.get("level").value == threads_n * per_thread
    hist = registry.get("obs").to_dict()["series"][""]
    assert hist["count"] == threads_n * per_thread
    assert sum(hist["buckets"]) == threads_n * per_thread


# ---------------------------------------------------------------------------
# round-trip / merge
# ---------------------------------------------------------------------------

def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("runs", "runs", labels=("verb",)) \
        .labels(verb="run").inc(4)
    registry.gauge("depth", "depth").set(3)
    hist = registry.histogram("lat", "seconds")
    for value in (0.01, 0.02, 0.4):
        hist.record(value)
    return registry


def test_to_dict_from_dict_round_trip_is_lossless():
    registry = _populated_registry()
    payload = registry.to_dict()
    assert payload["schema"] == METRICS_SCHEMA_VERSION
    # JSON-safe: survives an actual encode/decode
    clone = MetricsRegistry.from_dict(json.loads(json.dumps(payload)))
    assert clone.to_dict() == payload
    assert render(clone) == render(registry)


def test_from_dict_rejects_unknown_schema():
    with pytest.raises(ValueError):
        MetricsRegistry.from_dict({"schema": 999, "families": {}})


def test_merge_semantics():
    """Counters add, gauges take the max, histograms concatenate."""
    ours = _populated_registry()
    theirs = _populated_registry()
    theirs.get("depth").set(1)          # lower HWM must not win
    ours.merge(theirs.to_dict())
    assert ours.get("runs").labels(verb="run").value == 8.0
    assert ours.get("depth").value == 3.0
    hist = ours.get("lat").to_dict()["series"][""]
    assert hist["count"] == 6
    assert hist["sum"] == pytest.approx(2 * (0.01 + 0.02 + 0.4))


# ---------------------------------------------------------------------------
# reservoir wrap (satellite 1)
# ---------------------------------------------------------------------------

def test_histogram_reservoir_wraps_keeping_newest():
    registry = MetricsRegistry()
    hist = registry.histogram("w", max_samples=16)
    for i in range(100):
        hist.record(float(i))
    payload = hist.to_dict()["series"][""]
    assert payload["count"] == 100            # counters cover everything
    assert payload["samples"] == [float(i) for i in range(84, 100)]
    assert hist.labels().percentile(1.0) == 99.0  # newest-wins window


def test_latency_histogram_wraps_like_a_deque():
    """The request-latency histogram (default bounds and reservoir) is
    newest-wins with O(1) wrap (regression test for the
    ``list.pop(0)`` variant)."""
    registry = MetricsRegistry()
    hist = registry.histogram("jrpm_service_request_seconds",
                              labels=("verb",)).labels(verb="run")
    for i in range(DEFAULT_MAX_SAMPLES + 50):
        hist.record(float(i))
    payload = hist.to_dict()
    assert payload["count"] == DEFAULT_MAX_SAMPLES + 50
    assert payload["max"] == float(DEFAULT_MAX_SAMPLES + 49)
    assert sum(payload["buckets"]) == DEFAULT_MAX_SAMPLES + 50
    assert len(hist._samples) == DEFAULT_MAX_SAMPLES
    assert hist._samples[0] == 50.0           # oldest 50 rolled off
    assert hist.percentile(0.0) == 50.0
    assert registry.total("jrpm_service_request_seconds", verb="run") \
        == DEFAULT_MAX_SAMPLES + 50


def test_total_sums_matching_series():
    """``total()`` sums the series matching a label subset (histograms
    by observation count) and reads an absent family as 0."""
    registry = _populated_registry()
    lookups = registry.counter("lookups", labels=("verb", "outcome"))
    for verb, outcome, count in (("run", "hit", 3), ("run", "miss", 1),
                                 ("profile", "hit", 2)):
        lookups.labels(verb=verb, outcome=outcome).inc(count)
    total = registry.total
    assert (total("lookups"), total("lookups", outcome="hit"),
            total("lookups", verb="run"),
            total("lookups", verb="run", outcome="miss"),
            total("lookups", verb="compile")) == (6, 5, 4, 1, 0)
    assert (total("depth"), total("lat"), total("absent"),
            total("absent", verb="run")) == (3, 3, 0, 0)
    with pytest.raises(ValueError, match="no label"):
        total("lookups", engine="fast")


# ---------------------------------------------------------------------------
# OpenMetrics exposition (satellite 3)
# ---------------------------------------------------------------------------

def test_render_passes_its_own_lint():
    registry = _populated_registry()
    text = render(registry)
    assert lint(text) == []
    assert text.endswith("# EOF\n")
    assert "runs_total{verb=\"run\"} 4" in text
    assert "depth 3" in text
    assert 'lat_bucket{le="+Inf"} 3' in text
    assert "lat_count 3" in text


def test_lint_rejects_malformed_expositions():
    assert lint("no eof terminator\n")
    # sample before TYPE
    bad = "runs_total 1\n# TYPE runs counter\n# EOF\n"
    assert any("TYPE" in p or "before" in p for p in lint(bad))
    # counter sample without _total suffix
    bad = "# TYPE runs counter\nruns 1\n# EOF\n"
    assert lint(bad)
    # non-cumulative histogram buckets
    bad = ("# TYPE lat histogram\n"
           'lat_bucket{le="0.1"} 5\n'
           'lat_bucket{le="+Inf"} 3\n'
           "lat_count 5\nlat_sum 1.0\n# EOF\n")
    assert any("cumulative" in p or "monoton" in p for p in lint(bad))


def test_rendered_registry_is_curlable_over_http():
    server = MetricsHttpServer(_populated_registry)
    import asyncio

    async def run():
        await server.start()
        return server.port

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    try:
        thread.start()
        port = asyncio.run_coroutine_threadsafe(run(), loop).result(10)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        assert response.status == 200
        assert response.getheader("Content-Type") == CONTENT_TYPE
        assert lint(body) == []
        assert "runs_total" in body
        conn.close()

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


# ---------------------------------------------------------------------------
# enable switch + report folds
# ---------------------------------------------------------------------------

def test_set_enabled_makes_mutation_a_no_op():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    hist = registry.histogram("h")
    assert enabled()
    previous = set_enabled(False)
    try:
        assert previous is True
        counter.inc()
        hist.record(1.0)
        assert counter.value == 0.0
        assert hist.to_dict()["series"][""]["count"] == 0
    finally:
        set_enabled(True)
    counter.inc()
    assert counter.value == 1.0


def test_observe_report_dict_folds_tls_counters(tiny_report_dict):
    registry = MetricsRegistry()
    observe_report_dict(tiny_report_dict, wall_seconds=0.5,
                        registry=registry)
    committed = registry.get("jrpm_tls_threads") \
        .labels(outcome="committed").value
    assert committed == tiny_report_dict["breakdown"]["commits"]
    assert registry.total("jrpm_runs") == 1
    phases = registry.get("jrpm_run_simulated_cycles")
    assert phases.labels(phase="sequential").value \
        == tiny_report_dict["sequential"]["cycles"]
    assert registry.get("jrpm_adapt_epochs") is None   # not adaptive


def test_observe_report_dict_folds_adaptation():
    """An adaptive report folds its epochs and applied decisions."""
    from repro.core.pipeline import Jrpm
    from repro.workloads import lookup
    report = Jrpm().run_adaptive(lookup("euler").source("small"),
                                 name="euler", epochs=3)
    log = report.adaptation
    registry = MetricsRegistry()
    observe_report_dict(report.to_dict(), registry=registry)
    assert registry.total("jrpm_adapt_epochs") == log.epochs_run > 0
    assert registry.total("jrpm_adapt_decisions") \
        == len(log.applied_decisions())


@pytest.fixture(scope="module")
def tiny_report_dict():
    from repro.core.pipeline import Jrpm
    from repro.minijava import compile_source
    from conftest import wrap_main
    source = wrap_main("""
        int s = 0;
        for (int i = 0; i < 900; i = i + 1) { s = s + i * 5; }
        return s;
    """)
    report = Jrpm().run(compile_source(source), name="tiny")
    return report.to_dict()
