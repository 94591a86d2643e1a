"""The observability layer: ring buffer, collector, exporters,
report round-trip, runner/CLI integration."""

import json

import pytest

from repro.core.pipeline import Jrpm, JrpmReport
from repro.minijava import compile_source
from repro.trace import (EVENT_KINDS, TraceCollector, TraceOptions,
                         TraceRing, chrome_trace, format_timeline,
                         validate_chrome_trace, write_chrome_trace)
from repro.trace.events import TraceEvent

from conftest import wrap_main

# A loop whose odd/even accumulator pattern produces genuine
# loop-carried RAW arcs through memory once parallelized, plus a clean
# parallel loop — commits AND restarts in one run.
VIOLATION_PRONE = """
class Main {
    static int main() {
        int[] a = new int[600];
        int[] hist = new int[4];
        for (int i = 0; i < 600; i++) {
            a[i] = (i * 37 + 11) % 97;
        }
        for (int i = 0; i < 600; i++) {
            hist[a[i] & 3] = hist[a[i] & 3] + a[i];
        }
        int sum = 0;
        for (int i = 0; i < 4; i++) { sum += hist[i]; }
        Sys.printInt(sum);
        return sum;
    }
}
"""


def traced_report(source=VIOLATION_PRONE, name="traced", **vm):
    jrpm = Jrpm(trace=True, **vm)
    report = jrpm.run(compile_source(source), name=name)
    assert report.outputs_match()
    return report


# ---------------------------------------------------------------------------
# ring buffer
# ---------------------------------------------------------------------------

def ev(i):
    return TraceEvent("thread", float(i), 0, 0.0, None, (i, "commit"))


def test_ring_keeps_events_before_capacity():
    ring = TraceRing(capacity=8)
    for i in range(5):
        ring.append(ev(i))
    assert len(ring) == 5
    assert ring.dropped == 0
    assert [e.ts for e in ring.events()] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_ring_wraparound_drops_oldest_and_counts():
    ring = TraceRing(capacity=4)
    for i in range(11):
        ring.append(ev(i))
    assert len(ring) == 4
    assert ring.dropped == 7
    assert ring.total_seen == 11
    # chronological order preserved across the wrap point
    assert [e.ts for e in ring.events()] == [7.0, 8.0, 9.0, 10.0]
    assert [e.ts for e in ring] == [7.0, 8.0, 9.0, 10.0]


def test_ring_exact_fill_boundary():
    ring = TraceRing(capacity=3)
    for i in range(3):
        ring.append(ev(i))
    assert ring.dropped == 0
    assert [e.ts for e in ring.events()] == [0.0, 1.0, 2.0]
    ring.append(ev(3))
    assert ring.dropped == 1
    assert [e.ts for e in ring.events()] == [1.0, 2.0, 3.0]


def test_ring_clear_resets_everything():
    ring = TraceRing(capacity=2)
    for i in range(5):
        ring.append(ev(i))
    ring.clear()
    assert len(ring) == 0
    assert ring.dropped == 0
    assert ring.total_seen == 0
    assert list(ring.events()) == []


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        TraceRing(capacity=0)


def test_collector_ring_wraparound_in_real_run():
    """A tiny ring drops events but the aggregates keep exact counts."""
    jrpm = Jrpm(trace=TraceOptions(capacity=16))
    report = jrpm.run(compile_source(VIOLATION_PRONE), name="tiny-ring")
    aggregates = report.trace_aggregates
    assert len(report.trace.ring) == 16
    assert aggregates.events_dropped > 0
    assert (aggregates.events_recorded
            == len(report.trace.ring) + aggregates.events_dropped)
    # counters keep counting events the ring no longer holds
    assert aggregates.events_recorded == sum(aggregates.counts.values())


# ---------------------------------------------------------------------------
# end-to-end traced run
# ---------------------------------------------------------------------------

def test_traced_run_records_commits_and_restarts():
    report = traced_report()
    aggregates = report.trace_aggregates
    outcomes = {}
    cpus = set()
    for event in report.trace.events():
        if event.kind == "thread":
            outcomes[event.data[1]] = outcomes.get(event.data[1], 0) + 1
            cpus.add(event.cpu)
    assert outcomes.get("commit", 0) >= 1
    assert (outcomes.get("restart", 0) + outcomes.get("squash", 0)) >= 1
    assert len(cpus) > 1                       # multiple CPU tracks
    assert aggregates.counts.get("violation", 0) >= 1
    assert aggregates.restarts >= 1
    # violation arcs carry source/sink sites
    arcs = [e for e in report.trace.events() if e.kind == "violation"]
    assert any(e.data[3] is not None for e in arcs)   # source site
    assert any(e.data[4] is not None for e in arcs)   # sink site


def test_traced_run_has_handler_spans_and_buffers():
    report = traced_report()
    aggregates = report.trace_aggregates
    assert aggregates.handler_cycles.get("startup", 0) > 0
    assert aggregates.handler_cycles.get("eoi", 0) > 0
    assert aggregates.max_store_lines >= 1
    assert aggregates.cache["l1_hits"] > 0
    # per-loop roll-up agrees with the always-on StlRunStats
    for loop_id, stats in report.stl_run_stats.items():
        loop_agg = aggregates.per_loop.get(loop_id)
        if loop_agg is not None:
            assert loop_agg.commits == stats.threads_committed
            assert loop_agg.max_load_lines == stats.max_load_lines
            assert loop_agg.max_store_lines == stats.max_store_lines


def test_untraced_run_attaches_nothing():
    report = Jrpm().run(compile_source(VIOLATION_PRONE), name="plain")
    assert report.trace is None
    assert report.trace_aggregates is None


def test_tracing_does_not_change_simulation():
    """The collector is a pure observer: identical cycle counts."""
    program = compile_source(VIOLATION_PRONE)
    plain = Jrpm().run(program, name="a")
    traced = Jrpm(trace=True).run(program, name="a")
    assert traced.tls.cycles == plain.tls.cycles
    assert traced.sequential.cycles == plain.sequential.cycles
    assert traced.breakdown.to_dict() == plain.breakdown.to_dict()


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def test_chrome_trace_schema_is_valid():
    report = traced_report()
    data = chrome_trace(report.trace, name="traced")
    assert validate_chrome_trace(data) == []
    events = data["traceEvents"]
    assert events, "no events exported"
    phases = {event["ph"] for event in events}
    assert {"X", "i", "M"} <= phases
    # every event on a known process, every TLS event on a CPU track
    assert {event["pid"] for event in events} <= {0, 1}
    for event in events:
        if event["ph"] == "M":
            continue                 # metadata events carry no timestamp
        assert isinstance(event["ts"], (int, float))
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_chrome_trace_validator_catches_problems():
    assert validate_chrome_trace({}) != []
    bad = {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                            "ts": "not-a-number", "dur": 1}]}
    assert validate_chrome_trace(bad) != []
    missing = {"traceEvents": [{"ph": "i", "name": "x", "pid": 0}]}
    assert validate_chrome_trace(missing) != []


def test_write_chrome_trace_roundtrips_through_json(tmp_path):
    report = traced_report()
    path = tmp_path / "trace.json"
    write_chrome_trace(report.trace, str(path), name="traced")
    data = json.loads(path.read_text())
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["name"] == "traced"


def test_format_timeline_mentions_outcomes():
    report = traced_report()
    text = format_timeline(report.trace)
    assert "commit" in text
    assert "loop" in text


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_roundtrip_preserves_trace_aggregates():
    report = traced_report()
    clone = JrpmReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
    aggregates = clone.trace_aggregates
    assert aggregates is not None
    assert aggregates.to_dict() == report.trace_aggregates.to_dict()
    assert aggregates.restarts == report.trace_aggregates.restarts
    # the live event ring is transient, like the profiler
    assert clone.trace is None


def test_report_dict_without_trace_key_still_loads():
    """Schema-v1 dicts (pre-trace) must keep loading."""
    report = Jrpm().run(compile_source(VIOLATION_PRONE), name="v1")
    data = report.to_dict()
    data.pop("trace_aggregates", None)
    clone = JrpmReport.from_dict(data)
    assert clone.trace_aggregates is None
    assert clone.tls_speedup == report.tls_speedup


def test_verbose_report_shows_restarts_and_high_water_marks():
    from repro.core.report import format_report
    report = traced_report()
    text = format_report(report, verbose=True)
    assert "speculative run (per STL)" in text
    assert "restarts" in text
    assert "hwm load" in text
    assert "trace:" in text


# ---------------------------------------------------------------------------
# runner + CLI integration
# ---------------------------------------------------------------------------

def test_runner_traced_request_uses_distinct_cache_key(tmp_path):
    from repro.runner import SuiteRunner
    from repro.service import JobSpec, RunOptions, job_fingerprint
    from repro.service.jobs import resolve_workload
    source, name = resolve_workload("BitOps", "small")

    def spec(trace):
        return JobSpec(verb="run", source=source, name=name,
                       options=RunOptions(trace=trace))

    assert (job_fingerprint(spec(False), salt="s")
            != job_fingerprint(spec(True), salt="s"))

    runner = SuiteRunner(jobs=1, cache_dir=str(tmp_path / "cache"))
    (report,) = runner.run([spec(True)])
    assert report.trace_aggregates is not None
    record = runner.metrics.records[-1]
    assert record.trace_events == report.trace_aggregates.events_recorded
    assert record.restarts == report.trace_aggregates.restarts
    assert "traced" in runner.metrics.summary()

    # warm hit returns the aggregates from the cache
    runner2 = SuiteRunner(jobs=1, cache_dir=str(tmp_path / "cache"))
    (cached,) = runner2.run([spec(True)])
    assert runner2.metrics.records[-1].cache_hit
    assert (cached.trace_aggregates.to_dict()
            == report.trace_aggregates.to_dict())


def test_cli_trace_writes_valid_chrome_json(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "bitops.json"
    code = main(["trace", "BitOps", "--size", "small",
                 "--out", str(out), "--timeline"])
    assert code == 0
    data = json.loads(out.read_text())
    assert validate_chrome_trace(data) == []
    names = {event.get("name") for event in data["traceEvents"]}
    assert any(name and name.startswith("iter") for name in names)
    captured = capsys.readouterr()
    assert "trace:" in captured.err
    assert "commit" in captured.out          # the --timeline text


def test_cli_trace_on_minijava_file(tmp_path, capsys):
    from repro.cli import main
    source_path = tmp_path / "prog.mj"
    source_path.write_text(wrap_main(
        "int t = 0;\n"
        "for (int i = 0; i < 400; i++) { t += (i * 7) % 13; }\n"
        "Sys.printInt(t);\n"
        "return t;"))
    out = tmp_path / "prog.json"
    assert main(["trace", str(source_path), "--out", str(out)]) == 0
    assert validate_chrome_trace(json.loads(out.read_text())) == []


def test_cli_bench_trace_flag(capsys):
    from repro.cli import main
    assert main(["bench", "BitOps", "--size", "small", "--trace"]) == 0
    captured = capsys.readouterr()
    assert "trace:" in captured.err
    assert "events recorded" in captured.err


# ---------------------------------------------------------------------------
# request-correlated tracing (ISSUE 10)
# ---------------------------------------------------------------------------

def test_chrome_trace_stamps_request_id_and_encloses_pipeline():
    """When a collector carries a daemon request id, the export gains
    one enclosing request span and stamps the id on every
    non-counter event's args."""
    report = traced_report()
    report.trace.request_id = "r42"
    data = chrome_trace(report.trace, name="traced")
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["request_id"] == "r42"

    spans = [e for e in data["traceEvents"]
             if e.get("cat") == "request"]
    assert len(spans) == 1
    request_span = spans[0]
    assert request_span["ph"] == "X"
    assert request_span["name"] == "request r42"

    start = request_span["ts"]
    end = start + request_span["dur"]
    for event in data["traceEvents"]:
        if event["ph"] == "M" or event is request_span:
            continue
        if event["ph"] != "C":
            assert event["args"]["request_id"] == "r42"
            # the request span encloses every pipeline event
            assert start <= event["ts"] \
                <= event["ts"] + event.get("dur", 0) <= end
        else:
            # counter args must stay all-numeric for trace viewers
            assert "request_id" not in event.get("args", {})


def test_chrome_trace_without_request_id_is_byte_identical():
    """request_id=None must leave the export untouched (the scheduler
    differential suite depends on byte-identical traces)."""
    report = traced_report()
    assert report.trace.request_id is None
    plain = chrome_trace(report.trace, name="traced")
    assert not any(e.get("cat") == "request"
                   for e in plain["traceEvents"])
    assert "request_id" not in plain["otherData"]
    assert not any("request_id" in e.get("args", {})
                   for e in plain["traceEvents"] if e["ph"] != "M")
