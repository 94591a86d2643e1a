"""Helpers shared by the benchmark's workloads: checkout paths, the
guest-output oracle, report summaries, medians, host-speed calibration,
in-memory spans and the Chrome-trace writer."""

import difflib
import json
import math
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager

#: the checkout root (this file lives in ``<root>/perfbench``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: run artifacts (daemon sockets, profile DBs, traces); git-ignored
OUT = os.path.join(ROOT, ".perfbench")
SIZE = "small"


def import_repro():
    """Put the checkout's ``src`` on the path; exit 2 when it is absent
    (the benchmark cannot run outside a full checkout)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from a checkout of "
              "the repository" % ROOT, file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def workload_sources():
    """``{name: MiniJava source}`` for every registry program."""
    from repro.workloads import lookup, names
    return {name: lookup(name).source(SIZE) for name in names()}


def oracle_outputs(sources):
    """Guest output of every program under the bytecode interpreter, the
    repository's independent reference for what a program prints."""
    from repro.bytecode.interpreter import run_program
    from repro.minijava import compile_source
    return {name: run_program(compile_source(text)).output
            for name, text in sources.items()}


def summarize(report):
    """The checked and aggregated fields of one ``JrpmReport.to_dict()``."""
    seq, prof, tls = report["sequential"], report["profiling"], report["tls"]
    breakdown = report["breakdown"] or {}
    return {
        "seq_output": seq["output"],
        "tls_output": tls["output"],
        # simulated counters that must repeat exactly between runs
        "counters": [seq["instructions"], seq["cycles"],
                     prof["instructions"], prof["cycles"],
                     tls["instructions"], tls["cycles"],
                     breakdown.get("violations", 0)],
        "live_tls": bool(report["plans"]),
        "seq_insns": seq["instructions"],
        "prof_insns": prof["instructions"],
        "tls_insns": tls["instructions"],
        "speedup": seq["cycles"] / tls["cycles"] if tls["cycles"] else 1.0,
        "run_used": breakdown.get("run_used", 0.0),
        "run_violated": breakdown.get("run_violated", 0.0),
        "violations": breakdown.get("violations", 0),
        "restarts": sum(stats.get("restarts", 0) for stats
                        in (report["stl_run_stats"] or {}).values()),
        "provenance": report["profile_provenance"],
    }


def executed_insns(summary):
    """Simulated instructions the run actually executed: a warm start
    replays the baseline and TEST runs, so only its live TLS run counts."""
    tls = summary["tls_insns"] if summary["live_tls"] else 0
    if summary["provenance"] == "warm":
        return tls
    return summary["seq_insns"] + summary["prof_insns"] + tls


def summary_problems(name, summary, oracle, reference=None):
    """Why *summary* is incorrect (empty when it is correct): TLS output
    must equal sequential output, sequential output must equal the
    oracle, and simulated counters must equal the *reference* run's."""
    from repro.core.pipeline import outputs_equal
    problems = []
    if not outputs_equal(summary["tls_output"], summary["seq_output"]):
        problems.append("%s: TLS output differs from sequential" % name)
    if not outputs_equal(summary["seq_output"], oracle[name]):
        problems.append("%s: sequential output differs from the "
                        "bytecode oracle" % name)
    if reference is not None \
            and summary["counters"] != reference["counters"]:
        problems.append("%s: simulated counters differ between repeats "
                        "(%s vs %s)" % (name, summary["counters"],
                                        reference["counters"]))
    return problems


def fidelity(summaries):
    """Simulated TLS aggregates over one summary per program, plus the
    paper-band error: the summed distance of each category's geomean
    ``tls_speedup`` from its paper band (0 inside the band).  Programs
    are taken in name order, so the floating-point sums repeat exactly."""
    from repro.workloads import CATEGORY_SPEEDUP_BANDS, lookup
    summaries = [(name, summaries[name]) for name in sorted(summaries)]
    by_category = {}
    for name, summary in summaries:
        by_category.setdefault(lookup(name).category, []).append(
            summary["speedup"])
    error = 0.0
    for category, (low, high) in CATEGORY_SPEEDUP_BANDS.items():
        if category in by_category:
            mean = geomean(by_category[category])
            error += max(low - mean, 0.0, mean - high)
    used = sum(s["run_used"] for _, s in summaries)
    violated = sum(s["run_violated"] for _, s in summaries)
    return {
        "paper_band_error": error,
        "tls.useful_ratio": ratio(used, used + violated),
        "tls.violations": sum(s["violations"] for _, s in summaries),
        "tls.restarts": sum(s["restarts"] for _, s in summaries),
        "tls.speedup_geomean": geomean([s["speedup"] for _, s in summaries]),
    }


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p50(values):
    return statistics.median(values) if values else 0.0


#: seconds one :func:`calibrate` call takes on the reference host (the
#: 2-vCPU Xeon of BASELINE.md in a quiet spell, CPython 3.11.7)
REFERENCE_CALIBRATION_S = 0.026


def _calibration_inputs(length=600):
    rng = random.Random(5)
    first = [rng.choice("abcdefgh") for _ in range(length)]
    second = list(first)
    for index in range(0, length, 7):
        second[index] = rng.choice("abcdefgh")
    return first, second


_CALIBRATION_INPUTS = _calibration_inputs()


def calibrate():
    """Time a fixed pure-Python job, the standard library's sequence
    matcher (dict and list traffic over a working set like the
    simulator's); returns its seconds.

    The host is shared: in its slow spells the pipeline runs up to 2x
    slower, and none of it shows as stolen time.  Timings taken between
    calls are scaled by :func:`reference_scale`, which takes most of that
    out: over a 400 s trace this job's time followed the pipeline's with
    a log-log slope of 0.85 (0.71 for a tight register-machine loop)."""
    first, second = _CALIBRATION_INPUTS
    start = time.perf_counter()
    difflib.SequenceMatcher(None, first, second,
                            autojunk=False).get_opcodes()
    return time.perf_counter() - start


def calibrate_each_cpu():
    """The mean :func:`calibrate` time over the CPUs this process may
    run on, one call pinned to each: for work done by other processes,
    on whichever CPU the scheduler gives them.  A slow spell can hit
    one CPU and not the other."""
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            samples.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(samples) / len(samples)


def reference_scale(calibrations):
    """The factor that turns host seconds into seconds on the reference
    host, from the :func:`calibrate` times taken between the timed
    operations of one pass or round (their median)."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def medians(samples):
    """``{key: median seconds}`` over ``(key, seconds)`` samples."""
    grouped = {}
    for key, seconds in samples:
        grouped.setdefault(key, []).append(seconds)
    return {key: statistics.median(values)
            for key, values in grouped.items()}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(pid=None):
    """High-water resident set of *pid* (default: this process), MB."""
    path = "/proc/%s/status" % (pid or "self")
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % path)


class Spans:
    """In-memory spans: ``[name, id, parent index, start, end, args]``.
    :meth:`span` stamps them with ``time.monotonic``, one clock for every
    process; :meth:`add` takes the caller's timestamps."""

    def __init__(self):
        self.events = []
        self._stack = []

    @contextmanager
    def span(self, name, span_id, **args):
        index = self.add(name, span_id, time.monotonic(), None, **args)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.events[index][4] = time.monotonic()

    def add(self, name, span_id, start, end, parent=None, **args):
        """Record one span; the parent defaults to the open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.events.append([name, span_id, parent, start, end, args])
        return len(self.events) - 1


def self_times(events):
    """``{name: summed self seconds}``; a span's self time is its
    duration minus the time its child spans cover."""
    durations = [end - start for _, _, _, start, end, _ in events]
    own = list(durations)
    for index, event in enumerate(events):
        if event[2] is not None:
            own[event[2]] -= durations[index]
    totals = {}
    for index, event in enumerate(events):
        totals[event[0]] = totals.get(event[0], 0.0) + own[index]
    return totals


def write_chrome_trace(path, groups, name):
    """Write span groups ``[(tid label, events), ...]`` as one Chrome
    trace document; returns the problems ``validate_chrome_trace`` finds."""
    from repro.trace.export import validate_chrome_trace
    starts = [event[3] for _, events in groups for event in events]
    origin = min(starts) if starts else 0.0
    trace = [{"name": "process_name", "ph": "M", "pid": 1,
              "args": {"name": name}}]
    for tid, (label, events) in enumerate(groups, start=1):
        trace.append({"name": "thread_name", "ph": "M", "pid": 1,
                      "tid": tid, "args": {"name": label}})
        for span_name, span_id, _, start, end, args in events:
            trace.append({"name": span_name, "ph": "X", "pid": 1,
                          "tid": tid, "ts": (start - origin) * 1e6,
                          "dur": (end - start) * 1e6,
                          "args": dict(args, id=span_id)})
    document = {"traceEvents": trace, "displayTimeUnit": "ms"}
    problems = validate_chrome_trace(document)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh)
    return problems
