"""Trace exporters: Chrome trace-event JSON and text timelines.

The JSON exporter emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
(the ``traceEvents`` array form) that ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_ load directly:

* one **thread track per simulated CPU** (pid 1 = "Hydra TLS"),
  carrying complete (``X``) spans for thread attempts and handlers and
  instant (``i``) marks for violations, restarts and overflows;
* a **TEST profile track** (pid 0) with loop activations and
  comparator-bank pressure from the sequential annotated run;
* **counter tracks** (``C``) for the cumulative L1/L2 hit counters.

Cycle timestamps map 1 cycle → 1 µs, so Perfetto's "ms" ruler reads as
kilocycles.
"""

import json

from .events import (EV_ADAPT, EV_BANK, EV_CACHE, EV_GC,
                     EV_HANDLER, EV_LOOP, EV_OVERFLOW, EV_PROFDB,
                     EV_RESTART, EV_STL, EV_THREAD, EV_VIOLATION)

PID_PROFILE = 0
PID_TLS = 1
#: daemon request-correlation track (PR-10): present only when the
#: collector carries a ``request_id`` — local exports are byte-
#: identical to pre-PR-10 output (the scheduler-differential contract).
PID_REQUEST = 2

_OUTCOME_NAMES = {
    "commit": "iter %d",
    "restart": "iter %d (restarted)",
    "squash": "iter %d (squashed)",
    "exit": "iter %d (exit)",
}


def _site_text(site):
    if site is None:
        return "?"
    method, line = site
    return "%s:%s" % (method, "?" if line is None else line)


def chrome_trace(collector, name="jrpm"):
    """Render a collector's event ring as a Chrome-trace JSON dict."""
    events = []
    cpus = set()
    add = events.append

    for event in collector.events():
        kind = event.kind
        loop = event.loop
        if kind == EV_THREAD:
            iteration, outcome = event.data
            add({"name": _OUTCOME_NAMES[outcome] % iteration,
                 "cat": "thread,%s" % outcome, "ph": "X",
                 "ts": event.ts, "dur": max(event.dur, 0.001),
                 "pid": PID_TLS, "tid": event.cpu,
                 "args": {"loop": loop, "iteration": iteration,
                          "outcome": outcome}})
            cpus.add(event.cpu)
        elif kind == EV_HANDLER:
            add({"name": event.data[0], "cat": "handler", "ph": "X",
                 "ts": event.ts, "dur": max(event.dur, 0.001),
                 "pid": PID_TLS, "tid": event.cpu,
                 "args": {"loop": loop}})
            cpus.add(event.cpu)
        elif kind == EV_VIOLATION:
            (store_iter, victim_iter, addr, source_site,
             sink_site) = event.data
            add({"name": "RAW violation", "cat": "violation", "ph": "i",
                 "ts": event.ts, "pid": PID_TLS, "tid": event.cpu,
                 "s": "p",
                 "args": {"loop": loop, "addr": addr,
                          "store_iteration": store_iter,
                          "victim_iteration": victim_iter,
                          "source": _site_text(source_site),
                          "sink": _site_text(sink_site)}})
            cpus.add(event.cpu)
        elif kind == EV_RESTART:
            iteration, cause, primary = event.data
            add({"name": "restart (%s)" % cause, "cat": "restart",
                 "ph": "i", "ts": event.ts, "pid": PID_TLS,
                 "tid": event.cpu, "s": "t",
                 "args": {"loop": loop, "iteration": iteration,
                          "primary": primary}})
            cpus.add(event.cpu)
        elif kind == EV_OVERFLOW:
            iteration, buffer, lines = event.data
            add({"name": "%s-buffer overflow" % buffer,
                 "cat": "overflow", "ph": "i", "ts": event.ts,
                 "pid": PID_TLS, "tid": event.cpu, "s": "t",
                 "args": {"loop": loop, "iteration": iteration,
                          "lines": lines}})
            cpus.add(event.cpu)
        elif kind == EV_STL:
            edge, entries = event.data
            add({"name": "STL %s %s" % (loop, edge), "cat": "stl",
                 "ph": "i", "ts": event.ts, "pid": PID_TLS,
                 "tid": event.cpu, "s": "p",
                 "args": {"loop": loop, "entries": entries}})
            cpus.add(event.cpu)
        elif kind == EV_CACHE:
            l1_hits, l1_misses, l2_hits, l2_misses = event.data
            add({"name": "L1", "cat": "cache", "ph": "C",
                 "ts": event.ts, "pid": PID_TLS,
                 "args": {"hits": l1_hits, "misses": l1_misses}})
            add({"name": "L2", "cat": "cache", "ph": "C",
                 "ts": event.ts, "pid": PID_TLS,
                 "args": {"hits": l2_hits, "misses": l2_misses}})
        elif kind == EV_GC:
            add({"name": "GC", "cat": "gc", "ph": "X", "ts": event.ts,
                 "dur": max(event.dur, 0.001), "pid": PID_TLS,
                 "tid": event.cpu if event.cpu is not None else 0,
                 "args": {}})
        elif kind == EV_LOOP:
            add({"name": "loop %s %s" % (loop, event.data[0]),
                 "cat": "profile", "ph": "i", "ts": event.ts,
                 "pid": PID_PROFILE, "tid": 0, "s": "t",
                 "args": {"loop": loop}})
        elif kind == EV_BANK:
            add({"name": "bank %s" % event.data[0], "cat": "profile",
                 "ph": "i", "ts": event.ts, "pid": PID_PROFILE,
                 "tid": 0, "s": "t", "args": {"loop": loop}})
        elif kind == EV_ADAPT:
            action, epoch, detail = event.data
            add({"name": "adapt: %s loop %s" % (action, loop),
                 "cat": "adapt", "ph": "i", "ts": event.ts,
                 "pid": PID_TLS, "tid": 0, "s": "g",
                 "args": {"loop": loop, "action": action,
                          "epoch": epoch, "detail": detail}})
        elif kind == EV_PROFDB:
            outcome, name = event.data
            add({"name": "profdb: %s %s" % (outcome, name),
                 "cat": "profdb", "ph": "i", "ts": event.ts,
                 "pid": PID_PROFILE, "tid": 0, "s": "g",
                 "args": {"outcome": outcome, "workload": name}})

    metadata = [
        {"ph": "M", "pid": PID_PROFILE, "tid": 0, "name": "process_name",
         "args": {"name": "TEST profile (sequential annotated run)"}},
        {"ph": "M", "pid": PID_PROFILE, "tid": 0, "name": "thread_name",
         "args": {"name": "comparator banks"}},
        {"ph": "M", "pid": PID_TLS, "tid": 0, "name": "process_name",
         "args": {"name": "Hydra TLS execution"}},
    ]
    for cpu in sorted(c for c in cpus if c is not None):
        metadata.append({"ph": "M", "pid": PID_TLS, "tid": cpu,
                         "name": "thread_name",
                         "args": {"name": "CPU %d" % cpu}})

    request_id = getattr(collector, "request_id", None)
    if request_id is not None and events:
        # Correlate: every pipeline/TLS event carries the id, and one
        # span on its own track visually encloses the whole request in
        # Perfetto (sorted above the TLS/profile tracks).
        start = min(event["ts"] for event in events)
        end = max(event["ts"] + event.get("dur", 0.0)
                  for event in events)
        for event in events:
            if event["ph"] != "C":     # counter args must stay numeric
                event.setdefault("args", {})["request_id"] = request_id
        events.insert(0, {
            "name": "request %s" % request_id, "cat": "request",
            "ph": "X", "ts": start, "dur": max(end - start, 0.001),
            "pid": PID_REQUEST, "tid": 0,
            "args": {"request_id": request_id}})
        metadata.append({"ph": "M", "pid": PID_REQUEST, "tid": 0,
                         "name": "process_name",
                         "args": {"name": "daemon request"}})
        metadata.append({"ph": "M", "pid": PID_REQUEST, "tid": 0,
                         "name": "process_sort_index",
                         "args": {"sort_index": -1}})

    aggregates = collector.finish()
    payload = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.trace",
            "name": name,
            "clock": "1 cycle = 1us",
            "events_recorded": aggregates.events_recorded,
            "events_dropped": aggregates.events_dropped,
        },
    }
    if request_id is not None:
        payload["otherData"]["request_id"] = request_id
    return payload


def write_chrome_trace(collector, path, name="jrpm"):
    """Serialize :func:`chrome_trace` to *path*; returns the path."""
    with open(path, "w") as fh:
        fh.write(json.dumps(chrome_trace(collector, name=name)))
    return path


# ---------------------------------------------------------------------------
# schema validation (used by tests, scripts/check_trace_schema.py, CI)
# ---------------------------------------------------------------------------

_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid", "s"),
    "C": ("name", "ts", "pid", "args"),
    "M": ("name", "pid", "args"),
}


def validate_chrome_trace(data):
    """Check Chrome trace-event JSON shape; returns a list of problem
    strings (empty means the trace is loadable)."""
    problems = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append("event %d is not an object" % index)
            continue
        phase = event.get("ph")
        if phase not in _REQUIRED_BY_PHASE:
            problems.append("event %d: unknown ph %r" % (index, phase))
            continue
        for key in _REQUIRED_BY_PHASE[phase]:
            if key not in event:
                problems.append("event %d (%s): missing %r"
                                % (index, phase, key))
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                problems.append("event %d: %s is not numeric"
                                % (index, key))
        if phase == "C":
            args = event.get("args", {})
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                problems.append("event %d: counter args must be numeric"
                                % index)
        if phase == "M" and event.get("name") not in (
                "process_name", "thread_name", "process_labels",
                "process_sort_index", "thread_sort_index"):
            problems.append("event %d: unknown metadata %r"
                            % (index, event.get("name")))
    return problems


# ---------------------------------------------------------------------------
# text timeline
# ---------------------------------------------------------------------------

def format_timeline(collector, loop_table=None, max_events_per_loop=40):
    """Per-loop text timeline of the recorded events (newest ring
    contents).  ``loop_table`` (optional) adds method/line labels."""
    by_loop = {}
    machine_level = []
    for event in collector.events():
        if event.kind == EV_CACHE:
            continue                  # counters are noise in text form
        if event.loop is None:
            machine_level.append(event)
        else:
            by_loop.setdefault(event.loop, []).append(event)

    lines = []
    out = lines.append
    for loop_id in sorted(by_loop):
        label = "loop %s" % loop_id
        if loop_table is not None and loop_id in loop_table:
            meta = loop_table[loop_id]
            label += "  (%s line %s)" % (meta.method_name, meta.line)
        out(label)
        events = by_loop[loop_id]
        shown = events[-max_events_per_loop:]
        if len(events) > len(shown):
            out("  ... %d earlier events elided" %
                (len(events) - len(shown)))
        for event in shown:
            out("  " + _timeline_line(event))
        out("")
    if machine_level:
        out("machine")
        for event in machine_level[-max_events_per_loop:]:
            out("  " + _timeline_line(event))
    return "\n".join(lines).rstrip()


def _timeline_line(event):
    cpu = "cpu%s" % event.cpu if event.cpu is not None else "    "
    prefix = "[%12.0f] %-5s" % (event.ts, cpu)
    kind = event.kind
    data = event.data
    if kind == EV_THREAD:
        return "%s thread iter %-6d %-8s (%.0f cycles)" \
            % (prefix, data[0], data[1], event.dur)
    if kind == EV_VIOLATION:
        return ("%s RAW violation @0x%x  iter %d stored -> iter %d had "
                "read  (%s -> %s)"
                % (prefix, data[2], data[0], data[1],
                   _site_text(data[3]), _site_text(data[4])))
    if kind == EV_RESTART:
        return "%s restart iter %-6d cause=%s%s" \
            % (prefix, data[0], data[1], "" if data[2] else " (collateral)")
    if kind == EV_OVERFLOW:
        return "%s %s-buffer overflow iter %d (%d lines)" \
            % (prefix, data[1], data[0], data[2])
    if kind == EV_HANDLER:
        return "%s handler %-8s %.0f cycles" % (prefix, data[0], event.dur)
    if kind == EV_STL:
        return "%s stl %s" % (prefix, data[0])
    if kind == EV_GC:
        return "%s gc %.0f cycles" % (prefix, event.dur)
    if kind == EV_LOOP:
        return "%s profile loop %s" % (prefix, data[0])
    if kind == EV_BANK:
        return "%s comparator bank %s" % (prefix, data[0])
    if kind == EV_ADAPT:
        return "%s adapt %s (epoch %s)%s" \
            % (prefix, data[0], data[1],
               "  %s" % data[2] if data[2] else "")
    if kind == EV_PROFDB:
        return "%s profdb %s %s" % (prefix, data[0], data[1])
    return "%s %s %r" % (prefix, kind, data)
