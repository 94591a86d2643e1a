"""The repository benchmark: three workloads, each putting a different
set of layers on the critical path.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --trace 1

* ``sweep-cold`` — every registry program at ``size="small"`` through
  ``Jrpm().run(source)``, one at a time in seeded order, each pass in a
  fresh interpreter (``sweep_pass.py``).  Every pipeline stage is on it.
* ``daemon-warm`` — ``jrpm serve --jobs 2 --no-cache --profdb``; a
  priming pass of cold runs fills the profile DB, then seeded rounds of
  ``run`` requests warm-start (baseline and TEST replayed).
* ``daemon-hot`` — ``jrpm serve --jobs 2 --no-cache``; a priming pass
  fills the artifact store, then every ``run`` request is a store hit.

Load is a closed loop from this one process: one program at a time for
the sweep; for the daemons, pipelined pairs of requests (at most two
outstanding, matching ``--jobs 2``), the next pair once both replied;
the pairs are fixed, the seed draws their order.

A run measures two sweep passes or three daemon rounds at least; the
sweep also sets up three times at least.  The end-to-end timings
are seconds on the reference host: each pass or round is scaled by the
median of ``common.calibrate`` samples taken between its operations,
which slow with the operations in the shared host's slow spells.
Then they are medians over the passes or rounds.  ``latency_p50_s`` is
the median over programs of each program's median latency (sweep), or
over the fixed pairs of each pair's median time to its last reply
(daemons); ``runs_per_s`` is the rate of one pass or round at those
times.  The table also prints them unscaled.

``--trace 0`` reports BENCHMARK.json's end-to-end metrics (the table
also prints the ungated ``latency_p50_s``); ``--trace 1``
its per-layer metrics (host seconds, unscaled), from spans this
benchmark records around the calls into each layer
(``.perfbench/trace-<workload>-<seed>.json``, Chrome trace format).
A human-readable table precedes the last stdout line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import functools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import common
import service_load

HERE = os.path.dirname(os.path.abspath(__file__))

#: per-layer metrics only the sweep can observe (stages run inside the
#: daemon's workers, out of the client's sight) ...
SWEEP_LAYERS = (
    "minijava.compile_s", "jit.compile_s", "jit.recompile_s",
    "engine.build_table_s", "engine.build_table_calls",
    "engine.build_table_distinct", "hydra.baseline_s",
    "hydra.baseline_minsn_per_s", "tracer.profile_s", "tracer.select_s",
    "tracer.profile_overhead_x", "tls.run_s", "tls.minsn_per_s",
    "core.report_s")
#: ... and the ones only the daemons have; each reads 0 elsewhere
SERVICE_LAYERS = (
    "service.daemon_p50_s", "service.wire_p50_s", "service.reply_bytes_p50",
    "service.job_p50_s", "runner.dispatch_p50_s",
    "runner.workers_per_request", "service.batches_per_request",
    "profdb.warm_ratio", "service.store_hit_ratio")
#: sweep span name -> stage label of the stage-share table
STAGES = (("tls.run", "TLS"), ("tracer.profile", "TEST profile"),
          ("hydra.baseline", "baseline"), ("engine.build_table",
                                            "table builds"),
          ("jit.compile", "JIT compile"), ("jit.recompile", "recompile"),
          ("minijava.compile", "frontend"), ("core.report", "report"),
          ("tracer.select", "select"))
#: daemon rounds a run measures at least: timings are each pair's median
#: over them
MIN_ROUNDS = 3


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.values = {}
        self.notes = []              # extra table lines

    def check(self, problems):
        """Book one operation; any problem makes it a failed one."""
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    @property
    def failed(self):
        return len(self.problems)


# -- sweep-cold ---------------------------------------------------------------

def sweep_cold(seed, seconds, trace):
    sources = common.workload_sources()
    oracle = common.oracle_outputs(sources)
    rng = random.Random(seed)
    modes = ("run", "traced") if trace else ("run",)
    passes = []
    started = time.perf_counter()
    # two passes at least (a pass is 11-19 s): the second repeats the
    # first's simulation
    while len(passes) < 2 or _another(started, len(passes), seconds):
        order = sorted(sources)
        rng.shuffle(order)
        passes.append(_sweep_pass(modes[len(passes) % len(modes)], order))
    setups = [one["setup_s"] * one["scale"] for one in passes]
    while len(setups) < 3:
        one = _sweep_pass("setup", [])
        setups.append(one["setup_s"] * one["scale"])

    out = Outcome()
    first = {}
    for one in passes:
        for program in one["programs"]:
            name = program["name"]
            if "error" in program:
                out.check(["%s: %s" % (name, program["error"])])
                continue
            reference = first.setdefault(name, program)
            problems = common.summary_problems(
                name, program["summary"], oracle, reference["summary"])
            if program["digest"] != reference["digest"]:
                problems.append("%s: the %s pass's report is not "
                                "byte-identical to the first pass's"
                                % (name, one["mode"]))
            out.check(problems)

    untraced = [one for one in passes if one["mode"] == "run"]
    unscaled = _sweep_timings(untraced, False)
    _unscaled_note(out, unscaled, [one["scale"] for one in untraced])
    out.values.update(_sweep_timings(untraced, True))
    executed = sum(common.executed_insns(program["summary"])
                   for program in first.values())
    out.values.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(one["rss_mb"] for one in untraced),
        "bench.sim_minsn_per_s": executed / len(first)
        * unscaled["runs_per_s"] / 1e6,
    })
    summaries = {name: program["summary"] for name, program in first.items()}
    out.values.update(common.fidelity(summaries))
    if trace:
        traced = [one for one in passes if one["mode"] == "traced"]
        layers = [_sweep_layers(one, summaries) for one in traced]
        out.values.update({key: statistics.median(layer[key]
                                                  for layer in layers)
                           for key in layers[0]})
        out.values.update(dict.fromkeys(SERVICE_LAYERS, 0.0))
        out.values["bench.trace_overhead_x"] = (
            statistics.mean(_pass_wall(one) for one in traced)
            / statistics.mean(_pass_wall(one) for one in untraced))
        _stage_shares(out, traced[0])
        _write_trace(out, "sweep-cold", seed,
                     [("pass %d" % index, one["trace"]["spans"])
                      for index, one in enumerate(traced, start=1)])
    return out


def _sweep_timings(passes, scaled):
    """``latency_p50_s`` over each program's median latency and the
    ``runs_per_s`` of one pass at those times, in reference or
    (unscaled) host seconds."""
    typical = common.medians(
        (program["name"], program["latency"] * (one["scale"] if scaled
                                                else 1.0))
        for one in passes for program in one["programs"]
        if "latency" in program)
    return {"runs_per_s": len(typical) / sum(typical.values()),
            "latency_p50_s": common.p50(list(typical.values()))}


def _unscaled_note(out, timings, scales):
    out.notes.append("host seconds, unscaled: runs_per_s %.6g 1/s, "
                     "latency_p50_s %.6g s (reference scale %.3f to %.3f)"
                     % (timings["runs_per_s"], timings["latency_p50_s"],
                        min(scales), max(scales)))


def _sweep_pass(mode, order):
    """Run one pass in a fresh interpreter; ``setup_s`` is the time from
    spawning it to its first timed operation."""
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "sweep_pass.py"), mode,
         json.dumps(order)],
        cwd=common.ROOT, stdout=subprocess.PIPE, check=True, timeout=170,
        universal_newlines=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    result["setup_s"] = result["setup_at"] - spawned
    result["mode"] = mode
    return result


def _pass_wall(one):
    return sum(program.get("latency", 0.0) for program in one["programs"])


def _sweep_layers(one, summaries):
    """Per-layer seconds (span self time) and rates of one traced pass."""
    own = common.self_times(one["trace"]["spans"])
    baseline = own.get("hydra.baseline", 0.0)
    profile = own.get("tracer.profile", 0.0)
    tls = own.get("tls.run", 0.0)
    sequential = sum(s["seq_insns"] for s in summaries.values())
    live = sum(s["tls_insns"] for s in summaries.values() if s["live_tls"])
    return {
        "minijava.compile_s": own.get("minijava.compile", 0.0),
        "jit.compile_s": own.get("jit.compile", 0.0),
        "jit.recompile_s": own.get("jit.recompile", 0.0),
        "engine.build_table_s": own.get("engine.build_table", 0.0),
        "engine.build_table_calls": one["trace"]["table_calls"],
        "engine.build_table_distinct": one["trace"]["table_distinct"],
        "hydra.baseline_s": baseline,
        "hydra.baseline_minsn_per_s": common.ratio(sequential, baseline)
        / 1e6,
        "tracer.profile_s": profile,
        "tracer.select_s": own.get("tracer.select", 0.0),
        "tracer.profile_overhead_x": common.ratio(profile, baseline),
        "tls.run_s": tls,
        "tls.minsn_per_s": common.ratio(live, tls) / 1e6,
        "core.report_s": own.get("core.report", 0.0),
    }


def _stage_shares(out, one):
    own = common.self_times(one["trace"]["spans"])
    wall = _pass_wall(one)
    out.notes.append("stage shares of one traced pass (%.2f s, span "
                     "self time):" % wall)
    for span_name, label in STAGES:
        seconds = own.get(span_name, 0.0)
        out.notes.append("  %-14s %7.3f s  %5.1f%%"
                         % (label, seconds, 100.0 * seconds / wall))


# -- daemon-warm / daemon-hot -------------------------------------------------

def _daemon_workload(seed, seconds, trace, warm):
    """Prime the daemon with one cold run per program (set-up), then
    stream seeded rounds of ``run`` requests in pairs.  A traced
    run records spans on odd rounds only, so even rounds give the
    untraced latency for ``bench.trace_overhead_x``."""
    sources = common.workload_sources()
    oracle = common.oracle_outputs(sources)
    rng = random.Random(seed)
    out = Outcome()
    cold = {}                        # name -> priming summary
    served = {}                      # name -> first timed summary
    samples = []    # (round, name, pair sent, latency, calibration)
    records = []                     # (round, latency, elapsed, size, wall)
    executed = 0                     # simulated instructions run live
    spans = [common.Spans() for _ in range(service_load.DEPTH)]

    def on_priming(tag, name, slot, sent, done, frame, size, calibration):
        samples.append((tag, name, sent, done - sent, calibration))
        problems, summary = _check_reply(name, frame, oracle, None)
        if summary is not None:
            cold.setdefault(name, summary)
            if frame["cached"]:
                problems.append("%s: priming reply was cached" % name)
        out.check(problems)

    def on_timed(tag, name, slot, sent, done, frame, size, calibration):
        nonlocal executed
        samples.append((tag, name, sent, done - sent, calibration))
        problems, summary = _check_reply(name, frame, oracle,
                                         cold.get(name))
        if summary is not None:
            if warm and summary["provenance"] != "warm":
                problems.append("%s: provenance %s, not warm"
                                % (name, summary["provenance"]))
            if not warm and not frame["cached"]:
                problems.append("%s: not a store hit" % name)
            served.setdefault(name, summary)
            wall = None if frame["cached"] \
                else frame["result"]["wall_time"]
            if wall is not None:
                executed += common.executed_insns(summary)
            records.append((tag, done - sent, frame["elapsed"], size, wall))
            if trace and tag % 2:
                _reply_spans(spans[slot], name, frame, sent, done, wall)
        out.check(problems)

    os.makedirs(common.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=common.OUT)
    daemon = None
    try:
        started = time.monotonic()
        daemon = service_load.Daemon(workdir, profdb=warm)
        daemon.connect()
        startup = time.monotonic() - started
        daemon.stream([(0, name) for name
                       in _paired_order(rng, sorted(sources))], on_priming)
        before = daemon.metrics() if trace else None
        daemon.stream(_rounds(rng, sorted(sources), seconds), on_timed)
        after = daemon.metrics() if trace else None
        rss = common.peak_rss_mb(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.close()
        shutil.rmtree(workdir, ignore_errors=True)

    scales, pairs = _pairs(samples)
    _unscaled_note(out, _daemon_timings(scales, pairs, False),
                   [scale for tag, scale in scales.items() if tag])
    out.values.update(_daemon_timings(scales, pairs, True))
    priming = sum(seconds for (tag, _), (_, seconds) in pairs.items()
                  if tag == 0)
    timed = sum(seconds for (tag, _), (_, seconds) in pairs.items() if tag)
    out.values.update({
        # daemon start-up plus the priming pairs' send-to-last-reply times
        "setup_s": (startup + priming) * scales[0],
        "peak_rss_mb": rss,
        "bench.sim_minsn_per_s": executed / timed / 1e6,
    })
    out.values.update(common.fidelity(served))
    if trace:
        out.values.update(dict.fromkeys(SWEEP_LAYERS, 0.0))
        out.values.update(_service_layers(records, before, after))
        out.values["bench.trace_overhead_x"] = common.ratio(
            statistics.mean(r[1] for r in records if r[0] % 2),
            statistics.mean(r[1] for r in records if not r[0] % 2))
        name = "daemon-warm" if warm else "daemon-hot"
        _write_trace(out, name, seed,
                     [("slot %d" % slot, one.events)
                      for slot, one in enumerate(spans)])
    return out


def _pairs(samples):
    """``({round: scale}, {(round, send stamp): (names, seconds)})``: the
    scale from each round's calibration samples, and per pair its two
    programs and the host seconds from its send to its last reply."""
    calibrations, pairs = {}, {}
    for tag, name, sent, latency, calibration in samples:
        calibrations.setdefault(tag, {})[sent] = calibration
        names, seconds = pairs.get((tag, sent), ((), 0.0))
        pairs[tag, sent] = (tuple(sorted(names + (name,))),
                            max(seconds, latency))
    return ({tag: common.reference_scale(list(values.values()))
             for tag, values in calibrations.items()}, pairs)


def _daemon_timings(scales, pairs, scaled):
    """Over the timed rounds (round 0 primes), in reference or (unscaled)
    host seconds: ``latency_p50_s``, the median over the fixed pairs of
    each pair's median time from its send to its last reply, and
    ``runs_per_s``, the rate of one round at those times.

    A pair is the client's unit: a single request's time depends on
    which pair ran before it, which the seed draws (its median over ten
    seeds spread by 0.20 on daemon-warm, the pair's by 0.02)."""
    factor = {tag: scale if scaled else 1.0
              for tag, scale in scales.items() if tag}
    typical = common.medians(
        (names, seconds * factor[tag])
        for (tag, _), (names, seconds) in pairs.items() if tag)
    return {"runs_per_s": sum(map(len, typical)) / sum(typical.values()),
            "latency_p50_s": common.p50(list(typical.values()))}


def _paired_order(rng, names):
    """Every program once, as the fixed pairs of neighbours in name
    order, the pairs in a seeded order.  A pair waits for its slower
    request, and the second request of a pair for the first's dispatch,
    so pairs or places in them drawn by the seed would make the cost of
    a round and of each program depend on the seed."""
    pairs = [names[i:i + service_load.DEPTH]
             for i in range(0, len(names), service_load.DEPTH)]
    rng.shuffle(pairs)
    return [name for pair in pairs for name in pair]


def _rounds(rng, names, seconds):
    """``(round, name)`` items: each round requests every program once,
    in :func:`_paired_order`, so each is requested equally often."""
    started = time.perf_counter()
    count = 0
    while count < MIN_ROUNDS or _another(started, count, seconds):
        count += 1
        for name in _paired_order(rng, names):
            yield count, name


def _another(started, units, seconds):
    """Whether to start another unit (pass or round) of the run: only
    whole units are measured, so the workload mix never depends on where
    the clock runs out; one starts while at least half of it, at the
    mean unit length so far, fits in *seconds*."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / units / 2 < seconds


def _check_reply(name, frame, oracle, reference):
    """``(problems, summary)`` of one ``run`` reply."""
    if not frame.get("ok"):
        error = frame.get("error") or {}
        return ["%s: %s reply: %s" % (name, error.get("kind"),
                                      error.get("message"))], None
    summary = common.summarize(frame["result"]["report"])
    return common.summary_problems(name, summary, oracle, reference), summary


def _reply_spans(spans, name, frame, sent, done, wall):
    """The client-side request span, with the daemon's share (``elapsed``)
    and the in-worker job (``wall_time``) as derived child spans: their
    lengths come from the reply, their placement is centred."""
    request = spans.add("service.request", frame["id"], sent, done,
                        workload=name, cached=frame["cached"])
    elapsed = frame["elapsed"]
    start = sent + max(done - sent - elapsed, 0.0) / 2
    handler = spans.add("service.daemon", frame["id"], start,
                        start + elapsed, parent=request, derived=True)
    if wall is not None:
        end = start + elapsed
        spans.add("service.job", frame["id"], end - min(wall, elapsed), end,
                  parent=handler, derived=True)


def _service_layers(records, before, after):
    """Reply-field medians plus metrics-verb deltas over the timed
    requests (the priming pass is before the first snapshot)."""
    def delta(family, **labels):
        return (service_load.counter(after, family, **labels)
                - service_load.counter(before, family, **labels))

    executed = [record for record in records if record[4] is not None]
    requests = len(records)
    return {
        "service.daemon_p50_s": common.p50([r[2] for r in records]),
        "service.wire_p50_s": common.p50([r[1] - r[2] for r in records]),
        "service.reply_bytes_p50": common.p50([r[3] for r in records]),
        "service.job_p50_s": common.p50([r[4] for r in executed]),
        "runner.dispatch_p50_s": common.p50([r[2] - r[4]
                                             for r in executed]),
        "runner.workers_per_request": common.ratio(
            delta("jrpm_pool_workers_spawned"), requests),
        "service.batches_per_request": common.ratio(
            delta("jrpm_scheduler_batches"), requests),
        "profdb.warm_ratio": common.ratio(
            delta("jrpm_profdb_warm_runs"), requests),
        "service.store_hit_ratio": common.ratio(
            delta("jrpm_store_lookups", verb="run", outcome="hit"),
            delta("jrpm_store_lookups", verb="run")),
    }


# -- output -------------------------------------------------------------------

def _write_trace(out, workload, seed, groups):
    path = os.path.join(common.OUT, "trace-%s-%d.json" % (workload, seed))
    problems = common.write_chrome_trace(path, groups, workload)
    out.check(["trace %s: %s" % (path, problem) for problem in problems])
    out.notes.append("trace: %s" % os.path.relpath(path, common.ROOT))


WORKLOADS = {"sweep-cold": sweep_cold,
             "daemon-warm": functools.partial(_daemon_workload, warm=True),
             "daemon-hot": functools.partial(_daemon_workload, warm=False)}


def report(workload, out, kind, spec):
    """Print the table; return the JSON metrics of *kind*."""
    metrics = {entry["name"]: {"value": out.values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in spec[kind]}
    print("%s: %d operations, %d failed" % (workload, out.attempted,
                                            out.failed))
    for problem in out.problems:
        print("  FAILED %s" % problem)
    for name, metric in metrics.items():
        print("  %-30s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if kind == "end_to_end":
        # ungated: failed_ratio reads 0, which has no relative bound, and
        # latency_p50_s spread by 0.16 over ten seeds on daemon-warm
        print("  %-30s %14.6g ratio" % (
            "failed_ratio", common.ratio(out.failed, out.attempted)))
        print("  %-30s %14.6g s" % ("latency_p50_s",
                                    out.values["latency_p50_s"]))
        print("  %-30s %14.6g Minsn/s" % (
            "sim_minsn_per_s", out.values["bench.sim_minsn_per_s"]))
    for note in out.notes:
        print("  " + note)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.import_repro()
    os.chdir(common.ROOT)
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = WORKLOADS[name](args.seed, args.seconds, args.trace)
        out.values["ok_ratio"] = 1.0 - common.ratio(out.failed,
                                                    out.attempted)
        metrics = report(name, out, kind, spec)
        result["correct"] = result["correct"] and out.failed == 0
        result["attempted"] += out.attempted
        result["failed"] += out.failed
        prefix = "" if len(names) == 1 else name + "/"
        result["metrics"].update((prefix + key, value)
                                 for key, value in metrics.items())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
