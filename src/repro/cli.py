"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE|NAME [--size S] [--trace-out T.json] [--adapt] [--json]``
  — run one program, a MiniJava file or one of the 26 paper
  benchmarks, through the full pipeline and print its report; with
  ``--trace``/``--trace-out``/``--timeline`` the cycle-level event
  collector is attached (see docs/observability.md), with ``--adapt``
  it runs under the epoch-based adaptive recompilation controller
  (see docs/adaptation.md)
* ``suite [--size S] [--jobs N]`` — run the whole suite in parallel,
  memoized in the report cache, and print the summary
* ``list``                      — list the available benchmarks
* ``profile FILE``              — show only the TEST profile + verdicts
* ``analyze FILE|NAME [--json]`` — static dependence analysis: per-loop
  carried-dependence classification (must/may/absent), predicted
  violation arcs, and agreement with what the TEST profiler actually
  observed (see docs/analysis.md)
* ``serve --socket PATH | --port N`` — start the persistent execution
  daemon: a shared artifact store + batched scheduler behind a
  line-delimited JSON protocol (see docs/service.md); talk to it with
  ``repro.service.JrpmClient``
* ``profdb [stats|export|gc]`` — inspect or maintain the persistent
  profile DB that ``--profdb`` runs record into and warm-start from
  (see docs/profdb.md)
* ``metrics [--socket PATH | --port N] [--json]`` — dump a running
  daemon's metrics registry (OpenMetrics text by default; the same
  document ``GET /metrics`` serves — see docs/metrics.md)

Every subcommand builds one :class:`repro.service.RunOptions` from its
flags — the single options dataclass shared with the ``Session`` API
and the wire protocol.  The global ``--log-level`` flag (or the
``JRPM_LOG`` environment variable) turns on structured logging for
every ``repro.*`` logger.
"""

import argparse
import json
import os
import sys

from .core.pipeline import Jrpm
from .core.report import format_report, format_suite_summary
from .errors import DivergenceError
from .hydra.config import ENGINES
from .minijava import compile_source


def _add_profdb_flags(parser):
    parser.add_argument("--profdb", default=None, metavar="PATH",
                        help="persistent profile DB directory: record "
                             "profiles and warm-start from stored "
                             "records (see docs/profdb.md)")
    parser.add_argument("--warm-start", default="auto",
                        choices=["auto", "off"],
                        help="how to use stored profiles: auto = "
                             "whenever the exact input is stored "
                             "(default), off = always profile (still "
                             "records)")


def _add_target_flags(parser):
    parser.add_argument("--size", default="default",
                        choices=["small", "default", "large"],
                        help="benchmark input size (default: default)")
    parser.add_argument("--manual", action="store_true",
                        help="the benchmark's hand-transformed variant")


def _add_hw_flags(parser):
    parser.add_argument("--cpus", type=int, default=4,
                        help="number of simulated CPUs (default 4)")
    parser.add_argument("--old-handlers", action="store_true",
                        help="use the paper's 'Old' handler overheads")
    parser.add_argument("--engine", default="fast", choices=ENGINES,
                        help="fast = predecoded tables + event-driven TLS "
                             "scheduler (default); reference = the if/elif "
                             "dispatcher + stepwise TLS scheduler "
                             "(cycle-identical, several times slower; the "
                             "differential reference — see "
                             "docs/performance.md)")


def _options_from(args):
    """The :class:`repro.service.RunOptions` for one CLI invocation —
    every subcommand's flags map onto the same dataclass."""
    from .service.options import RunOptions
    return RunOptions(
        cpus=args.cpus,
        old_handlers=args.old_handlers,
        engine=args.engine,
        trace=bool(getattr(args, "trace", False)
                   or getattr(args, "trace_out", None)
                   or getattr(args, "timeline", False)),
        adapt=getattr(args, "adapt", False),
        epochs=getattr(args, "epochs", 4),
        profile_db=getattr(args, "profdb", None),
        warm_start=getattr(args, "warm_start", "auto"))


def _workload_source(args):
    """(source, name) for a run/analyze target: a MiniJava file path
    (anything that exists on disk), else a registry workload.  Raises
    :class:`ValueError` for an unusable target (unknown workload, no
    manual variant)."""
    if os.path.exists(args.target):
        with open(args.target) as fh:
            return fh.read(), args.target
    from .service.jobs import resolve_workload
    return resolve_workload(args.target, args.size,
                            "manual" if args.manual else "base")


def cmd_run(args):
    """Run one program through the pipeline (under the adaptive
    controller with ``--adapt``) and print its report, adaptation log
    or trace; exit 1 if the speculative output differs."""
    try:
        source, name = _workload_source(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    options = _options_from(args)
    jrpm = Jrpm(options=options)
    program = compile_source(source)
    if options.adapt:
        try:
            report = jrpm.run_adaptive(program, name=name,
                                       epochs=options.epochs, verify=True)
        except DivergenceError as error:
            print("run: %s" % error, file=sys.stderr)
            return 1
    else:
        report = jrpm.run(program, name=name)
    if args.json:
        if report.adaptation is not None:
            payload = report.adaptation.to_dict()
            payload["outputs_match"] = report.outputs_match()
            payload["tls_speedup"] = report.tls_speedup
        else:
            payload = dict(_workload_json(report), name=name)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report(report, verbose=args.verbose))
    if report.trace is not None:
        _emit_trace(report, name, args.trace_out, timeline=args.timeline)
    return 0 if report.outputs_match() else 1


def _emit_trace(report, name, out, timeline=False):
    """Print trace aggregates (stderr) and optionally export the
    Chrome trace / per-loop timeline of a traced report."""
    from .trace import format_timeline, write_chrome_trace
    aggregates = report.trace_aggregates
    if aggregates is not None:
        for line in aggregates.summary_lines():
            print(line, file=sys.stderr)
    if out:
        write_chrome_trace(report.trace, out, name=name)
        print("trace:  wrote %s (%d events; open in "
              "https://ui.perfetto.dev or chrome://tracing)"
              % (out, aggregates.events_recorded if aggregates else 0),
              file=sys.stderr)
    if timeline:
        print(format_timeline(report.trace))


def cmd_analyze(args):
    """Static dependence analysis cross-checked against a TEST run
    (``analyze`` verb; docs/analysis.md)."""
    try:
        source, name = _workload_source(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    from .analysis import AnalysisReport
    from .core.report import format_analysis
    from .service import Session
    with Session.local(use_store=False) as session:
        result = session.analyze(source, name=name,
                                 options=_options_from(args))
    if args.json:
        payload = {"name": name,
                   "analysis": result["analysis"],
                   "loops": result["loops"],
                   "selected": result["selected"]}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    analysis = AnalysisReport.from_dict(result["analysis"])
    print(format_analysis(analysis, verbose=args.verbose))
    print()
    print("dynamic selector agreement:")
    for entry in result["loops"]:
        if entry["pruned"] and entry["selected"]:
            verdict = "DISAGREE: static bound below threshold but " \
                      "selected"
        elif entry["pruned"]:
            verdict = "agree: static bound below threshold, not " \
                      "selected"
        elif entry["selected"]:
            verdict = "selected"
        else:
            verdict = "not selected"
        print("  %-24s line %-5s %s"
              % ("%s#%d" % (entry["method"], entry["ordinal"]),
                 entry["line"], verdict))
    # a loop whose static bound rules it out (``pruned``) but which the
    # dynamic selector commits is an analyzer soundness bug — make it
    # the exit code
    return 1 if any(entry["pruned"] and entry["selected"]
                    for entry in result["loops"]) else 0


def cmd_suite(args):
    from .runner import SuiteRunError, SuiteRunner
    runner = SuiteRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                         use_cache=not args.no_cache)
    workloads = None
    if args.only:
        workloads = [name.strip() for name in args.only.split(",")
                     if name.strip()]
    try:
        reports = runner.run_suite(
            size=args.size, workloads=workloads,
            options=_options_from(args),
            progress=lambda message: print(message, file=sys.stderr))
    except SuiteRunError as error:
        print(error, file=sys.stderr)
        print(runner.metrics.summary(), file=sys.stderr)
        return 1
    except ValueError as error:         # unknown workload: nothing ran
        print(error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(_suite_json(reports, runner.metrics), indent=2,
                         sort_keys=True))
    else:
        print(format_suite_summary(reports))
    # metrics go to stderr so stdout stays byte-comparable across --jobs
    print(runner.metrics.summary(), file=sys.stderr)
    return 0


def _workload_json(report):
    entry = {
        "sequential_cycles": report.sequential.cycles,
        "tls_cycles": report.tls.cycles,
        "tls_speedup": report.tls_speedup,
        "predicted_speedup": report.predicted_speedup,
        "total_speedup": report.total_speedup,
        "profiling_slowdown": report.profiling_slowdown,
        "selected_stls": len(report.plans),
        "outputs_match": report.outputs_match(),
    }
    if report.adaptation is not None:
        log = report.adaptation
        entry["adapt"] = {
            "epochs": log.epochs_run,
            "decisions": len(log.applied_decisions()),
            "converged_epoch": log.converged_epoch,
            "initial_cycles": log.initial_cycles,
            "final_cycles": log.final_cycles,
            "steady_state_gain": log.steady_state_gain,
        }
    return entry


def _suite_json(reports, metrics):
    return {
        "workloads": {name: _workload_json(report)
                      for name, report in reports.items()},
        "metrics": {
            "runs": len(metrics.records),
            "cache_hits": metrics.hits,
            "cache_misses": metrics.misses,
            "cache_hit_rate": metrics.hit_rate,
            "wall_time": metrics.wall_time,
            "jobs": metrics.jobs,
            "records": [record.to_dict() for record in metrics.records],
        },
    }


def cmd_list(args):
    from .workloads import all_workloads
    for workload in all_workloads():
        star = " *" if workload.has_manual_variant else ""
        print("%-14s %-14s %s%s" % (workload.name, workload.category,
                                    workload.description, star))
    return 0


def cmd_profile(args):
    """TEST profile via the session API (``profile`` verb, steps 1-3)."""
    from .service import Session
    with open(args.file) as fh:
        source = fh.read()
    with Session.local(use_store=False) as session:
        result = session.profile(source, options=_options_from(args))
    print("%-5s %-6s %8s %9s %8s %8s  %s"
          % ("loop", "line", "threads", "avg cyc", "arcfreq", "pred",
             "verdict"))
    for loop_id in sorted(result["loops"], key=int):
        entry = result["loops"][loop_id]
        print("%-5d %-6s %8d %9.1f %8.2f %7.2fx  %s"
              % (int(loop_id), entry["line"], entry["threads"],
                 entry["avg_thread_cycles"], entry["arc_frequency"],
                 entry["predicted_speedup"], entry["verdict"]))
    return 0


def cmd_profdb(args):
    """Inspect or maintain a persistent profile DB (docs/profdb.md)."""
    from .profdb import ProfileDb, validate_profdb_dict
    db = ProfileDb(args.path)
    if args.op == "export":
        payload = db.export()
        problems = validate_profdb_dict(payload)
        if problems:
            for problem in problems:
                print("profdb: %s" % problem, file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.op == "gc":
        evicted = db.gc(max_programs=args.max_programs,
                        max_inputs=args.max_inputs)
        stats = db.stats_dict()
        if args.json:
            print(json.dumps({"evicted": evicted, "profdb": stats},
                             indent=2, sort_keys=True))
        else:
            print("evicted %d entr%s; %d program%s / %d input%s remain"
                  % (evicted, "y" if evicted == 1 else "ies",
                     stats["programs"],
                     "" if stats["programs"] == 1 else "s",
                     stats["inputs"],
                     "" if stats["inputs"] == 1 else "s"))
        return 0
    stats = db.stats_dict()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print("profile DB %s (schema %d, %d bytes)"
          % (stats["path"], stats["schema"], stats["size_bytes"]))
    print("  %d program%s, %d input%s, %d loop%s"
          % (stats["programs"], "" if stats["programs"] == 1 else "s",
             stats["inputs"], "" if stats["inputs"] == 1 else "s",
             stats["loops"], "" if stats["loops"] == 1 else "s"))
    print("  %d cold run%s recorded, %d warm start%s served"
          % (stats["runs"], "" if stats["runs"] == 1 else "s",
             stats["warm_runs"], "" if stats["warm_runs"] == 1 else "s"))
    for row in stats["per_program"]:
        print("  - %-24s %3d run%s %2d input%s"
              % (row["name"], row["runs"],
                 "" if row["runs"] == 1 else "s",
                 row["inputs"], "" if row["inputs"] == 1 else "s"))
    return 0


def cmd_serve(args):
    """Start the persistent execution daemon (docs/service.md)."""
    from .service import JrpmServer, run_server
    if (args.socket is None) == (args.port is None):
        print("serve: exactly one of --socket/--port is required",
              file=sys.stderr)
        return 2
    server = JrpmServer(
        socket_path=args.socket, host=args.host, port=args.port,
        jobs=args.jobs, queue_limit=args.queue_limit,
        timeout=args.timeout, batch_max=args.batch_max,
        cache_dir=args.cache_dir, use_cache=not args.no_cache,
        profdb_path=args.profdb, metrics_port=args.metrics_port)
    return run_server(server)


def cmd_metrics(args):
    """Dump a daemon's metrics registry (docs/metrics.md)."""
    from .service import Session
    fmt = "json" if args.json else "openmetrics"
    if args.socket is None and args.port is None:
        print("metrics: need --socket or --port of a running daemon",
              file=sys.stderr)
        return 2
    with Session.connect(socket_path=args.socket, host=args.host,
                         port=args.port) as session:
        result = session.metrics(format=fmt)
    if args.json:
        print(json.dumps(result["metrics"], indent=2, sort_keys=True))
    else:
        sys.stdout.write(result["openmetrics"])
    return 0


def main(argv=None):
    from . import package_version
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version",
                        version="jrpm %s" % package_version())
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="enable structured logging for repro.* "
                             "loggers (debug, info, warning, error; "
                             "default: $JRPM_LOG or warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one program: a MiniJava file or a benchmark")
    p_run.add_argument("target",
                       help="MiniJava file path or benchmark name")
    _add_target_flags(p_run)
    p_run.add_argument("--verbose", "-v", action="store_true")
    p_run.add_argument("--trace", action="store_true",
                       help="attach the event collector and print "
                            "trace aggregates on stderr")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="also export a Chrome trace JSON (load in "
                            "Perfetto / chrome://tracing; implies "
                            "--trace)")
    p_run.add_argument("--adapt", action="store_true",
                       help="run under the adaptive recompilation "
                            "controller, checking every epoch's output "
                            "(docs/adaptation.md)")
    p_run.add_argument("--epochs", type=int, default=4, metavar="N",
                       help="maximum epochs for --adapt (default 4)")
    shown = p_run.add_mutually_exclusive_group()
    shown.add_argument("--timeline", action="store_true",
                       help="print the per-loop text timeline on stdout "
                            "(implies --trace)")
    shown.add_argument("--json", action="store_true",
                       help="print JSON instead of the report: the "
                            "adaptation log with --adapt (schema "
                            "checked by scripts/check_adapt_log.py), "
                            "else the suite's per-workload entry")
    _add_hw_flags(p_run)
    _add_profdb_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_suite = sub.add_parser("suite", help="run the whole 26-benchmark "
                                           "suite")
    p_suite.add_argument("--size", default="small",
                         choices=["small", "default", "large"])
    p_suite.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes for cache misses "
                              "(default 1: in-process)")
    p_suite.add_argument("--cache-dir", default=None,
                         help="report cache directory (default "
                              "benchmarks/.cache)")
    p_suite.add_argument("--no-cache", action="store_true",
                         help="ignore and do not update the report cache")
    p_suite.add_argument("--json", action="store_true",
                         help="emit machine-readable results + metrics "
                              "on stdout")
    p_suite.add_argument("--only", default=None, metavar="NAMES",
                         help="comma-separated workload subset")
    p_suite.add_argument("--trace", action="store_true",
                         help="trace every run; its event counts join "
                              "the summary (separate cache keys)")
    p_suite.add_argument("--adapt", action="store_true",
                         help="run every workload under the adaptive "
                              "recompilation controller (separate "
                              "cache keys)")
    p_suite.add_argument("--epochs", type=int, default=4, metavar="N",
                         help="maximum epochs for --adapt (default 4)")
    _add_hw_flags(p_suite)
    _add_profdb_flags(p_suite)
    p_suite.set_defaults(fn=cmd_suite)

    p_list = sub.add_parser("list", help="list the benchmarks")
    p_list.set_defaults(fn=cmd_list)

    p_prof = sub.add_parser("profile", help="show the TEST profile of a "
                                            "MiniJava file")
    p_prof.add_argument("file")
    _add_hw_flags(p_prof)
    p_prof.set_defaults(fn=cmd_profile)

    p_analyze = sub.add_parser(
        "analyze", help="static dependence analysis vs the TEST "
                        "profile")
    p_analyze.add_argument("target",
                           help="MiniJava file path or benchmark name")
    _add_target_flags(p_analyze)
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the analysis report as JSON on "
                                "stdout (schema checked by "
                                "scripts/check_analysis_report.py)")
    p_analyze.add_argument("--verbose", "-v", action="store_true",
                           help="also list every predicted dependence "
                                "arc")
    _add_hw_flags(p_analyze)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_serve = sub.add_parser(
        "serve", help="start the persistent execution daemon")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a unix domain socket")
    p_serve.add_argument("--port", type=int, default=None,
                         help="listen on TCP (0 picks a free port)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default 127.0.0.1)")
    p_serve.add_argument("--jobs", "-j", type=int, default=2,
                         help="worker processes (default 2)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="bounded-queue depth before submits are "
                              "rejected with 'overloaded' (default 64)")
    p_serve.add_argument("--batch-max", type=int, default=16,
                         help="max jobs per scheduler batch "
                              "(default 16)")
    p_serve.add_argument("--timeout", type=float, default=300.0,
                         help="default per-request seconds before the "
                              "worker is terminated (default 300)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persistent report cache directory "
                              "(default benchmarks/.cache, shared "
                              "with `suite`)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve from memory only; nothing "
                              "persists across restarts")
    p_serve.add_argument("--profdb", default=None, metavar="PATH",
                         help="shared persistent profile DB "
                              "directory: run/run_adaptive jobs record "
                              "profiles and warm-start from stored "
                              "records (docs/profdb.md)")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="N",
                         help="also serve OpenMetrics text on "
                              "http://127.0.0.1:N/metrics (0 picks a "
                              "free port; see docs/metrics.md)")
    p_serve.set_defaults(fn=cmd_serve)

    p_metrics = sub.add_parser(
        "metrics", help="dump a running daemon's metrics registry")
    p_metrics.add_argument("--socket", default=None, metavar="PATH",
                           help="daemon unix socket")
    p_metrics.add_argument("--port", type=int, default=None,
                           help="daemon TCP port")
    p_metrics.add_argument("--host", default="127.0.0.1",
                           help="daemon TCP host (default 127.0.0.1)")
    p_metrics.add_argument("--json", action="store_true",
                           help="lossless registry dict instead of "
                                "OpenMetrics text")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_profdb = sub.add_parser(
        "profdb", help="inspect/maintain a persistent profile DB")
    p_profdb.add_argument("op", nargs="?", default="stats",
                          choices=["stats", "export", "gc"],
                          help="stats (default): summary counters; "
                               "export: full validated JSON payload; "
                               "gc: evict beyond the size caps")
    p_profdb.add_argument("--path", default=None,
                          help="DB directory (default $JRPM_PROFDB_PATH "
                               "or benchmarks/.cache/profdb)")
    p_profdb.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_profdb.add_argument("--max-programs", type=int, default=None,
                          metavar="N", help="gc: program-entry cap")
    p_profdb.add_argument("--max-inputs", type=int, default=None,
                          metavar="N",
                          help="gc: inputs-per-program cap")
    p_profdb.set_defaults(fn=cmd_profdb)

    args = parser.parse_args(argv)
    if args.log_level is not None or os.environ.get("JRPM_LOG"):
        from .log import configure
        configure(args.log_level)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
