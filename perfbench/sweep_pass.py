"""One ``sweep-cold`` pass in a fresh interpreter.

    python3 perfbench/sweep_pass.py MODE '["BitOps", ...]'

MODE is ``setup`` (import and generate sources, then stop), ``run``
(``Jrpm().run(source)`` per program, untraced) or ``traced`` (the staged
``Jrpm`` API with a span around each layer call, plus counting wrappers
on the JIT compiles and on ``ir_engine.build_table``).  Prints one JSON
object as its last stdout line; ``setup_at`` is the ``time.monotonic``
stamp of the first timed operation, ``scale`` the pass's
``common.reference_scale``.
"""

import hashlib
import json
import sys
import time

import common


def run_pass(order, sources):
    from repro.core.pipeline import Jrpm

    def execute(name):
        report = Jrpm().run(sources[name], name=name)
        return json.dumps(report.to_dict(), sort_keys=True)

    return _timed_loop(order, execute), None


def traced_pass(order, sources):
    """The staged API, span by span; the report must be byte-identical
    to :func:`run_pass`'s."""
    from repro.core import pipeline
    from repro.engine import ir_engine
    from repro.minijava import compile_source

    spans = common.Spans()
    current = [None]
    table_keys = set()

    def wrap(fn, name):
        def wrapper(*args, **kwargs):
            with spans.span(name, current[0]):
                return fn(*args, **kwargs)
        return wrapper

    build_table = ir_engine.build_table

    def counted_build_table(code, unit_name, extra_leaders=(),
                            stepwise=False):
        table_keys.add((
            hashlib.sha1("\n".join(map(repr, code)).encode()).hexdigest(),
            tuple(sorted(pc for pc in extra_leaders if pc is not None)),
            stepwise))
        with spans.span("engine.build_table", current[0]):
            return build_table(code, unit_name, extra_leaders, stepwise)

    pipeline.compile_program = wrap(pipeline.compile_program, "jit.compile")
    pipeline.compile_annotated = wrap(pipeline.compile_annotated,
                                      "jit.compile")
    ir_engine.build_table = counted_build_table

    def execute(name):
        current[0] = name
        with spans.span("program", name):
            with spans.span("minijava.compile", name):
                program = compile_source(sources[name])
            jrpm = pipeline.Jrpm()
            with spans.span("hydra.baseline", name):
                baseline = jrpm.compile_baseline(program)
            with spans.span("tracer.profile", name):
                profile = jrpm.profile(program)
            with spans.span("tracer.select", name):
                plans = jrpm.select(profile)
            with spans.span("jit.recompile", name):
                recompiled = jrpm.recompile(program, plans)
            with spans.span("tls.run", name):
                tls = jrpm.execute_tls(recompiled, plans,
                                       fallback=baseline.measurement)
            with spans.span("core.report", name):
                report = jrpm.assemble_report(name, baseline, profile,
                                              plans, tls)
                return json.dumps(report.to_dict(), sort_keys=True)

    programs = _timed_loop(order, execute)
    calls = sum(1 for event in spans.events
                if event[0] == "engine.build_table")
    return programs, {"spans": spans.events, "table_calls": calls,
                      "table_distinct": len(table_keys)}


def _timed_loop(order, execute):
    """Time ``execute`` (a pipeline run ending in the report's JSON) per
    program, each after a :func:`common.calibrate` sample; digests and
    summaries are taken outside the timed interval."""
    programs = []
    for name in order:
        calibration = common.calibrate()
        start = time.perf_counter()
        try:
            text = execute(name)
        except Exception as error:       # one failed program, not the pass
            programs.append({"name": name, "error": repr(error),
                             "calibration": calibration})
            continue
        latency = time.perf_counter() - start
        programs.append({
            "name": name, "latency": latency, "calibration": calibration,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "summary": common.summarize(json.loads(text))})
    return programs


def main():
    mode, order = sys.argv[1], json.loads(sys.argv[2])
    common.import_repro()
    import repro.core.pipeline            # noqa: F401  (import is set-up)
    sources = common.workload_sources()
    result = {"setup_at": time.monotonic()}
    if mode == "setup":
        calibrations = [common.calibrate() for _ in range(3)]
    else:
        runner = traced_pass if mode == "traced" else run_pass
        result["programs"], result["trace"] = runner(order, sources)
        result["rss_mb"] = common.peak_rss_mb()
        calibrations = [program["calibration"]
                        for program in result["programs"]]
    result["scale"] = common.reference_scale(calibrations)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
