#!/usr/bin/env python
"""Regenerate the golden digests of every pinned ``Jrpm`` surface.

Usage::

    python scripts/regen_report_digests.py

Rewrites ``tests/golden/report_digests.json``: per registry workload at
``size="small"``, one SHA-256 per surface :func:`run_case` computes
from one traced ``Jrpm.run``.  ``reports`` is that report without
``config.engine`` and with ``trace_aggregates`` nulled, which is what
an untraced run reports; ``SURFACES`` and ``FAST_SURFACES`` list the
rest.  Both engines must produce the same digests, so the manifest
states fast == reference, and the script refuses to write one where
they differ.  ``replies`` pins, for ``REPLY_WORKLOAD``, the service
reply of each job verb under default options (:func:`reply_digests`).
``tests/test_golden_reports.py`` checks the manifest through
:func:`run_case`; a deliberate report change regenerates it in the
same commit, so the manifest diff is the review surface.
"""

import hashlib
import json
import os
import sys
import tempfile
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "report_digests.json")
SIZE = "small"
ENGINES = ("fast", "reference")
#: every engine's case: the report, the report with its trace
#: aggregates, the Chrome trace, and :func:`profile_observables`
SURFACES = ("reports", "traced_reports", "chrome_traces", "profiles")
#: the fast engine's case only: the warm run a profile DB seeded from
#: the report serves, the DB's export after it (``updated`` zeroed),
#: and a ``run_adaptive(epochs=3, verify=True)`` report
FAST_SURFACES = ("warm_reports", "shards", "adaptive_reports")
#: the job verbs whose service reply is pinned, for one workload
REPLY_VERBS = ("profile", "run", "run_adaptive")
REPLY_WORKLOAD = "BitOps"


def digest(data):
    """SHA-256 of the canonical JSON of *data*."""
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(payload):
    """:func:`digest` of one report dict (``JrpmReport.to_dict()``)
    without its ``config.engine`` field; *payload* is modified."""
    del payload["config"]["engine"]
    return digest(payload)


def profile_observables(profiler, measurement):
    """Everything a TEST profiling run observed: its
    :class:`~repro.tracer.profiler.TestProfiler` and its
    :class:`~repro.core.pipeline.RunMeasurement`."""
    return {
        "loop_stats": [[loop_id, stats.to_dict()]
                       for loop_id, stats in profiler.stats.items()],
        "dynamic_nesting": sorted(profiler.dynamic_nesting),
        "max_dynamic_depth": profiler.max_dynamic_depth,
        "events": profiler.events,
        "bank_steals": profiler.bank_steals,
        "missed_allocations": profiler.missed_allocations,
        "cycles": measurement.cycles,
        "instructions": measurement.instructions,
    }


def run_case(name, engine):
    """Run workload *name* once, traced, under *engine*; returns a
    namespace holding ``program``, the traced ``report`` and
    ``surfaces`` (surface → digest).  The fast engine's case adds the
    ``provenance`` its report was recorded with, the ``warm`` and the
    ``adaptive`` report."""
    from repro.core.pipeline import Jrpm
    from repro.hydra.config import HydraConfig
    from repro.minijava import compile_source
    from repro.trace import TraceOptions, chrome_trace
    from repro.workloads import lookup
    source = lookup(name).source(SIZE)
    jrpm = Jrpm(config=HydraConfig(engine=engine), trace=TraceOptions())
    program = compile_source(source)
    report = jrpm.run(program, name=name)
    untraced = report.to_dict()
    untraced["trace_aggregates"] = None
    case = SimpleNamespace(program=program, report=report, surfaces={
        "reports": payload_digest(untraced),
        "traced_reports": payload_digest(report.to_dict()),
        "chrome_traces": digest(chrome_trace(report.trace, name=name)),
        "profiles": digest(profile_observables(report.profiler,
                                                report.profiling)),
    })
    if engine == "fast":
        from repro.profdb import ProfileDb
        with tempfile.TemporaryDirectory() as tmp:
            db = ProfileDb(os.path.join(tmp, "profdb"))
            # the record Jrpm.run's cold path makes with a DB attached
            case.provenance = db.record(program, report, (), jrpm.config,
                                        jrpm.stl_options, jrpm.vm_options)
            case.warm = Jrpm(config=HydraConfig(engine=engine),
                             profdb=db).run(compile_source(source),
                                            name=name)
            shards = db.export()
        for entry in shards["programs"].values():
            entry["updated"] = 0.0
            for input_entry in entry["inputs"].values():
                input_entry["updated"] = 0.0
        case.adaptive = Jrpm(config=HydraConfig(engine=engine)) \
            .run_adaptive(compile_source(source), name=name, epochs=3,
                          verify=True)
        case.surfaces.update(
            warm_reports=payload_digest(case.warm.to_dict()),
            shards=digest(shards),
            adaptive_reports=payload_digest(case.adaptive.to_dict()))
    return case


def reply_digest(result):
    """SHA-256 of a job result's reply text
    (:func:`~repro.service.protocol.encode_result`) without its
    ``wall_time``, the one field a rerun changes."""
    from repro.service.protocol import encode_result
    stable = {key: value for key, value in result.items()
              if key != "wall_time"}
    return hashlib.sha256(encode_result(stable).encode()).hexdigest()


def reply_digests():
    """verb -> :func:`reply_digest` of the final result (metrics folded
    out, as the artifact store keeps it) each of ``REPLY_VERBS``
    answers for ``REPLY_WORKLOAD`` under default options."""
    from repro.service.jobs import execute_job, fold_metrics, job_spec
    from repro.service.options import RunOptions
    replies = {}
    for verb in REPLY_VERBS:
        result = execute_job(job_spec(verb, RunOptions(),
                                      workload=REPLY_WORKLOAD, size=SIZE))
        fold_metrics(result, merge=False)
        replies[verb] = reply_digest(result)
    return replies


def load_manifest():
    with open(MANIFEST) as handle:
        return json.load(handle)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.workloads import names
    manifest = {surface: {} for surface in SURFACES + FAST_SURFACES}
    for name in sorted(names()):
        fast, reference = (run_case(name, engine).surfaces
                           for engine in ENGINES)
        for surface in SURFACES:
            if fast[surface] != reference[surface]:
                sys.exit("%s: fast and reference %s differ"
                         % (name, surface))
        for surface, value in fast.items():
            manifest[surface][name] = value
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as handle:
        json.dump(dict(manifest, size=SIZE, replies=reply_digests()),
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote the digests of %d workloads to %s"
          % (len(manifest["reports"]), MANIFEST))


if __name__ == "__main__":
    main()
