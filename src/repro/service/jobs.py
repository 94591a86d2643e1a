"""Self-contained service jobs (the worker-process entry point).

A :class:`JobSpec` is one of the three job verbs (``profile``, ``run``,
``run_adaptive``) applied to one MiniJava source under one
:class:`~repro.service.options.RunOptions` — nothing else.  Every verb
recomputes its own prerequisites from the source, so a spec is fully
picklable, shippable to a crash-isolated worker, and memoizable by
fingerprint: the artifact store keys results on :func:`job_fingerprint`
and never re-executes an identical spec.  The daemon, ``Session`` and
``jrpm suite`` all run jobs this way, and :func:`resolve_workload` is
the one registry lookup behind their ``workload=`` references.  The
control answers both sessions give (``version``, ``metrics``,
``profdb``) live here too, one function each; a control payload is
passed to its function as keyword arguments, so an unknown key is a
``TypeError`` on both sides.

``execute_job`` and :class:`CachedExecutor` must stay module-level
(picklable under ``spawn``).

Pool workers outlive a batch, so each keeps a :class:`CompileCache`:
a repeated request skips the parse, the annotated compile and the
recompile (with the predecode tables hanging off the compiled code),
and runs only what a request must — profile DB reads and writes,
selection, the simulated runs and report assembly.
"""

import functools
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields

from ..log import get_logger
from ..metrics import (MetricsRegistry, get_registry, observe_report_dict,
                       render)
from ..metrics.registry import swap_registry
from ..profdb import PROFDB_SCHEMA_VERSION
from ..runner.cache import cache_key, options_fingerprint
from ..serialize import REPORT_SCHEMA_VERSION
from .options import RunOptions
from .protocol import PROTOCOL_VERSION

_log = get_logger("service.jobs")

#: compile-cache capacity, in artifacts: each program held whole costs
#: three (parsed program, annotated compile, recompiled program), so
#: this covers the 26-program workload registry with room to spare
COMPILE_CACHE_ENTRIES = 96


@dataclass
class JobSpec:
    """One unit of service work."""

    verb: str                          # one of VERBS
    source: str
    name: str = "program"
    options: RunOptions = field(default_factory=RunOptions)
    #: daemon request correlation: the protocol frame id of the request
    #: that caused this execution.  Deliberately *not* fingerprint
    #: material — identical jobs coalesce across requests, and a reused
    #: result carries the id of the request that actually executed.
    request_id: str = None


#: the three job verbs: each runs the chain from the source to its answer
VERBS = ("profile", "run", "run_adaptive")

#: RunOptions fields that are not fingerprint material: ``timeout`` and
#: ``verify`` shape *how* a job runs, not what it computes; ``args`` is
#: first-class key material; the profile DB is mutable cross-run state
#: (the store bypasses jobs that attach one), so it must not fork the
#: keyspace either.  ``adapt`` only picks a caller's verb (``jrpm
#: suite``, ``jrpm run``), and the verb is key material itself.
_UNKEYED_OPTIONS = ("timeout", "verify", "args", "profile_db",
                    "warm_start", "adapt")

#: the adaptive controller's knob: key material under ``run_adaptive``
#: only, inert for every other verb
_ADAPT_OPTIONS = ("epochs",)

#: the keyed :class:`RunOptions` fields under ``run_adaptive`` and under
#: every other verb
_KEYED_ADAPTIVE = tuple(f.name for f in fields(RunOptions)
                        if f.name not in _UNKEYED_OPTIONS)
_KEYED_PLAIN = tuple(name for name in _KEYED_ADAPTIVE
                     if name not in _ADAPT_OPTIONS)

#: distinct keyed option values whose key material stays memoized
OPTIONS_KEY_ENTRIES = 256


def resolve_workload(workload, size="default", variant="base"):
    """``(source text, registry name)`` of one registry workload
    variant (``"base"`` or ``"manual"``).

    Raises :class:`ValueError` for an unknown workload, size or a
    missing manual variant, so every surface can answer with a one-line
    diagnostic."""
    from ..workloads import lookup
    try:
        entry = lookup(workload)
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    if variant == "manual":
        source = entry.manual_source(size)
        if source is None:
            raise ValueError("%s has no manual variant" % entry.name)
    else:
        source = entry.source(size)
    return source, entry.name


def job_spec(verb, options, source=None, workload=None, size="default",
             variant="base", name=None, request_id=None):
    """The :class:`JobSpec` of one request (the daemon's and the local
    session's): *source* inline, or a registry *workload* variant
    (:func:`resolve_workload`), whose name the report takes unless
    *name* is given."""
    if source is None:
        if workload is None:
            raise ValueError("need either 'source' (MiniJava text) or "
                             "'workload' (registry name)")
        source, registry_name = resolve_workload(workload, size, variant)
        name = name or registry_name
    return JobSpec(verb=verb, source=source, name=name or "program",
                   options=options, request_id=request_id)


def job_fingerprint(spec, salt=None):
    """The one content-addressed key of a job — the daemon's, the
    session's and ``jrpm suite``'s, so the same run is the same store
    entry and the same report-cache file on every surface.

    Key material: the verb, the report name (the report embeds it), the
    source, the args, the option projections and code version (via
    :func:`~repro.runner.cache.cache_key`) and every result-affecting
    :class:`RunOptions` field.  The options-dependent part is computed
    once per distinct keyed value (:func:`_options_key`); only the
    source's hash and the final hash are per call."""
    options = spec.options
    names = (_KEYED_ADAPTIVE if spec.verb == "run_adaptive"
             else _KEYED_PLAIN)
    values = [getattr(options, name) for name in names]
    try:
        options_json, material = _options_key(names, *values)
    except TypeError:                  # an unhashable value: no memo
        options_json, material = _options_key.__wrapped__(names, *values)
    return cache_key(spec.source, options.args, options_json, salt=salt,
                     extra={"verb": spec.verb, "name": spec.name,
                            "options": material})


@functools.lru_cache(maxsize=OPTIONS_KEY_ENTRIES, typed=True)
def _options_key(names, *values):
    """``(options_fingerprint JSON, keyed field dict)`` of the keyed
    field *values* named by *names*.  ``hydra_config()``,
    ``stl_options()`` and ``vm_options()`` read keyed fields only, so
    both parts are pure functions of the arguments; ``typed`` keeps
    ``cpus=1`` and ``cpus=True`` (equal hashes, different JSON) apart.
    The returned dict is shared by every hit and must not be
    mutated."""
    material = dict(zip(names, values))
    options = RunOptions(**material)
    return (options_fingerprint(options.hydra_config(),
                                options.stl_options(),
                                options.vm_options()),
            material)


class CompileCache:
    """Bounded LRU of compile artifacts, kept by one pool worker across
    requests and handed to :class:`~repro.core.pipeline.Jrpm` as its
    ``compile_cache``.

    Keys are content (see ``Jrpm._compiled``): ``("program", source)``
    -> the parsed Program; ``("annotated", program, config)`` -> the
    annotated compile; ``("recompiled", program, config, stl
    options, vm options, plans)`` -> the recompiled program, which
    carries its STL thread-code units and every predecode table built
    on it.  A program key is the Program object the same cache parsed
    from its source, so all three kinds are content-addressed.

    Only compiled code is cached: a run reads it and adds nothing but
    the predecode tables it builds lazily.  Never cached: profile DB
    state, selection, simulated runs, reports.
    """

    def __init__(self):
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def get(self, key, build):
        """The artifact under *key*, built by ``build()`` on a miss
        (evicting the least recently used past capacity)."""
        entries = self._entries
        if key in entries:
            outcome = "hit"
            entries.move_to_end(key)
        else:
            outcome = "miss"
            entries[key] = build()
            if len(entries) > COMPILE_CACHE_ENTRIES:
                entries.popitem(last=False)
        get_registry().counter(
            "jrpm_compile_cache_lookups",
            "Worker compile-cache lookups by artifact kind and outcome",
            labels=("kind", "outcome")).labels(
                kind=key[0], outcome=outcome).inc()
        return entries[key]


class CachedExecutor:
    """:func:`execute_job` with a :class:`CompileCache` — the callable
    the daemon's pool runs.  Every worker gets its own copy (``fork``
    copies it, ``spawn`` unpickles it), so each fills its own cache and
    the daemon's copy stays empty."""

    def __init__(self):
        self.compile_cache = CompileCache()

    def __call__(self, spec):
        return execute_job(spec, compile_cache=self.compile_cache)


def execute_job(spec, compile_cache=None):
    """Run one verb end to end; returns a JSON-safe result dict.

    Raises on bad verbs and on output-verification failure so the pool
    reports status ``error`` with the traceback.

    Metric capture: the job runs against a fresh scoped registry so the
    counters it produces (TLS folds, profdb activity) can be shipped
    back to the daemon as ``result["metrics"]`` without inheriting the
    parent's fork-time values.  The delta is also merged into this
    process's own registry, so in-process callers
    (:class:`~repro.service.client.LocalSession`) account exactly once.
    """
    if spec.verb not in VERBS:
        raise ValueError("unknown verb %r (expected one of %s)"
                         % (spec.verb, ", ".join(VERBS)))
    scoped = MetricsRegistry()
    previous = swap_registry(scoped)
    try:
        start = time.perf_counter()
        jrpm = spec.options.make_jrpm(compile_cache)
        result = _VERB_TABLE[spec.verb](
            spec, jrpm, jrpm._program_of(spec.source))
        result["wall_time"] = time.perf_counter() - start
        if isinstance(result.get("report"), dict):
            observe_report_dict(result["report"],
                                wall_seconds=result["wall_time"],
                                registry=scoped)
    finally:
        swap_registry(previous)
        previous.merge(scoped.to_dict())
    result["metrics"] = scoped.to_dict()
    return result


def fold_metrics(result, merge=True):
    """Pop a job result's metric delta (:func:`execute_job`), making the
    result final before it is stored or replied, and merge the delta
    into this process's registry unless *merge* is false (the job ran
    in this process and already folded its own).  Called once per
    execution, so a replayed result never counts twice."""
    delta = result.pop("metrics", None)
    if delta and merge:
        try:
            get_registry().merge(delta)
        except ValueError as error:     # schema drift across builds
            _log.warning("dropping worker metrics: %s", error)


# -- control answers: the daemon's and LocalSession's one copy -------------

def version_answer():
    """The ``version`` answer: package, protocol and schema versions."""
    from .. import package_version
    return {"version": package_version(), "protocol": PROTOCOL_VERSION,
            "report_schema": REPORT_SCHEMA_VERSION,
            "profdb_schema": PROFDB_SCHEMA_VERSION}


def metrics_answer(format="json"):
    """The ``metrics`` answer: this process's registry as its lossless
    ``to_dict`` payload (``json``) or as OpenMetrics text
    (``openmetrics``); any other format is a :class:`ValueError`."""
    registry = get_registry()
    if format == "openmetrics":
        return {"openmetrics": render(registry)}
    if format == "json":
        return {"metrics": registry.to_dict()}
    raise ValueError("unknown metrics format %r (json, openmetrics)"
                     % (format,))


def profdb_answer(db, op="stats", max_programs=None, max_inputs=None):
    """The ``profdb`` answer: ``stats``, ``export`` or ``gc`` (evict
    beyond the size caps, optionally tightened) on the
    :class:`~repro.profdb.ProfileDb` *db*; any other op, or a cap that
    is not a non-negative int, is a :class:`ValueError`."""
    for cap in (max_programs, max_inputs):
        if cap is not None and (isinstance(cap, bool)
                                or not isinstance(cap, int) or cap < 0):
            raise ValueError("profdb caps are non-negative integers, "
                             "not %r" % (cap,))
    if op == "stats":
        return {"profdb": db.stats_dict()}
    if op == "export":
        return {"profdb": db.export()}
    if op == "gc":
        evicted = db.gc(max_programs=max_programs, max_inputs=max_inputs)
        return {"evicted": evicted, "profdb": db.stats_dict()}
    raise ValueError("unknown profdb op %r (stats, export, gc)" % (op,))


# -- per-verb implementations ------------------------------------------------

def _do_profile(spec, jrpm, program):
    """TEST profile with the selector's verdict on every loop."""
    profile = jrpm.profile(program, spec.options.args)
    selector = jrpm.make_selector(profile.loop_table)
    plans = selector.select(profile.stats,
                            profile.profiler.dynamic_nesting)
    loops = {}
    for loop_id in sorted(profile.stats):
        stats = profile.stats[loop_id]
        meta = profile.loop_table[loop_id]
        prediction = selector.predict(stats)
        if loop_id in plans:
            verdict = "SELECTED"
            if plans[loop_id].sync:
                verdict += " +sync"
            if plans[loop_id].multilevel_inner:
                verdict += " (multilevel)"
        elif not meta.candidate:
            verdict = "not a candidate: %s" % meta.reject_reason
        else:
            verdict = "rejected"
        loops[str(loop_id)] = {
            "line": meta.line,
            "threads": stats.threads,
            "avg_thread_cycles": stats.avg_thread_cycles,
            "arc_frequency": stats.arc_frequency,
            "predicted_speedup": prediction.speedup,
            "verdict": verdict,
        }
    return {"annotations": profile.annotations,
            "measurement": profile.measurement.to_dict(),
            "loops": loops,
            "selected": sorted(plans)}


def _finish_run(spec, report):
    if spec.options.verify and not report.outputs_match():
        raise AssertionError(
            "%s: speculative output diverged from sequential"
            % spec.name)
    result = {"report": report.to_dict()}
    if report.trace is not None and spec.request_id is not None:
        # The live collector never crosses the wire; export it here so
        # a daemon-served traced run hands the client a Perfetto-ready
        # document with the request span already stitched in.
        from ..trace.export import chrome_trace
        result["chrome_trace"] = chrome_trace(report.trace,
                                              name=spec.name)
    return result


def _stamp_request(jrpm, spec):
    """Correlate the run's trace (if any) with the daemon request."""
    if jrpm.trace is not None and spec.request_id is not None:
        jrpm.trace.request_id = spec.request_id


def _do_run(spec, jrpm, program):
    _stamp_request(jrpm, spec)
    report = jrpm.run(program, name=spec.name, args=spec.options.args)
    return _finish_run(spec, report)


def _do_run_adaptive(spec, jrpm, program):
    _stamp_request(jrpm, spec)
    report = jrpm.run_adaptive(program, name=spec.name,
                               args=spec.options.args,
                               epochs=spec.options.epochs)
    return _finish_run(spec, report)


_VERB_TABLE = {
    "profile": _do_profile,
    "run": _do_run,
    "run_adaptive": _do_run_adaptive,
}
