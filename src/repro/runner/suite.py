"""Parallel suite runner: fan pipeline runs across processes + cache.

The paper's evaluation is 26 full five-step pipeline runs (plus
ablation variants); they are embarrassingly parallel and perfectly
memoizable.  :class:`SuiteRunner` owns both levers:

* a :class:`~repro.runner.pool.ProcessPool` spreads cache misses over
  ``jobs`` worker processes with per-run timeout, crash isolation and
  retry-once-on-worker-death;
* a :class:`~repro.runner.cache.ReportCache` serves warm re-runs from
  ``benchmarks/.cache/`` keyed by ``(source, args, config fingerprint,
  code version)``.

Reports travel between processes and to disk via the lossless
``JrpmReport.to_dict()/from_dict()`` round-trip, so a cached or
worker-produced report is indistinguishable from an in-process one.
Results are returned in request order — completion order never leaks
into output, which keeps ``--jobs N`` byte-identical to ``--jobs 1``.
"""

import os
import time
from dataclasses import dataclass, field

from ..core.pipeline import Jrpm, JrpmReport, VmOptions
from ..hydra.config import HydraConfig
from ..jit.stl import StlOptions
from ..minijava import compile_source
from .cache import NullCache, ReportCache, cache_key, code_fingerprint
from .metrics import RunRecord, SuiteMetrics
from .pool import ProcessPool


class SuiteRunError(RuntimeError):
    """One or more pipeline runs failed; ``failures`` holds the
    per-run (request, outcome-status, error-text) details."""

    def __init__(self, failures):
        self.failures = failures
        lines = ["%d pipeline run(s) failed:" % len(failures)]
        for request, status, error in failures:
            first = (error or "").strip().splitlines()
            lines.append("  %s [%s]: %s"
                         % (request.label, status,
                            first[-1] if first else "no diagnostic"))
        super().__init__("\n".join(lines))


@dataclass
class RunRequest:
    """One pipeline run: a workload variant plus its configuration."""

    workload: str
    variant: str = "base"             # "base" | "manual"
    size: str = "default"
    args: tuple = ()
    config: HydraConfig = None
    stl_options: StlOptions = None
    vm_options: VmOptions = None
    name: str = None                  # report name (defaults: workload)
    source: str = None                # explicit source (skips registry)
    verify: bool = True               # assert sequential == TLS output
    tag: str = "default"              # ablation label for metrics/keys
    #: run with the repro.trace event collector attached; the report's
    #: trace aggregates flow into the JSONL metrics (and the cache key
    #: diverges from the untraced run so reports never mix)
    trace: bool = False
    #: run under the adaptive recompilation controller (repro.adapt)
    #: instead of the one-shot pipeline; the adaptation log rides the
    #: cached report, and the cache key diverges from one-shot runs
    adapt: bool = False
    adapt_epochs: int = 4
    adapt_policy: str = "threshold"
    #: run the static dependence analyzer first (repro.analysis):
    #: statically-hopeless STL candidates are pruned before profiling
    #: and the report carries an AnalysisReport; the cache key diverges
    #: from unanalyzed runs because the candidate set may differ
    analysis: bool = False
    #: persistent profile DB path (repro.profdb): when set, cold runs
    #: record their profiles and confident consensus entries warm-start
    #: later runs.  DB-backed requests bypass the report cache — their
    #: result depends on mutable cross-run state.
    profile_db: str = None
    warm_start: str = "auto"
    #: test hook — path of a marker file; the first worker to execute
    #: this request creates the marker and dies (exercises retry logic)
    crash_marker: str = None

    def __post_init__(self):
        self.args = tuple(self.args)
        if self.config is None:
            self.config = HydraConfig()
        if self.stl_options is None:
            self.stl_options = StlOptions()
        if self.vm_options is None:
            self.vm_options = VmOptions()
        if self.name is None:
            self.name = self.workload

    @classmethod
    def from_options(cls, workload, options, size="default",
                     variant="base", name=None, source=None,
                     tag="default"):
        """Build a request from one :class:`repro.service.RunOptions`
        — the canonical spelling; the per-field constructor remains for
        cache-key-compatible callers."""
        return cls(workload=workload, variant=variant, size=size,
                   args=options.args, config=options.hydra_config(),
                   stl_options=options.stl_options(),
                   vm_options=options.vm_options(), name=name,
                   source=source, verify=options.verify,
                   tag=tag, trace=options.trace, adapt=options.adapt,
                   adapt_epochs=options.epochs,
                   adapt_policy=options.policy,
                   analysis=options.analysis,
                   profile_db=options.profile_db,
                   warm_start=options.warm_start)

    @property
    def label(self):
        return "%s/%s/%s/%s" % (self.workload, self.variant, self.size,
                                self.tag)

    def resolve_source(self):
        """The MiniJava source text for this request (registry lookup
        unless an explicit ``source`` was supplied)."""
        if self.source is None:
            from ..workloads import lookup
            workload = lookup(self.workload)
            if self.variant == "manual":
                self.source = workload.manual_source(self.size)
                if self.source is None:
                    raise ValueError("%s has no manual variant"
                                     % workload.name)
            else:
                self.source = workload.source(self.size)
        return self.source

    def cache_key(self, salt=None):
        extra = {}
        if self.trace:
            extra["trace"] = True
        if self.adapt:
            extra["adapt"] = True
            extra["adapt_epochs"] = self.adapt_epochs
            extra["adapt_policy"] = self.adapt_policy
        if self.analysis:
            extra["analysis"] = True
        return cache_key(self.resolve_source(), self.args, self.config,
                         self.stl_options, self.vm_options, salt=salt,
                         extra=extra or None)


def execute_request(request):
    """Run the full pipeline for one request (worker entry point).

    Returns ``{"report": <report dict>, "wall_time": seconds}``; raises
    on verification failure so the pool reports status ``error``.
    """
    if request.crash_marker is not None:
        if not os.path.exists(request.crash_marker):
            with open(request.crash_marker, "w") as fh:
                fh.write(str(os.getpid()))
            os._exit(17)     # simulate a worker death mid-run
    start = time.perf_counter()
    source = request.resolve_source()
    jrpm = Jrpm(config=request.config, stl_options=request.stl_options,
                vm_options=request.vm_options, trace=request.trace,
                analysis=request.analysis, profdb=request.profile_db,
                warm_start=request.warm_start)
    if request.adapt:
        report = jrpm.run_adaptive(
            compile_source(source), name=request.name,
            args=request.args, policy=request.adapt_policy,
            epochs=request.adapt_epochs)
    else:
        report = jrpm.run(compile_source(source), name=request.name,
                          args=request.args)
    if request.verify and not report.outputs_match():
        raise AssertionError(
            "%s: speculative output diverged from sequential"
            % request.label)
    return {"report": report.to_dict(),
            "wall_time": time.perf_counter() - start}


def default_cache_dir():
    """``$JRPM_CACHE_DIR`` or ``benchmarks/.cache`` next to the package
    (falls back to ``./benchmarks/.cache`` outside a checkout)."""
    env = os.environ.get("JRPM_CACHE_DIR")
    if env:
        return env
    package_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))              # .../src/repro
    repo_root = os.path.dirname(os.path.dirname(package_dir))
    candidate = os.path.join(repo_root, "benchmarks")
    if os.path.isdir(candidate):
        return os.path.join(candidate, ".cache")
    return os.path.join(os.getcwd(), "benchmarks", ".cache")


class SuiteRunner:
    """Executes batches of :class:`RunRequest` with caching + workers."""

    def __init__(self, jobs=1, cache_dir=None, use_cache=True,
                 timeout=600.0, metrics=None, start_method=None):
        self.jobs = max(1, int(jobs))
        if not use_cache:
            self.cache = NullCache()
        else:
            self.cache = ReportCache(cache_dir or default_cache_dir())
        self.timeout = timeout
        self.metrics = metrics if metrics is not None else SuiteMetrics()
        self.metrics.jobs = self.jobs
        self.start_method = start_method
        self._salt = None

    # -- cache plumbing --------------------------------------------------------
    def _key_of(self, request):
        if self._salt is None:
            self._salt = code_fingerprint()
        return request.cache_key(salt=self._salt)

    def _record(self, request, **kwargs):
        base = {"workload": request.workload, "variant": request.variant,
                "size": request.size, "tag": request.tag}
        base.update(kwargs)
        return base

    # -- execution -------------------------------------------------------------
    def run(self, requests, progress=None):
        """Run every request (cache first, then pool); returns reports
        in request order.  Raises :class:`SuiteRunError` after *all*
        outcomes settle if any run failed."""
        requests = list(requests)
        reports = [None] * len(requests)
        failures = []

        def emit(message):
            if progress is not None:
                progress(message)

        # 1. serve warm entries from the persistent cache
        misses = []
        for index, request in enumerate(requests):
            # profile-DB-backed requests always execute: their result
            # depends on the DB's mutable cross-run state (and the warm
            # path itself is the thing being exercised)
            payload = None if request.profile_db \
                else self.cache.get(self._key_of(request))
            if payload is not None:
                report = JrpmReport.from_dict(payload["report"])
                reports[index] = report
                self.metrics.record(RunRecord.from_report(
                    report, status="ok", cache_hit=True,
                    wall_time=0.0,
                    **self._record(request)))
                emit("cached  %s" % request.label)
            else:
                misses.append(index)

        # 2. simulate the misses (workers, or inline at --jobs 1)
        if misses:
            outcomes = self._execute(
                [(index, requests[index]) for index in misses], emit)
            for index in misses:
                request = requests[index]
                outcome = outcomes[index]
                if outcome.ok:
                    report_dict = outcome.value["report"]
                    if not request.profile_db:
                        self.cache.put(self._key_of(request), {
                            "workload": request.workload,
                            "variant": request.variant,
                            "size": request.size,
                            "tag": request.tag,
                            "wall_time": outcome.value["wall_time"],
                            "report": report_dict,
                        })
                    report = JrpmReport.from_dict(report_dict)
                    reports[index] = report
                    self.metrics.record(RunRecord.from_report(
                        report, status="ok", cache_hit=False,
                        wall_time=outcome.wall_time,
                        attempts=outcome.attempts, pid=outcome.pid,
                        **self._record(request)))
                else:
                    failures.append((request, outcome.status,
                                     outcome.error))
                    self.metrics.record(RunRecord(
                        status=outcome.status, cache_hit=False,
                        wall_time=outcome.wall_time,
                        attempts=outcome.attempts, pid=outcome.pid,
                        error=outcome.error,
                        **self._record(request)))

        if failures:
            raise SuiteRunError(failures)
        return reports

    def _execute(self, indexed_requests, emit):
        for _, request in indexed_requests:
            request.resolve_source()     # registry work stays in-parent
        if self.jobs == 1:
            outcomes = {}
            for index, request in indexed_requests:
                outcomes[index] = self._run_inline(index, request)
                emit("ran     %s" % request.label)
            return outcomes
        by_index = dict(indexed_requests)
        with ProcessPool(execute_request,
                         jobs=min(self.jobs, len(indexed_requests)),
                         timeout=self.timeout,
                         start_method=self.start_method) as pool:
            return pool.map(
                indexed_requests,
                on_outcome=lambda outcome: emit(
                    "ran     %s" % by_index[outcome.task_id].label))

    @staticmethod
    def _run_inline(index, request):
        from .pool import TaskOutcome
        start = time.perf_counter()
        try:
            value = execute_request(request)
        except BaseException as exc:
            import traceback
            return TaskOutcome(
                task_id=index, status="error",
                error="%s: %s\n%s" % (type(exc).__name__, exc,
                                      traceback.format_exc()),
                wall_time=time.perf_counter() - start, pid=os.getpid())
        return TaskOutcome(task_id=index, status="ok", value=value,
                           wall_time=time.perf_counter() - start,
                           pid=os.getpid())

    # -- conveniences ------------------------------------------------------------
    def run_suite(self, size="default", workloads=None, config=None,
                  stl_options=None, vm_options=None, progress=None,
                  options=None):
        """Run the (sub)suite; returns ``{workload name: JrpmReport}``
        in registry order.

        ``options`` (a :class:`repro.service.RunOptions`, default
        ``RunOptions()``) shapes the runs.  Explicit
        ``config``/``stl_options``/``vm_options`` objects win over the
        ``options`` projections.
        """
        from ..service.options import RunOptions
        from ..workloads import all_workloads
        options = options or RunOptions()
        selected = workloads or [w.name for w in all_workloads()]
        requests = []
        for name in selected:
            request = RunRequest.from_options(name, options, size=size)
            if config is not None:
                request.config = config
            if stl_options is not None:
                request.stl_options = stl_options
            if vm_options is not None:
                request.vm_options = vm_options
            requests.append(request)
        reports = self.run(requests, progress=progress)
        return {request.workload: report
                for request, report in zip(requests, reports)}
