"""Parallel suite runner: ``jrpm suite`` as a client of the job path.

The paper's evaluation is 26 full five-step pipeline runs (plus
ablation variants); they are embarrassingly parallel and perfectly
memoizable.  :class:`SuiteRunner` runs them as
:class:`~repro.service.jobs.JobSpec`\\ s, exactly the way the daemon
does:

* an :class:`~repro.service.store.ArtifactStore` whose disk tier is the
  :class:`~repro.runner.cache.ReportCache` under ``benchmarks/.cache/``
  serves warm runs, keyed by
  :func:`~repro.service.jobs.job_fingerprint` — so a suite entry and a
  daemon entry for the same run are the same file;
* misses go through :class:`~repro.service.jobs.CachedExecutor`: inline
  at ``jobs=1``, else mapped on a
  :class:`~repro.runner.pool.ProcessPool` with a per-run timeout, crash
  isolation and retry-once-on-worker-death.

Reports travel between processes and to disk via the lossless
``JrpmReport.to_dict()/from_dict()`` round-trip, so a cached or
worker-produced report is indistinguishable from an in-process one.
Results are returned in request order — completion order never leaks
into output, which keeps ``--jobs N`` byte-identical to ``--jobs 1``.
"""

from ..core.pipeline import JrpmReport
from .cache import ReportCache, default_cache_dir
from .metrics import RunRecord, SuiteMetrics
from .pool import ProcessPool, run_task


class SuiteRunError(RuntimeError):
    """One or more pipeline runs failed; ``failures`` holds the
    per-run (job spec, outcome-status, error-text) details."""

    def __init__(self, failures):
        self.failures = failures
        lines = ["%d pipeline run(s) failed:" % len(failures)]
        for spec, status, error in failures:
            first = (error or "").strip().splitlines()
            lines.append("  %s/%s [%s]: %s"
                         % (spec.name, spec.verb, status,
                            first[-1] if first else "no diagnostic"))
        super().__init__("\n".join(lines))


class SuiteRunner:
    """Executes batches of job specs with caching + workers."""

    def __init__(self, jobs=1, cache_dir=None, use_cache=True,
                 timeout=600.0, start_method=None):
        # the service imports this package's cache and pool, so its
        # modules load here, not at import time
        from ..service.jobs import CachedExecutor
        from ..service.store import ArtifactStore
        self.jobs = max(1, int(jobs))
        self.store = ArtifactStore(disk_cache=(
            ReportCache(cache_dir or default_cache_dir())
            if use_cache else None))
        self.timeout = timeout
        self.metrics = SuiteMetrics(jobs=self.jobs)
        self.start_method = start_method
        self._executor = CachedExecutor()

    # -- execution -------------------------------------------------------------
    def run(self, specs, progress=None):
        """Run every spec (store first, then executor); returns reports
        in request order.  Raises :class:`SuiteRunError` after *all*
        outcomes settle if any run failed."""
        specs = list(specs)
        reports = [None] * len(specs)
        failures = []

        def emit(message):
            if progress is not None:
                progress(message)

        # 1. serve warm entries from the store (profile-DB-backed specs
        #    always miss: they depend on the DB's mutable state)
        misses = []
        for index, spec in enumerate(specs):
            cached = self.store.get(spec)
            if cached is None:
                misses.append(index)
                continue
            reports[index] = JrpmReport.from_dict(cached["report"])
            self.metrics.record(RunRecord(name=spec.name, verb=spec.verb,
                                          cache_hit=True))
            emit("cached  %s" % spec.name)

        # 2. simulate the misses (workers, or inline at --jobs 1)
        outcomes = self._execute(misses, specs, emit) if misses else {}
        for index in misses:
            spec, outcome = specs[index], outcomes[index]
            self.metrics.record(RunRecord(
                name=spec.name, verb=spec.verb, status=outcome.status,
                wall_time=outcome.wall_time, attempts=outcome.attempts,
                pid=outcome.pid, error=outcome.error))
            if outcome.ok:
                self.store.put(spec, outcome.value)
                reports[index] = JrpmReport.from_dict(
                    outcome.value["report"])
            else:
                failures.append((spec, outcome.status, outcome.error))

        if failures:
            raise SuiteRunError(failures)
        return reports

    def _execute(self, misses, specs, emit):
        """``{index: TaskOutcome}`` for the missed specs, each run
        under ``spec.options.timeout or self.timeout`` at every
        ``jobs``.  A worker's metric delta folds into this process's
        registry, so suite metrics are the same at every ``jobs``; an
        inline job folds its own."""
        from ..service.jobs import fold_metrics
        if self.jobs == 1:
            outcomes = {}
            for index in misses:
                outcomes[index] = run_task(
                    self._executor, index, specs[index],
                    timeout=specs[index].options.timeout or self.timeout)
                emit("ran     %s" % specs[index].name)
        else:
            with ProcessPool(self._executor,
                             jobs=min(self.jobs, len(misses)),
                             timeout=self.timeout,
                             start_method=self.start_method) as pool:
                outcomes = pool.map(
                    [(index, specs[index],
                      specs[index].options.timeout or self.timeout)
                     for index in misses],
                    on_outcome=lambda outcome: emit(
                        "ran     %s" % specs[outcome.task_id].name))
        for outcome in outcomes.values():
            if outcome.ok:
                fold_metrics(outcome.value, merge=self.jobs > 1)
        return outcomes

    # -- conveniences ------------------------------------------------------------
    def run_suite(self, size="default", workloads=None, options=None,
                  progress=None):
        """Run the (sub)suite; returns ``{workload name: JrpmReport}``
        in request order (registry order by default).

        ``options`` (a :class:`repro.service.RunOptions`, default
        ``RunOptions()``) shapes every run; ``options.adapt`` selects
        the ``run_adaptive`` verb.  An unknown workload raises
        :class:`ValueError` before anything runs.
        """
        from ..service.jobs import JobSpec, resolve_workload
        from ..service.options import RunOptions
        from ..workloads import all_workloads
        options = options or RunOptions()
        verb = "run_adaptive" if options.adapt else "run"
        specs = []
        for workload in workloads or [w.name for w in all_workloads()]:
            source, name = resolve_workload(workload, size)
            specs.append(JobSpec(verb=verb, source=source, name=name,
                                 options=options))
        reports = self.run(specs, progress=progress)
        return {spec.name: report for spec, report in zip(specs, reports)}
