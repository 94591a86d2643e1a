"""What one ``jrpm suite`` invocation did.

Each run gets one :class:`RunRecord` of its disposition: cache hit or
executed, status, wall time, attempts, worker pid.  Everything counted
— store hits and misses, simulated cycles, TLS outcomes, trace and
profile-DB activity, adaptive epochs, pool retries — is read from the
metrics registry: :class:`SuiteMetrics` takes one
:meth:`~repro.metrics.MetricsRegistry.total` snapshot when the
invocation starts and reports the delta.  Pool workers' deltas fold
into this process's registry (:func:`repro.service.jobs.fold_metrics`),
so the summary is the same at every ``--jobs``.
"""

import time
from dataclasses import asdict, dataclass

from ..metrics import get_registry

#: the registry counts behind the summary: (key, family, labels)
_COUNTS = (
    ("hits", "jrpm_store_lookups", {"outcome": "hit"}),
    ("misses", "jrpm_store_lookups", {"outcome": "miss"}),
    ("cycles", "jrpm_run_simulated_cycles", {"phase": "tls"}),
    ("commits", "jrpm_tls_threads", {"outcome": "committed"}),
    ("violations", "jrpm_tls_threads", {"outcome": "violated"}),
    ("restarts", "jrpm_tls_restarts", {}),
    ("overflows", "jrpm_tls_overflow_stalls", {}),
    ("trace_events", "jrpm_trace_events_recorded", {}),
    ("trace_dropped", "jrpm_trace_events_dropped", {}),
    ("warm", "jrpm_runs", {"provenance": "warm"}),
    ("confirmed", "jrpm_runs", {"provenance": "confirmed"}),
    ("adapt_epochs", "jrpm_adapt_epochs", {}),
    ("adapt_decisions", "jrpm_adapt_decisions", {}),
    ("retries", "jrpm_pool_retries", {}),
)


def _totals():
    registry = get_registry()
    return {key: registry.total(name, **labels)
            for key, name, labels in _COUNTS}


def _plural(count, one, many):
    return "%d %s" % (count, one if count == 1 else many)


@dataclass
class RunRecord:
    """The disposition of one pipeline run (one job spec)."""

    name: str                   # the report name (a registry workload)
    verb: str = "run"           # run | run_adaptive
    status: str = "ok"          # ok | error | crashed | timeout
    cache_hit: bool = False
    wall_time: float = 0.0      # seconds (worker-side for misses)
    attempts: int = 1
    pid: int = None
    error: str = None

    def to_dict(self):
        return asdict(self)


class SuiteMetrics:
    """One suite invocation: its run records and its registry delta."""

    def __init__(self, jobs=1):
        self.jobs = jobs
        self.records = []
        self.started_at = time.perf_counter()
        self._start = _totals()

    def record(self, run_record):
        self.records.append(run_record)
        return run_record

    def counts(self):
        """``{key: registry delta since the invocation began}`` for
        every count the summary prints."""
        now = _totals()
        return {key: now[key] - self._start[key] for key in now}

    @property
    def hits(self):
        return int(self.counts()["hits"])

    @property
    def misses(self):
        return int(self.counts()["misses"])

    @property
    def hit_rate(self):
        counts = self.counts()
        lookups = counts["hits"] + counts["misses"]
        return counts["hits"] / lookups if lookups else 0.0

    @property
    def failures(self):
        return [r for r in self.records if r.status != "ok"]

    @property
    def wall_time(self):
        return time.perf_counter() - self.started_at

    def summary(self):
        """Human-readable summary; every line but ``runner``, ``work``'s
        run time and ``FAILED`` is a registry delta."""
        delta = self.counts()
        counts = {key: int(value) for key, value in delta.items()}
        lookups = counts["hits"] + counts["misses"]
        lines = []
        out = lines.append
        out("runner: %s on %s in %.2fs wall"
            % (_plural(len(self.records), "run", "runs"),
               _plural(self.jobs, "worker", "workers"), self.wall_time))
        out("cache:  %s / %s (%.1f%% hit rate)"
            % (_plural(counts["hits"], "hit", "hits"),
               _plural(counts["misses"], "miss", "misses"),
               100.0 * counts["hits"] / lookups if lookups else 0.0))
        out("work:   %.2fs simulated-run time, %.3g simulated cycles"
            % (sum(r.wall_time for r in self.records),
               delta["cycles"]))
        out("tls:    %d commits, %d violations, %s, %d overflow stalls"
            % (counts["commits"], counts["violations"],
               _plural(counts["restarts"], "restart", "restarts"),
               counts["overflows"]))
        if counts["trace_events"]:
            out("trace:  %s recorded in traced runs, %d dropped"
                % (_plural(counts["trace_events"], "event", "events"),
                   counts["trace_dropped"]))
        if counts["warm"] or counts["confirmed"]:
            out("profdb: %s, %d confirmed consensus"
                % (_plural(counts["warm"], "warm start", "warm starts"),
                   counts["confirmed"]))
        if counts["adapt_epochs"]:
            out("adapt:  %s, %s applied"
                % (_plural(counts["adapt_epochs"], "epoch", "epochs"),
                   _plural(counts["adapt_decisions"], "decision",
                           "decisions")))
        if counts["retries"]:
            out("retry:  %s retried after worker death"
                % _plural(counts["retries"], "run", "runs"))
        for failure in self.failures:
            out("FAILED: %s/%s %s: %s"
                % (failure.name, failure.verb, failure.status,
                   (failure.error or "").splitlines()[0]
                   if failure.error else ""))
        return "\n".join(lines)
