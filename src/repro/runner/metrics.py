"""Structured metrics for suite runs.

Every pipeline run — cached or simulated — produces one
:class:`RunRecord` with its wall time, simulated cycles, speculation
counters and cache disposition.  :class:`SuiteMetrics` aggregates the
records, appends them to a JSONL trace (one JSON object per line, easy
to load into pandas / jq) and renders the human summary the CLI prints
after ``repro suite``.
"""

import json
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass
class RunRecord:
    """Metrics for one pipeline run (one job spec)."""

    name: str                   # the report name (a registry workload)
    verb: str = "run"           # run | run_adaptive
    status: str = "ok"          # ok | error | crashed | timeout
    cache_hit: bool = False
    wall_time: float = 0.0      # seconds (worker-side for misses)
    attempts: int = 1
    pid: int = None
    # headline simulated measurements (None until status == ok)
    sequential_cycles: float = None
    tls_cycles: float = None
    tls_speedup: float = None
    commits: int = None
    violations: int = None
    overflow_stalls: int = None
    # trace-subsystem aggregates (None unless the run was traced)
    trace_events: int = None
    trace_dropped: int = None
    restarts: int = None
    max_load_lines: int = None
    max_store_lines: int = None
    # adaptive recompilation (None unless the run used repro.adapt)
    adapt_epochs: int = None
    adapt_decisions: int = None
    adapt_converged_epoch: int = None
    adapt_initial_cycles: float = None
    adapt_final_cycles: float = None
    # profile provenance (repro.profdb): "cold" | "warm" | "confirmed"
    profile_provenance: str = "cold"
    error: str = None

    @staticmethod
    def from_report(report, **kwargs):
        """Record the headline numbers of a finished report."""
        breakdown = report.breakdown
        trace = getattr(report, "trace_aggregates", None)
        if trace is not None:
            kwargs.setdefault("trace_events", trace.events_recorded)
            kwargs.setdefault("trace_dropped", trace.events_dropped)
            kwargs.setdefault("restarts", trace.restarts)
            kwargs.setdefault("max_load_lines", trace.max_load_lines)
            kwargs.setdefault("max_store_lines", trace.max_store_lines)
        adaptation = getattr(report, "adaptation", None)
        if adaptation is not None:
            kwargs.setdefault("adapt_epochs", adaptation.epochs_run)
            kwargs.setdefault("adapt_decisions",
                              len(adaptation.applied_decisions()))
            kwargs.setdefault("adapt_converged_epoch",
                              adaptation.converged_epoch)
            kwargs.setdefault("adapt_initial_cycles",
                              adaptation.initial_cycles)
            kwargs.setdefault("adapt_final_cycles",
                              adaptation.final_cycles)
        kwargs.setdefault("profile_provenance",
                          getattr(report, "profile_provenance", "cold"))
        return RunRecord(
            sequential_cycles=report.sequential.cycles,
            tls_cycles=report.tls.cycles,
            tls_speedup=report.tls_speedup,
            commits=breakdown.commits if breakdown else None,
            violations=breakdown.violations if breakdown else None,
            overflow_stalls=(breakdown.overflow_stalls
                             if breakdown else None),
            **kwargs)

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteMetrics:
    """Aggregate of one suite invocation's run records."""

    records: list = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)
    jobs: int = 1

    def record(self, run_record):
        self.records.append(run_record)
        return run_record

    # -- aggregates ----------------------------------------------------------
    @property
    def hits(self):
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def misses(self):
        return sum(1 for r in self.records if not r.cache_hit)

    @property
    def hit_rate(self):
        total = len(self.records)
        return self.hits / total if total else 0.0

    @property
    def failures(self):
        return [r for r in self.records if r.status != "ok"]

    @property
    def retried(self):
        return [r for r in self.records if r.attempts > 1]

    @property
    def wall_time(self):
        return time.perf_counter() - self.started_at

    @property
    def simulated_cycles(self):
        return sum(r.tls_cycles or 0.0 for r in self.records)

    # -- emission ------------------------------------------------------------
    def write_jsonl(self, path):
        """Append one JSON line per record (plus a suite header line)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps(
                {"event": "suite", "timestamp": time.time(),
                 "jobs": self.jobs, "runs": len(self.records),
                 "cache_hits": self.hits, "cache_misses": self.misses,
                 "wall_time": round(self.wall_time, 6)}) + "\n")
            for record in self.records:
                entry = {"event": "run"}
                entry.update(record.to_dict())
                fh.write(json.dumps(entry) + "\n")
        return path

    def summary(self):
        """Human-readable metrics summary (cache counters included)."""
        lines = []
        out = lines.append
        total = len(self.records)
        out("runner: %d run%s on %d worker%s in %.2fs wall"
            % (total, "" if total == 1 else "s",
               self.jobs, "" if self.jobs == 1 else "s",
               self.wall_time))
        out("cache:  %d hit%s / %d miss%s (%.1f%% hit rate)"
            % (self.hits, "" if self.hits == 1 else "s",
               self.misses, "" if self.misses == 1 else "es",
               self.hit_rate * 100.0))
        busy = sum(r.wall_time for r in self.records)
        out("work:   %.2fs simulated-run time, %.3g simulated cycles"
            % (busy, self.simulated_cycles))
        violations = sum(r.violations or 0 for r in self.records)
        commits = sum(r.commits or 0 for r in self.records)
        overflows = sum(r.overflow_stalls or 0 for r in self.records)
        out("tls:    %d commits, %d violations, %d overflow stalls"
            % (commits, violations, overflows))
        traced = [r for r in self.records if r.trace_events is not None]
        if traced:
            out("trace:  %d run%s traced, %d event%s recorded, "
                "%d dropped, %d restart%s"
                % (len(traced), "" if len(traced) == 1 else "s",
                   sum(r.trace_events for r in traced),
                   "" if sum(r.trace_events for r in traced) == 1
                   else "s",
                   sum(r.trace_dropped or 0 for r in traced),
                   sum(r.restarts or 0 for r in traced),
                   "" if sum(r.restarts or 0 for r in traced) == 1
                   else "s"))
        warm = [r for r in self.records
                if r.profile_provenance in ("warm", "confirmed")]
        if warm:
            warm_hits = sum(1 for r in warm
                            if r.profile_provenance == "warm")
            out("profdb: %d warm start%s, %d confirmed consensus"
                % (warm_hits, "" if warm_hits == 1 else "s",
                   len(warm) - warm_hits))
        adapted = [r for r in self.records if r.adapt_epochs is not None]
        if adapted:
            out("adapt:  %d run%s adaptive, %d epoch%s, %d decision%s "
                "applied"
                % (len(adapted), "" if len(adapted) == 1 else "s",
                   sum(r.adapt_epochs for r in adapted),
                   "" if sum(r.adapt_epochs for r in adapted) == 1
                   else "s",
                   sum(r.adapt_decisions or 0 for r in adapted),
                   "" if sum(r.adapt_decisions or 0 for r in adapted)
                   == 1 else "s"))
        if self.retried:
            out("retry:  %d run%s retried after worker death"
                % (len(self.retried),
                   "" if len(self.retried) == 1 else "s"))
        for failure in self.failures:
            out("FAILED: %s/%s %s: %s"
                % (failure.name, failure.verb, failure.status,
                   (failure.error or "").splitlines()[0]
                   if failure.error else ""))
        return "\n".join(lines)
