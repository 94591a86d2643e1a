"""Parallel suite runner with a persistent report cache.

Public surface:

* :class:`SuiteRunner` — fans :class:`~repro.service.jobs.JobSpec`
  runs across worker processes through the service's executor and
  artifact store, memoized on disk,
* :class:`ReportCache` / :func:`cache_key` — the content-addressed
  store under ``benchmarks/.cache/`` (its key is
  :func:`~repro.service.jobs.job_fingerprint`),
* :class:`SuiteMetrics` / :class:`RunRecord` — structured per-run
  metrics (JSONL + human summary),
* :class:`ProcessPool` — the crash-isolated executor underneath.
"""

from .cache import (ReportCache, cache_key, code_fingerprint,
                    default_cache_dir, options_fingerprint)
from .metrics import RunRecord, SuiteMetrics
from .pool import ProcessPool, TaskOutcome
from .suite import SuiteRunError, SuiteRunner

__all__ = ["SuiteRunner", "SuiteRunError", "default_cache_dir",
           "ReportCache", "cache_key", "code_fingerprint",
           "options_fingerprint",
           "SuiteMetrics", "RunRecord",
           "ProcessPool", "TaskOutcome"]
