"""Shared infrastructure for the experiment benchmarks.

Every paper table/figure is regenerated by one ``bench_*.py`` file; the
expensive artifact is a full five-step pipeline run per workload:

* :func:`baseline_reports` fans the 26 default-configuration runs
  across up to four worker processes as
  :class:`~repro.service.jobs.JobSpec` objects through
  :class:`~repro.runner.SuiteRunner`, which memoizes them on disk in
  the content-addressed report cache under ``benchmarks/.cache/`` —
  re-running any bench script warm is near-instant;
* :func:`run_workload` runs the ``manual`` variant the same way, and an
  ablation (a :class:`HydraConfig`, :class:`StlOptions` or
  :class:`VmOptions` that ``RunOptions`` cannot express) in-process
  through ``Jrpm.run``;
* every run is memoized in-process for the lifetime of one pytest
  invocation, keyed ``(name, variant, tag)``.

Results are printed (visible with ``pytest -s``) and written to
``benchmarks/results/<experiment>.txt`` so the regenerated rows survive
pytest's output capture.  The tables are deterministic, so CI pins
them byte for byte against the committed files.
"""

import os

from repro.core.pipeline import Jrpm, VmOptions
from repro.hydra.config import HydraConfig
from repro.jit.stl import StlOptions
from repro.runner import SuiteRunner
from repro.service.jobs import JobSpec, resolve_workload
from repro.workloads import all_workloads

#: benchmark data-set size used throughout the harness (keeps the full
#: 26-benchmark sweep tractable under behavioral simulation)
SIZE = "default"

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: worker processes used for batched cache misses
JOBS = min(4, os.cpu_count() or 1)

_REPORT_CACHE = {}


def _run_specs(keyed_specs, jobs):
    """Run (memo-key, JobSpec) pairs through the suite runner and fill
    the in-process memo."""
    runner = SuiteRunner(jobs=jobs)
    reports = runner.run([spec for _, spec in keyed_specs])
    for (key, _), report in zip(keyed_specs, reports):
        _REPORT_CACHE[key] = report
    return reports


def _spec(name, variant="base"):
    source, name = resolve_workload(name, SIZE, variant)
    return JobSpec(verb="run", source=source, name=name)


def run_workload(name, variant="base", config=None, stl_options=None,
                 vm_options=None, tag="default"):
    """Memoized full-pipeline run of one workload.

    The report comes from (in order): the in-process memo, the on-disk
    report cache, or a fresh simulation — output verification included.
    Ablations (any of *config*, *stl_options*, *vm_options* given) skip
    the on-disk cache.
    """
    key = (name, variant, tag)
    if key in _REPORT_CACHE:
        return _REPORT_CACHE[key]
    if config is None and stl_options is None and vm_options is None:
        _run_specs([(key, _spec(name, variant))], jobs=1)
        return _REPORT_CACHE[key]
    source, name = resolve_workload(name, SIZE, variant)
    report = Jrpm(config=config, stl_options=stl_options,
                  vm_options=vm_options).run(source, name=name)
    if not report.outputs_match():
        raise AssertionError(
            "%s: speculative output diverged from sequential" % name)
    _REPORT_CACHE[key] = report
    return report


def baseline_reports():
    """Default-configuration reports for all 26 workloads (cache misses
    fan out across ``JOBS`` worker processes)."""
    missing = [((w.name, "base", "default"), _spec(w.name))
               for w in all_workloads()
               if (w.name, "base", "default") not in _REPORT_CACHE]
    if missing:
        _run_specs(missing, jobs=JOBS)
    return {w.name: _REPORT_CACHE[(w.name, "base", "default")]
            for w in all_workloads()}


def write_result(experiment, lines):
    """Write the rows to ``results/<experiment>.txt`` and print them."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    with open(os.path.join(RESULTS_DIR, experiment + ".txt"), "w") as fh:
        fh.write(text)
    print()
    print(text)


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


__all__ = ["SIZE", "JOBS", "run_workload", "baseline_reports",
           "write_result", "geomean", "Jrpm", "HydraConfig",
           "StlOptions", "VmOptions"]
