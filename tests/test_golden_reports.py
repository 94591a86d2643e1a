"""The registry sweep: each workload runs once per engine, and every
pinned surface is asserted from that one execution.

Each case compares the surface digests of
``scripts/regen_report_digests.py``'s ``run_case`` (one traced
``Jrpm.run``) with ``tests/golden/report_digests.json``, whose digests
both engines share.  The run is ``conftest.registry_case``, memoized:
the registry tests of ``test_pipeline`` (derived baseline),
``test_integration_suite`` (bytecode oracle), ``test_profdb_sweep``
(warm start), ``test_adapt_properties`` (adaptive run),
``test_profiler_differential`` and ``test_scheduler_differential``
(fast == reference) check their properties from the same execution
instead of profiling again.  The
default tier runs one workload per category and the reports ``jrpm
suite`` produces for them on two workers; the ``slow`` tier runs the
rest.
"""

import pytest

from repro.workloads import all_workloads

import regen_report_digests as digests
from conftest import FAST_TIER, registry_case

MANIFEST = digests.load_manifest()


def _cases():
    for workload in all_workloads():
        marks = () if workload.name in FAST_TIER else pytest.mark.slow
        for engine in digests.ENGINES:
            yield pytest.param(workload.name, engine, marks=marks,
                               id="%s-%s" % (workload.name, engine))


def test_manifest_covers_the_registry():
    names = sorted(workload.name for workload in all_workloads())
    surfaces = digests.SURFACES + digests.FAST_SURFACES
    assert sorted(MANIFEST) == sorted(surfaces + ("replies", "size"))
    assert sorted(MANIFEST["replies"]) == sorted(digests.REPLY_VERBS)
    assert MANIFEST["size"] == digests.SIZE
    for surface in surfaces:
        assert sorted(MANIFEST[surface]) == names, surface


@pytest.mark.parametrize("name,engine", list(_cases()))
def test_report_digest(name, engine):
    case = registry_case(name, engine)
    surfaces = digests.SURFACES
    if engine == "fast":
        surfaces += digests.FAST_SURFACES
    assert case.surfaces == {surface: MANIFEST[surface][name]
                             for surface in surfaces}
    assert case.report.profiler.events > 0


def test_suite_reports_match_the_manifest():
    from repro.runner import SuiteRunner
    reports = SuiteRunner(jobs=2, use_cache=False).run_suite(
        size=digests.SIZE, workloads=list(FAST_TIER))
    assert {name: digests.payload_digest(report.to_dict())
            for name, report in reports.items()} \
        == {name: MANIFEST["reports"][name] for name in FAST_TIER}
