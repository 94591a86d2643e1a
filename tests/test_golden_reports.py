"""Golden report digests: every ``Jrpm.run`` report, byte for byte.

``tests/golden/report_digests.json`` holds one SHA-256 per registry
workload (``size="small"``): of its canonical report JSON without
``config.engine``, which the fast and the reference engine must both
produce; ``scripts/regen_report_digests.py`` computes and regenerates
it.  A speedup must leave every digest unchanged; a
deliberate report change regenerates the manifest in the same commit.
The default tier checks one workload per category, the ``slow`` tier
all of them; the default tier also checks the reports ``jrpm suite``
produces through the job path on two workers.
"""

import importlib.util
import os

import pytest

from repro.workloads import all_workloads

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "regen_report_digests.py")
_spec = importlib.util.spec_from_file_location("regen_report_digests",
                                               _SCRIPT)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

#: one workload per category (integer, floating point, multimedia)
FAST_TIER = ("BitOps", "LuFactor", "decJpeg")
MANIFEST = digests.load_manifest()["reports"]


def _cases():
    for workload in all_workloads():
        marks = () if workload.name in FAST_TIER else pytest.mark.slow
        for engine in digests.ENGINES:
            yield pytest.param(workload.name, engine, marks=marks,
                               id="%s-%s" % (workload.name, engine))


def test_manifest_covers_the_registry():
    names = sorted(workload.name for workload in all_workloads())
    assert sorted(MANIFEST) == names


@pytest.mark.parametrize("name,engine", list(_cases()))
def test_report_digest(name, engine):
    assert digests.report_digest(name, engine) == MANIFEST[name]


def test_suite_reports_match_the_manifest():
    from repro.runner import SuiteRunner
    reports = SuiteRunner(jobs=2, use_cache=False).run_suite(
        size=digests.SIZE, workloads=list(FAST_TIER))
    assert {name: digests.payload_digest(report.to_dict())
            for name, report in reports.items()} \
        == {name: MANIFEST[name] for name in FAST_TIER}
