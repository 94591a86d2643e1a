"""Profile-DB sweep: warm starts are plan-equivalent to cold.

For every workload in the registry (small size) the registry sweep's
fast-engine case (``conftest.registry_case``) records its cold report
into a fresh profile DB and runs warm from that record.  The warm
run must be *indistinguishable* from the cold one where it matters:
same selected STL plan sites, same TLS cycle count and speedup (exact,
not approximate — the simulator is deterministic and the warm path
replays the stored measurements verbatim), and matching program
output.  This is the acceptance gate for the warm-start fast path:
skipping the baseline and TEST runs must never change what the system
decides or computes.  The default tier checks one workload per
category; the rest is marked ``slow``.
"""

import pytest

from repro import Jrpm, compile_source
from repro.workloads import lookup

from conftest import registry_case, registry_params


@pytest.mark.parametrize("name", registry_params())
def test_warm_start_plan_equivalent_to_cold(name):
    case = registry_case(name, "fast")
    cold, warm = case.report, case.warm
    assert case.provenance == "cold"
    assert warm.profile_provenance == "warm", (
        "%s: second run did not warm-start" % name)
    # the decision is identical: same committed plan sites ...
    assert sorted(warm.plans) == sorted(cold.plans)
    # ... and the speculative execution they drive is cycle-identical
    assert warm.tls.cycles == cold.tls.cycles
    assert warm.tls_speedup == cold.tls_speedup
    assert warm.tls.output == cold.tls.output
    assert warm.outputs_match()
    # replayed measurements round through the report unchanged
    assert warm.sequential.cycles == cold.sequential.cycles
    assert warm.profiling.cycles == cold.profiling.cycles


@pytest.mark.slow
def test_third_run_confirms_consensus(tmp_path):
    """The sweep's cold euler run seeds the DB (the record ``run_case``
    makes), a second run warm-starts from it, and a third, forced to
    re-profile, is "confirmed": it re-derives the stored plan."""
    case = registry_case("euler", "fast")
    db_path = str(tmp_path / "profdb")
    jrpm = Jrpm(profdb=db_path)
    assert jrpm.profdb.record(case.program, case.report, (), jrpm.config,
                              jrpm.stl_options, jrpm.vm_options) == "cold"
    source = lookup("euler").source("small")
    warm = jrpm.run(compile_source(source), name="euler")
    assert warm.profile_provenance == "warm"
    confirmed = Jrpm(profdb=db_path, warm_start="off").run(
        compile_source(source), name="euler")
    assert confirmed.profile_provenance == "confirmed"
