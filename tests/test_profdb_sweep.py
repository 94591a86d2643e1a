"""Slow differential sweep: warm starts are plan-equivalent to cold.

For every workload in the registry (small size) this runs the pipeline
cold against a fresh profile DB and then again warm from the recorded
consensus, and requires the warm run to be *indistinguishable* from the
cold one where it matters: same selected STL plan sites, same TLS cycle
count and speedup (exact, not approximate — the simulator is
deterministic and the warm path replays the stored measurements
verbatim), and matching program output.  This is the acceptance gate
for the warm-start fast path: skipping the baseline and TEST runs must
never change what the system decides or computes.

Run with ``pytest -m slow`` (excluded from the fast tier).
"""

import pytest

from repro import Jrpm, compile_source
from repro.workloads import lookup, names


@pytest.mark.slow
@pytest.mark.parametrize("name", names())
def test_warm_start_plan_equivalent_to_cold(tmp_path, name):
    db_path = str(tmp_path / "profdb")
    source = lookup(name).source("small")
    cold = Jrpm(profdb=db_path).run(compile_source(source), name=name)
    assert cold.profile_provenance == "cold"
    warm = Jrpm(profdb=db_path).run(compile_source(source), name=name)
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
    db_path = str(tmp_path / "profdb")
    source = lookup("euler").source("small")
    Jrpm(profdb=db_path).run(compile_source(source), name="euler")
    warm = Jrpm(profdb=db_path).run(compile_source(source), name="euler")
    assert warm.profile_provenance == "warm"
    # forcing a cold re-profile against an established consensus marks
    # the run "confirmed" when it re-derives the same plan
    confirmed = Jrpm(profdb=db_path, warm_start="off").run(
        compile_source(source), name="euler")
    assert confirmed.profile_provenance == "confirmed"
