"""Differential oracle: TEST profiling under the fast vs reference engine.

The fast engine fuses the TEST annotation ops (SLOOP/EOI/ELOOP/LWL/SWL)
into its sequential superinstruction blocks, and the profiler resolves
loop activations through per-loop stacks and rejects most arcs before
calling into the dependency analysis.  None of that may change what the
comparator banks compute.  For each program, ``Jrpm.profile`` under
``HydraConfig(engine="fast")`` must agree with ``engine="reference"``
(the ``step_legacy`` dispatcher, one hook call per annotation) on —

* every ``LoopStats.to_dict()``, in discovery order,
* ``dynamic_nesting`` and ``max_dynamic_depth``,
* the ``events``, ``bank_steals`` and ``missed_allocations`` counts,
* the profile run's simulated cycles and instructions, and
* the Chrome-trace events of the profile phase of a traced run.

Registry workloads are compared from the registry sweep's one traced
run per engine (``conftest.registry_case``), by the digests of the
profile and the Chrome trace that ``tests/golden/report_digests.json``
also pins: one workload per category, trace included, in the default
tier, and the 26-workload profile sweep marked ``slow``.  Two
adversarial programs run in the default tier: a single comparator bank
(bank stealing and missed allocations) and a recursive method that
re-enters a loop while it is still active.
"""

import json

import pytest

from repro.core.pipeline import Jrpm
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.trace import TraceOptions, chrome_trace
from repro.workloads import all_workloads

import regen_report_digests
from conftest import FAST_TIER, registry_case, wrap_main


def profile_observables(source, engine, **config_fields):
    """Canonical JSON of everything the traced TEST profile run
    observed: the golden manifest's ``profiles`` surface and the
    trace."""
    config = HydraConfig(engine=engine, **config_fields)
    jrpm = Jrpm(config=config, trace=TraceOptions())
    artifact = jrpm.profile(compile_source(source))
    observed = regen_report_digests.profile_observables(
        artifact.profiler, artifact.measurement)
    observed["trace"] = chrome_trace(jrpm.trace, name="diff")
    return json.dumps(observed, sort_keys=True, default=str), \
        artifact.profiler


def assert_identical(source, label, **config_fields):
    fast, profiler = profile_observables(source, "fast", **config_fields)
    reference, __ = profile_observables(source, "reference",
                                        **config_fields)
    assert fast == reference, "TEST profile diverged: %s" % label
    return profiler


def assert_registry_identical(name, surfaces):
    """The two engines' registry cases of *name* agree on *surfaces*."""
    fast, reference = (registry_case(name, engine)
                       for engine in regen_report_digests.ENGINES)
    for surface in surfaces:
        assert fast.surfaces[surface] == reference.surfaces[surface], (
            "%s diverged: %s" % (surface, name))
    assert fast.report.profiler.events > 0


# ---------------------------------------------------------------------------
# registry workloads: the profile, and in the default tier the trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FAST_TIER)
def test_profile_differential_per_category(name):
    assert_registry_identical(name, ("profiles", "chrome_traces"))


@pytest.mark.slow
@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_profile_differential_sweep(name):
    assert_registry_identical(name, ("profiles",))


# ---------------------------------------------------------------------------
# adversarial programs
# ---------------------------------------------------------------------------

NESTED_OVERFLOW = wrap_main("""
        int[] a = new int[4000];
        int s = 0;
        for (int i = 0; i < 10; i++) {
            for (int j = 0; j < 100; j++) {
                a[i * 100 + j] = i + j;
            }
            for (int k = 0; k < 5; k++) {
                for (int m = 0; m < 3; m++) { s += a[k * 7 + m]; }
            }
            s += a[i];
        }
        return s;
""")


def test_single_bank_steals_and_misses():
    """One comparator bank: the overflowing outer loop loses its bank
    to an inner loop (stealing) and deeper loops find none (missed)."""
    profiler = assert_identical(
        NESTED_OVERFLOW, "comparator_banks=1",
        comparator_banks=1, load_buffer_lines=2, store_buffer_lines=1)
    assert profiler.bank_steals > 0
    assert profiler.missed_allocations > 0


RECURSIVE_REENTRY = """
class Main {
    static int[] data;
    static int walk(int depth, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            s = s + data[i + depth];
            data[i + depth + 1] = s;
            if (depth < 3 && i == 1) {
                s = s + walk(depth + 1, n - 1);
            }
        }
        return s;
    }
    static int main() {
        data = new int[64];
        for (int i = 0; i < 64; i++) { data[i] = i; }
        int t = 0;
        for (int r = 0; r < 3; r++) { t = t + walk(0, 6); }
        Sys.printInt(t);
        return t;
    }
}
"""


def test_recursive_reentry_of_an_active_loop():
    """``walk`` re-enters its own loop while the outer activation is
    still active: hooks must resolve to the innermost activation."""
    profiler = assert_identical(RECURSIVE_REENTRY, "recursive re-entry")
    self_nested = [pair for pair in profiler.dynamic_nesting
                   if pair[0] == pair[1]]
    assert self_nested
    assert profiler.max_dynamic_depth >= 4
