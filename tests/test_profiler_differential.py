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

Three registry workloads (one per category) and two adversarial
programs — a single comparator bank (bank stealing and missed
allocations) and a recursive method that re-enters a loop while it is
still active — run in the default tier; the 26-workload sweep is
marked ``slow``.
"""

import json

import pytest

from repro.core.pipeline import Jrpm
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.trace import TraceOptions, chrome_trace
from repro.workloads import all_workloads, lookup

from conftest import wrap_main


def profile_observables(source, engine, traced=False, **config_fields):
    """Canonical JSON of everything the TEST profile run observed."""
    config = HydraConfig(engine=engine, **config_fields)
    jrpm = Jrpm(config=config, trace=TraceOptions() if traced else None)
    artifact = jrpm.profile(compile_source(source))
    profiler = artifact.profiler
    observed = {
        "loop_stats": [[loop_id, stats.to_dict()]
                       for loop_id, stats in profiler.stats.items()],
        "dynamic_nesting": sorted(profiler.dynamic_nesting),
        "max_dynamic_depth": profiler.max_dynamic_depth,
        "events": profiler.events,
        "bank_steals": profiler.bank_steals,
        "missed_allocations": profiler.missed_allocations,
        "cycles": artifact.measurement.cycles,
        "instructions": artifact.measurement.instructions,
    }
    if traced:
        observed["trace"] = chrome_trace(jrpm.trace, name="diff")
    return json.dumps(observed, sort_keys=True, default=str), profiler


def assert_identical(source, label, traced=False, **config_fields):
    fast, profiler = profile_observables(source, "fast", traced,
                                         **config_fields)
    reference, __ = profile_observables(source, "reference", traced,
                                        **config_fields)
    assert fast == reference, "TEST profile diverged: %s" % label
    return profiler


# ---------------------------------------------------------------------------
# default tier: one registry workload per category, traced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["BitOps", "LuFactor", "decJpeg"])
def test_profile_differential_per_category(name):
    profiler = assert_identical(lookup(name).source("small"), name,
                                traced=True)
    assert profiler.events > 0


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
        NESTED_OVERFLOW, "comparator_banks=1", traced=True,
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
    profiler = assert_identical(RECURSIVE_REENTRY, "recursive re-entry",
                                traced=True)
    self_nested = [pair for pair in profiler.dynamic_nesting
                   if pair[0] == pair[1]]
    assert self_nested
    assert profiler.max_dynamic_depth >= 4


# ---------------------------------------------------------------------------
# slow tier: the whole registry
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_profile_differential_sweep(name):
    assert_identical(lookup(name).source("small"), name)
