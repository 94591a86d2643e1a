"""Differential oracle: TLS under the fast engine vs the reference engine.

The fast engine's event-driven TLS scheduler
(:meth:`repro.tls.runtime.TlsRuntime._run_event`) must be
**observationally cycle-exact** with the reference engine's stepwise
scan over ``step_legacy``: for any guest program, batching
straight-line non-memory runs between scheduler events must reproduce
the stepwise smallest-clock interleaving bit-for-bit —

* printed output, return value and guest-exception behaviour,
* total simulated cycles and instructions of the TLS run,
* per-STL statistics: commits, violations, squashes, restarts and the
  cycle-breakdown accounting,
* the full serialized pipeline report, and
* the cycle-level trace event stream (timestamps, CPUs, durations,
  payloads — byte-identical Chrome-trace JSON).

This file enforces that over targeted programs forcing every
speculative control path — RAW violations, buffer-overflow stalls,
deferred guest exceptions and lock-contention (WAITLOCK/SIGNAL)
scheduling — and, with the trace collector attached, over randomized
MiniJava workloads and every registry workload.  The random workloads'
traced runs are shared with ``tests/test_engine_differential.py``'s
sweep, which also checks them at machine level; the registry's are the
registry sweep's one run per engine (``conftest.registry_case``),
compared by the digests of the traced report and the Chrome trace that
``tests/test_golden_reports.py`` pins.  A subset runs in the default
tier; the sweeps are marked ``slow``.
"""

import pytest

from repro.hydra.config import HydraConfig
from repro.workloads import all_workloads

import regen_report_digests
from conftest import registry_case, wrap_main
from test_engine_differential import assert_same_observables, \
    assert_seed_identical, report_observables

ENGINES = ("fast", "reference")


def assert_identical(source, label, config_factory=None, traced=False):
    observed = {}
    for engine in ENGINES:
        config = config_factory() if config_factory else None
        observed[engine] = report_observables(
            source, engine, config=config, traced=traced)
    assert_same_observables(observed["fast"], observed["reference"],
                            "%s\nsrc=%s" % (label, source))


# ---------------------------------------------------------------------------
# default tier: traced randomized workloads (same generator as the
# engine differential — chain/carried variants force violations and
# restarts)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_scheduler_differential_random(seed):
    assert_seed_identical(seed)


# ---------------------------------------------------------------------------
# targeted speculative control paths
# ---------------------------------------------------------------------------

FORCED_VIOLATIONS = wrap_main("""
    int[] b = new int[500];
    b[0] = 1;
    int t = 0;
    for (int i = 1; i < 500; i++) {
        b[i] = b[i-1] * 3 + 1;
        t ^= b[i] & 255;
    }
    Sys.printInt(t);
    return t;
""")


def test_forced_violation_path():
    """A loop-carried heap chain admitted by a zero speedup threshold:
    every thread restarts at least once, exercising _restart_thread's
    chain invalidation (the ``_gen`` bump) under run-ahead."""
    assert_identical(
        FORCED_VIOLATIONS, "forced violations",
        config_factory=lambda: HydraConfig(min_predicted_speedup=0.0))


OVERFLOW = wrap_main("""
    int[] a = new int[8000];
    int s = 0;
    for (int i = 0; i < 120; i++) {
        int b = i * 48;
        a[b] = i; a[b + 8] = i + 1; a[b + 16] = i + 2;
        a[b + 24] = i + 3; a[b + 32] = i + 4; a[b + 40] = i + 5;
        s += a[b];
    }
    Sys.printInt(s);
    return s;
""")


def test_buffer_overflow_path():
    """Six distinct store lines per iteration against a 2-line store
    buffer: overflow stalls park the thread until it becomes head."""
    assert_identical(
        OVERFLOW, "overflow stalls",
        config_factory=lambda: HydraConfig(
            load_buffer_lines=2, store_buffer_lines=2,
            max_overflow_frequency=2.0, min_predicted_speedup=0.0))


SPECULATIVE_EXCEPTION = wrap_main("""
    int[] a = new int[100];
    int n = 200;     // out of bounds at i == 100
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += a[i] + i;
    }
    Sys.printInt(s);
    return s;
""")


def test_speculative_exception_path():
    """A guest exception inside a speculated region is deferred until
    the thread is head; both schedulers must raise it at the same
    simulated cycle with identical flushed output."""
    assert_identical(SPECULATIVE_EXCEPTION, "speculative exception")


LOCK_CONTENTION = wrap_main("""
    int seed = 3;
    int acc = 0;
    for (int i = 0; i < 700; i++) {
        seed = (seed * 48271 + 11) & 0x7FFFFFFF;
        int w = seed % 64;
        int v = (w * w + w) % 101;
        acc = (acc + v) & 0xFFFF;
    }
    Sys.printInt(acc);
    Sys.printInt(seed);
    return acc;
""")


def test_lock_contention_path():
    """The synchronizing-lock decomposition (paper's WAITLOCK/SIGNAL):
    threads block in WAIT_LOCK and are woken at release — the
    wake-at-release fast-forward must charge identical poll cycles."""
    assert_identical(LOCK_CONTENTION, "lock contention")


def test_lock_contention_trace_stream():
    """Byte-identical Chrome-trace event streams (timestamps, CPUs,
    durations, violation arcs) on the lock-contention workload."""
    assert_identical(LOCK_CONTENTION, "lock contention", traced=True)


def test_violation_trace_stream():
    """Same, on the forced-violation workload: restart/violation events
    carry exact cycle stamps through truncation-and-replay."""
    assert_identical(
        FORCED_VIOLATIONS, "forced violations", traced=True,
        config_factory=lambda: HydraConfig(min_predicted_speedup=0.0))


STRIDED_LOADS = wrap_main("""
    int[] a = new int[2048];
    for (int i = 0; i < 2048; i++) {
        a[i] = i * 7 + 3;
    }
    int s = 0;
    for (int i = 0; i < 400; i++) {
        int j = (i * 24) & 2040;
        s += a[j] + a[j + 1] + a[j + 5] + a[(i * 97) & 2047];
    }
    Sys.printInt(s);
    return s;
""")


@pytest.mark.parametrize("hardware", [
    dict(l1_size_bytes=128, l1_assoc=1, l2_size_bytes=512, l2_assoc=1),
    dict(load_buffer_lines=3, max_overflow_frequency=2.0),
], ids=["tiny-caches", "tiny-load-buffer"])
def test_commuting_loads_trace_stream(hardware):
    """Speculative loads that run inside the run-ahead, past younger
    CPUs' events: a strided-load STL whose loads mix L1 hits with
    misses (tiny direct-mapped caches: a miss touches the shared L2, so
    it must not commute) or whose threads reach the load-buffer limit
    (a new line there must not commute)."""
    assert_identical(
        STRIDED_LOADS, "strided loads", traced=True,
        config_factory=lambda: HydraConfig(min_predicted_speedup=0.0,
                                           **hardware))


# ---------------------------------------------------------------------------
# slow tier: every registry workload and more random ones, traced
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_scheduler_differential_registry(name):
    fast, reference = (registry_case(name, engine)
                       for engine in regen_report_digests.ENGINES)
    for surface in ("traced_reports", "chrome_traces"):
        assert fast.surfaces[surface] == reference.surfaces[surface], (
            "engines diverged: %s %s" % (name, surface))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6, 20))
def test_scheduler_differential_random_sweep(seed):
    assert_seed_identical(seed)
