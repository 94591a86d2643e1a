"""TLS runtime mechanics: violations, sync locks, overflow stalls,
commits, exceptions, hoisting and the state breakdown (paper §2, §4)."""

import pytest

from repro.core.pipeline import Jrpm
from repro.errors import ArrayIndexException
from repro.hydra.config import HydraConfig, SpeculationOverheads
from repro.jit.stl import StlOptions
from repro.minijava import compile_source

from conftest import wrap_main


def pipeline(src, config=None, **kwargs):
    return Jrpm(config=config, **kwargs).run(compile_source(src))


PARALLEL = wrap_main("""
    int[] a = new int[800];
    for (int i = 0; i < 800; i++) { a[i] = i * 7 % 51; }
    int s = 0;
    for (int i = 0; i < 800; i++) { s += a[i]; }
    Sys.printInt(s);
    return s;
""")

SERIAL_HEAP = wrap_main("""
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


def test_commits_match_iterations():
    report = pipeline(PARALLEL)
    assert report.breakdown.commits >= 1600    # both loops selected


def test_no_violations_on_independent_loops():
    report = pipeline(PARALLEL)
    assert report.breakdown.violations == 0


def test_run_used_dominates_for_parallel_code():
    report = pipeline(PARALLEL)
    fractions = report.breakdown.fractions()
    assert fractions["run_used"] > 0.5


def test_violations_when_serial_loop_forced():
    # Force selection by bypassing the selector's own prediction: drop
    # the speedup threshold so the serial loop is admitted.
    config = HydraConfig(min_predicted_speedup=0.0)
    report = pipeline(SERIAL_HEAP, config=config)
    if any(not p.multilevel_inner for p in report.plans.values()):
        assert report.outputs_match()
        assert (report.breakdown.violations > 50
                or report.breakdown.lock_waits > 0)


def test_sync_lock_removes_violations():
    src = wrap_main("""
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
    with_sync = pipeline(src)
    without = pipeline(src, stl_options=StlOptions(sync_locks=False))
    assert with_sync.outputs_match() and without.outputs_match()
    assert with_sync.breakdown.violations < without.breakdown.violations
    assert with_sync.tls.cycles <= without.tls.cycles


def test_overflow_stall_with_tiny_buffers():
    config = HydraConfig(load_buffer_lines=2, store_buffer_lines=2,
                         max_overflow_frequency=2.0,
                         min_predicted_speedup=0.0)
    # Every iteration writes 6 distinct cache lines (stride 8 words =
    # one 32B line), exceeding the 2-line store buffer.
    src = wrap_main("""
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
    report = pipeline(src, config=config)
    assert report.outputs_match()
    if report.plans:
        assert report.breakdown.overflow_stalls > 0
        assert report.breakdown.wait_used > 0


def test_exception_in_speculative_region_is_deferred_and_real():
    src = wrap_main("""
        int[] a = new int[100];
        int n = 200;     // out of bounds at i == 100
        int s = 0;
        for (int i = 0; i < n; i++) {
            s += a[i] + i;
        }
        Sys.printInt(s);
        return s;
    """)
    program = compile_source(src)
    report = Jrpm().run(program)
    # Sequential and speculative runs must fail identically.
    assert report.sequential.guest_exception is not None
    assert report.tls.guest_exception is not None
    assert (report.tls.guest_exception.kind
            == report.sequential.guest_exception.kind
            == "ArrayIndexOutOfBoundsException")


def test_state_breakdown_adds_up():
    report = pipeline(PARALLEL)
    breakdown = report.breakdown
    total = breakdown.total
    assert total > 0
    fractions = breakdown.fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_old_handlers_are_slower():
    config_new = HydraConfig()
    config_old = HydraConfig(overheads=SpeculationOverheads.old_handlers())
    new = pipeline(PARALLEL, config=config_new)
    old = pipeline(PARALLEL, config=config_old)
    assert new.outputs_match() and old.outputs_match()
    assert old.tls.cycles > new.tls.cycles
    assert old.breakdown.overhead > new.breakdown.overhead


def test_hoisting_reduces_total_time():
    src = wrap_main("""
        int[][] m = new int[60][40];
        int t = 0;
        for (int i = 0; i < 60; i++) {
            for (int j = 0; j < 40; j++) {
                m[i][j] = i * j + 1;
                t += m[i][j] & 3;
            }
        }
        Sys.printInt(t);
        return t;
    """)
    hoisted = pipeline(src)
    flat = pipeline(src, stl_options=StlOptions(hoisting=False))
    assert hoisted.outputs_match() and flat.outputs_match()
    # Hoisting can only help when an inner loop was selected; in either
    # case it must never hurt by more than noise.
    assert hoisted.tls.cycles <= flat.tls.cycles * 1.02


def test_more_cpus_speed_up_parallel_loop():
    two = pipeline(PARALLEL, config=HydraConfig(num_cpus=2))
    four = pipeline(PARALLEL, config=HydraConfig(num_cpus=4))
    eight = pipeline(PARALLEL, config=HydraConfig(num_cpus=8))
    assert two.outputs_match() and four.outputs_match() \
        and eight.outputs_match()
    assert two.tls.cycles > four.tls.cycles > eight.tls.cycles
    assert eight.tls_speedup > 4.0


def test_multilevel_switch_correct():
    src = wrap_main("""
        int[] data = new int[4000];
        int t = 0;
        for (int f = 0; f < 160; f++) {
            t += (f * 13) % 7;
            if ((f & 31) == 0) {
                // rare heavyweight inner loop
                for (int k = 0; k < 200; k++) {
                    data[k] = data[k] + f + k;
                }
            }
        }
        int s = 0;
        for (int k = 0; k < 200; k++) { s += data[k]; }
        Sys.printInt(t);
        Sys.printInt(s);
        return t;
    """)
    report = pipeline(src)
    assert report.outputs_match()


def test_reduction_merge_order_independent_for_ints():
    src = wrap_main("""
        int parity = 0;
        int total = 0;
        for (int i = 0; i < 1000; i++) {
            parity ^= (i * 2654435761) & 0xFFFF;
            total += i;
        }
        Sys.printInt(parity);
        Sys.printInt(total);
        return total;
    """)
    report = pipeline(src)
    assert report.outputs_match()
    assert report.tls_speedup > 2.0


# -- speculative output from a callee -----------------------------------------

SHOW = "static int show(int v) { Sys.printInt(v); return v; }"

CALLEE_PRINT = wrap_main("""
    int[] a = new int[400];
    for (int i = 0; i < 400; i++) {
        int x = i * 3;
        a[i] = x;
        if (i % 40 == 0) { show(x); }
    }
    Sys.printInt(a[399]);
    return 0;
""", prelude=SHOW)

CALLEE_PRINT_VIOLATING = wrap_main("""
    int[] b = new int[400];
    b[0] = 1;
    for (int i = 1; i < 400; i++) {
        b[i] = (b[i-1] * 3 + 1) & 1023;
        if (i % 40 == 0) { show(b[i]); }
    }
    Sys.printInt(b[399]);
    return 0;
""", prelude=SHOW)


#: test ids name the TLS scheduler each engine drives
ENGINES = pytest.mark.parametrize("engine", ["fast", "reference"],
                                  ids=["event", "stepwise"])


@ENGINES
def test_callee_prints_commit_in_order(engine):
    """A callee's prints are buffered with the speculative thread and
    reach the output when it commits — for every thread, not only the
    first one each CPU runs."""
    config = HydraConfig(engine=engine)
    report = pipeline(CALLEE_PRINT, config=config)
    assert report.plans                  # the loop ran speculatively
    assert len(report.sequential.output) == 11
    assert report.tls.output == report.sequential.output


@ENGINES
def test_callee_prints_of_restarted_attempts_are_discarded(engine):
    """Under RAW violations each restart drops the attempt's buffered
    prints: the committed output is exactly the sequential one."""
    config = HydraConfig(min_predicted_speedup=0.0, engine=engine)
    report = pipeline(CALLEE_PRINT_VIOLATING, config=config)
    assert report.plans
    assert report.breakdown.violations > 0
    assert len(report.sequential.output) == 10
    assert report.tls.output == report.sequential.output
