"""Focused TLS runtime behaviours not covered by the end-to-end tests:
commit ordering, violation cascades, exit protocol, accounting."""

import pytest

from repro.core.pipeline import Jrpm
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source

from conftest import wrap_main


def run(src, config=None, **kw):
    return Jrpm(config=config, **kw).run(compile_source(src))


def test_zero_trip_loop():
    report = run(wrap_main("""
        int n = 0;
        int s = 0;
        int[] a = new int[8];
        for (int i = 0; i < 600; i++) { a[i % 8] = i; s += i; }
        for (int i = 0; i < n; i++) { s = -999; }
        Sys.printInt(s);
        return s;
    """))
    assert report.outputs_match()


def test_single_iteration_loop_in_nest():
    report = run(wrap_main("""
        int total = 0;
        for (int outer = 0; outer < 200; outer++) {
            for (int inner = 0; inner < 1; inner++) {
                total += outer & 7;
            }
        }
        Sys.printInt(total);
        return total;
    """))
    assert report.outputs_match()


def test_loop_with_variable_trip_count():
    report = run(wrap_main("""
        int s = 0;
        for (int i = 0; i < 60; i++) {
            for (int j = 0; j < i % 7; j++) { s += j; }
        }
        Sys.printInt(s);
        return s;
    """))
    assert report.outputs_match()


def test_commit_order_respects_sequence():
    """Iterations write a strictly ordered journal; TLS must preserve it."""
    report = run(wrap_main("""
        int[] journal = new int[400];
        int pos = 0;
        for (int i = 0; i < 400; i++) {
            journal[pos] = i;
            pos = pos + 1;
        }
        int ok = 1;
        for (int i = 0; i < 400; i++) {
            if (journal[i] != i) { ok = 0; }
        }
        Sys.printInt(ok);
        return ok;
    """))
    assert report.outputs_match()
    assert report.tls.output == [1]


def test_violation_cascade_restarts_all_later_threads():
    config = HydraConfig(min_predicted_speedup=0.0)
    report = run(wrap_main("""
        int[] chain = new int[300];
        chain[0] = 7;
        int t = 0;
        for (int i = 1; i < 300; i++) {
            chain[i] = (chain[i-1] * 5 + 3) & 0xFFF;
            t ^= chain[i];
        }
        Sys.printInt(t);
        return t;
    """), config=config)
    assert report.outputs_match()
    if report.plans and report.breakdown.violations:
        # Hydra restarts the violated thread AND everything above it.
        assert report.breakdown.squashes >= report.breakdown.violations / 4


def test_accounting_conservation():
    """Committed + violated + overhead CPU time must not be wildly out
    of line with wall time x CPUs."""
    report = run(wrap_main("""
        int[] a = new int[900];
        int s = 0;
        for (int i = 0; i < 900; i++) { a[i] = i * 3; s += a[i] & 15; }
        Sys.printInt(s);
        return s;
    """))
    breakdown = report.breakdown
    cpu_time = (breakdown.run_used + breakdown.wait_used
                + breakdown.run_violated + breakdown.wait_violated
                + breakdown.overhead)
    wall = report.tls.cycles
    assert cpu_time <= wall * report.config.num_cpus * 1.05
    assert cpu_time >= wall * 0.5


def test_exception_before_any_commit():
    report = run(wrap_main("""
        int[] a = new int[4];
        int n = 500;
        int s = 0;
        for (int i = 0; i < n; i++) { s += a[i]; }
        Sys.printInt(s);
        return s;
    """))
    assert report.sequential.guest_exception is not None
    assert report.tls.guest_exception is not None


def test_exception_output_prefix_preserved():
    """Output printed before the faulting loop must survive; speculative
    prints after the fault must not appear."""
    report = run(wrap_main("""
        Sys.printInt(111);
        int[] a = new int[10];
        int s = 0;
        for (int i = 0; i < 500; i++) { s += a[i]; }
        Sys.printInt(222);
        return s;
    """))
    assert report.sequential.output == report.tls.output == [111]


def test_nested_stls_in_called_method():
    """A selected loop in a callee invoked from a selected caller loop
    exercises the dynamic-nesting conflict or the switch protocol."""
    report = run("""
class Main {
    static int[] data;
    static int burst(int base) {
        int local = 0;
        for (int k = 0; k < 40; k++) {
            local += data[(base + k) % 512] & 31;
        }
        return local;
    }
    static int main() {
        data = new int[512];
        for (int i = 0; i < 512; i++) { data[i] = i * 7; }
        int total = 0;
        for (int b = 0; b < 80; b++) {
            total += burst(b * 13);
        }
        Sys.printInt(total);
        return total;
    }
}
""")
    assert report.outputs_match()
    assert report.tls_speedup > 1.2


def test_two_cpu_configuration():
    config = HydraConfig(num_cpus=2)
    report = run(wrap_main("""
        int s = 0;
        int[] a = new int[500];
        for (int i = 0; i < 500; i++) { a[i] = i; s += i & 3; }
        Sys.printInt(s);
        return s;
    """), config=config)
    assert report.outputs_match()
    assert 1.0 < report.tls_speedup <= 2.2


def test_stl_stats_recorded_per_loop():
    report = run(wrap_main("""
        int s = 0;
        int[] a = new int[600];
        for (int i = 0; i < 600; i++) { a[i] = i; }
        for (int i = 0; i < 600; i++) { s += a[i]; }
        Sys.printInt(s);
        return s;
    """))
    assert report.stl_run_stats
    for stats in report.stl_run_stats.values():
        assert stats.entries >= 1
        assert stats.threads_committed > 0
        assert stats.avg_thread_cycles > 0


# -- thread-code tables: built once per (run, STL) ----------------------------

#: the outer loop prints, so only the inner loop is speculated — and it
#: is entered once per outer iteration
INNER_STL_REENTERED = wrap_main("""
    int[] a = new int[64];
    int s = 0;
    for (int r = 0; r < 40; r++) {
        for (int i = 0; i < 64; i++) { a[i] = a[i] * 3 + r + i; }
        s = s + a[r];
        Sys.printInt(s);
    }
    return s;
""")

MULTILEVEL_SWITCH = wrap_main("""
    int[] data = new int[4000];
    int t = 0;
    for (int f = 0; f < 160; f++) {
        t += (f * 13) % 7;
        if ((f & 31) == 0) {
            for (int k = 0; k < 200; k++) { data[k] = data[k] + f + k; }
        }
    }
    int s = 0;
    for (int k = 0; k < 200; k++) { s += data[k]; }
    Sys.printInt(t);
    Sys.printInt(s);
    return t;
""")


def _count_thread_code_builds(monkeypatch, source, engine):
    """Run the pipeline once, counting ``build_table`` calls per
    thread-code unit."""
    from repro.engine import ir_engine
    builds = {}
    build_table = ir_engine.build_table

    def counted(code, unit_name, *rest):
        if "$stl" in unit_name:
            builds[unit_name] = builds.get(unit_name, 0) + 1
        return build_table(code, unit_name, *rest)

    monkeypatch.setattr(ir_engine, "build_table", counted)
    report = run(source, config=HydraConfig(engine=engine))
    monkeypatch.undo()
    payload = report.to_dict()
    payload.pop("config")
    return report, builds, payload


@pytest.mark.parametrize("source, reentered", [
    (INNER_STL_REENTERED, 40), (MULTILEVEL_SWITCH, 5)],
    ids=["inner-loop", "multilevel-switch"])
def test_thread_code_tables_built_once_per_stl(monkeypatch, source,
                                               reentered):
    payloads = []
    for engine in ("fast", "reference"):
        report, builds, payload = _count_thread_code_builds(
            monkeypatch, source, engine)
        assert report.outputs_match()
        entries = [stats.entries
                   for stats in report.stl_run_stats.values()]
        assert max(entries) == reentered
        assert builds and set(builds.values()) == {1}, builds
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_thread_code_units_are_per_machine(monkeypatch):
    """The run-ahead cost map folds in the machine's CALL overhead, so
    two machines never share a thread-code unit."""
    from repro.jit.ir import IROp
    from repro.tls.runtime import TlsRuntime
    source = wrap_main("""
        int[] a = new int[600];
        for (int i = 0; i < 600; i++) { a[i] = step(i) + step(i + 1); }
        Sys.printInt(a[599]);
        return 0;
    """, prelude="static int step(int x) { return (x * 5 + 7) % 2048; }")
    units = []
    run_stl = TlsRuntime.run_stl

    def spy(runtime, master_ctx, descriptor):
        exit_id = run_stl(runtime, master_ctx, descriptor)
        units.append((runtime.config.call_overhead_cycles,
                      runtime.units[descriptor]))
        return exit_id

    monkeypatch.setattr(TlsRuntime, "run_stl", spy)
    for pad in (2, 9):
        assert run(source, config=HydraConfig(
            call_overhead_cycles=pad)).outputs_match()
    assert {pad for pad, __ in units} == {2, 9}
    assert len({id(unit) for __, unit in units}) == 2
    for pad, unit in units:
        calls = [(pc, instr) for pc, instr in enumerate(unit.code)
                 if instr.op is IROp.CALL]
        assert calls
        for pc, instr in calls:
            assert unit._tls_costs[pc] == pad + len(instr.args or ())
