"""Unit tests for the JrpmReport derived metrics (the Fig. 8/9 models)."""

from repro.core.pipeline import JrpmReport, RunMeasurement
from repro.hydra.config import HydraConfig
from repro.tls.stats import TlsStateBreakdown
from repro.tracer.selector import Prediction, StlPlan
from repro.jit.annotate import LoopMeta
from repro.tracer.stats import LoopStats


def make_report(seq=100000.0, prof=110000.0, tls=30000.0, plans=True,
                threads=2000, target=100):
    report = JrpmReport("unit")
    report.config = HydraConfig(profile_iteration_target=target)
    report.sequential = RunMeasurement(cycles=seq, output=[1])
    report.profiling = RunMeasurement(cycles=prof, output=[1])
    report.tls = RunMeasurement(cycles=tls, output=[1])
    report.compile_cycles = 1000
    report.recompile_cycles = 500
    report.breakdown = TlsStateBreakdown()
    if plans:
        meta = LoopMeta(1, "Main.main", 0, 1, 20, {}, True, None, 1)
        stats = LoopStats(1)
        stats.threads = threads
        stats.profiled_entries = 1
        stats.total_thread_cycles = seq * 0.9
        prediction = Prediction(1, 3.0, 10.0, int(seq * 0.9), 50.0,
                                threads, 0.0, 0.0)
        report.plans = {1: StlPlan(1, meta, prediction)}
        report.loop_table = {1: meta}
        report.loop_stats = {1: stats}
    return report


def test_speedups():
    report = make_report()
    assert abs(report.tls_speedup - 100000.0 / 30000.0) < 1e-9
    assert abs(report.profiling_slowdown - 1.1) < 1e-9


def test_profile_fraction_scales_with_threads():
    assert make_report(threads=100).profile_fraction == 1.0
    assert abs(make_report(threads=1000).profile_fraction - 0.1) < 1e-9
    assert make_report(threads=50).profile_fraction == 1.0


def test_profile_fraction_sums_across_loops():
    report = make_report(threads=60)
    extra = LoopStats(2)
    extra.threads = 540
    report.loop_stats[2] = extra
    assert abs(report.profile_fraction - 100.0 / 600.0) < 1e-9


def test_total_cycles_blends_phases():
    report = make_report(threads=1000)     # fraction = 0.1
    expected = (1000                        # compile
                + 0.1 * 110000.0            # profiled slice
                + 500                       # recompile
                + 0.9 * 30000.0)            # speculative remainder
    assert abs(report.total_cycles_with_overheads - expected) < 1e-6
    assert report.total_speedup < report.tls_speedup


def test_no_plans_means_fully_profiled_run():
    report = make_report(plans=False)
    assert report.profile_fraction == 1.0
    assert report.total_cycles_with_overheads == 1000 + 110000.0


def test_phase_cycles_partition():
    report = make_report(threads=1000)
    phases = report.phase_cycles()
    assert abs(sum(phases.values()) - report.total_cycles_with_overheads) \
        < 1.0
    assert phases["compile"] == 1000
    assert phases["recompile"] == 500


def test_outputs_match_exact_ints():
    report = make_report()
    report.sequential.output = [1, 2, 3]
    report.tls.output = [1, 2, 3]
    assert report.outputs_match()
    report.tls.output = [1, 2, 4]
    assert not report.outputs_match()


def test_outputs_match_float_tolerance():
    report = make_report()
    report.sequential.output = [1.0000000, 5]
    report.tls.output = [1.0000000001, 5]
    assert report.outputs_match()
    report.tls.output = [1.01, 5]
    assert not report.outputs_match()


def test_outputs_match_length_mismatch():
    report = make_report()
    report.sequential.output = [1]
    report.tls.output = [1, 2]
    assert not report.outputs_match()


def test_breakdown_fractions_sum_to_one():
    breakdown = TlsStateBreakdown()
    breakdown.serial = 10
    breakdown.run_used = 70
    breakdown.wait_used = 5
    breakdown.overhead = 10
    breakdown.run_violated = 4
    breakdown.wait_violated = 1
    fractions = breakdown.fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-12
    assert breakdown.total == 100


def test_breakdown_add():
    a = TlsStateBreakdown()
    a.run_used = 10
    a.commits = 2
    b = TlsStateBreakdown()
    b.run_used = 5
    b.violations = 1
    a.add(b)
    assert a.run_used == 15
    assert a.commits == 2 and a.violations == 1


def test_report_writes_null_analysis_through_round_trip():
    """No run carries a static analysis; the report keeps its
    ``analysis`` slot, null, so report bytes do not move."""
    from repro.core.pipeline import Jrpm
    from repro.minijava import compile_source
    from repro.workloads import lookup
    program = compile_source(lookup("BitOps").source("small"))
    report = Jrpm().run(program, name="BitOps")
    assert report.outputs_match()
    data = report.to_dict()
    assert data["analysis"] is None
    assert JrpmReport.from_dict(data).to_dict() == data
