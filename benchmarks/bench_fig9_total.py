"""Paper Figure 9 — total program speedup including compilation, garbage
collection, profiling and recompilation overheads."""

from repro.workloads import FLOATING, INTEGER, MULTIMEDIA, by_category

from harness import baseline_reports, geomean, write_result


def test_fig9_total_program_speedup():
    reports = baseline_reports()
    rows = ["Figure 9 - total program speedup with overheads",
            "%-14s %8s %8s   %s"
            % ("benchmark", "tls", "total",
               "phase split (app/gc/compile/profile/recompile %)")]
    for category in (INTEGER, FLOATING, MULTIMEDIA):
        rows.append("-- %s --" % category)
        for workload in by_category(category):
            report = reports[workload.name]
            phases = report.phase_cycles()
            total = sum(phases.values()) or 1.0
            split = "/".join("%.0f" % (100.0 * phases[k] / total)
                             for k in ("application", "gc", "compile",
                                       "profiling", "recompile"))
            rows.append("%-14s %7.2fx %7.2fx   %s"
                        % (workload.name, report.tls_speedup,
                           report.total_speedup, split))
    write_result("fig9_total_speedup", rows)


def test_fig9_overheads_are_small():
    """Paper §6.2: 'overheads for profiling and dynamic recompilation
    [are] small, even for the shorter running benchmarks'."""
    reports = baseline_reports()
    ratios = [(name, report.total_speedup / report.tls_speedup)
              for name, report in reports.items() if report.plans]
    worst = min(ratios, key=lambda x: x[1])
    mean = geomean([r for __, r in ratios])
    rows = ["total/tls speedup retention (1.0 = overhead-free)",
            "geomean retention: %.2f   worst: %.2f (%s)"
            % (mean, worst[1], worst[0])]
    # With the profiling target scaled to the ~100x-shorter data
    # sets, overheads must stay modest (paper: 'small, even for the
    # shorter running benchmarks').
    assert mean > 0.70
    write_result("fig9_overhead_retention", rows)
