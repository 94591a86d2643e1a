"""Paper Figure 8 — per-benchmark normalized execution time: slowdown
during profiling, TEST-predicted TLS time, and actual TLS time (4 CPUs),
plus the §1/§6 headline category speedup bands.
"""

from repro.workloads import (CATEGORY_SPEEDUP_BANDS, FLOATING, INTEGER,
                             MULTIMEDIA, by_category)

from harness import baseline_reports, geomean, write_result


def test_fig8_normalized_execution():
    reports = baseline_reports()
    rows = ["Figure 8 - normalized execution time "
            "(1.0 = sequential; lower is faster)",
            "%-14s %10s %10s %8s %8s"
            % ("benchmark", "profiling", "predicted", "actual", "speedup")]
    for category in (INTEGER, FLOATING, MULTIMEDIA):
        rows.append("-- %s --" % category)
        for workload in by_category(category):
            report = reports[workload.name]
            predicted_norm = (report.predicted_tls_cycles
                              / report.sequential.cycles)
            actual_norm = report.tls.cycles / report.sequential.cycles
            rows.append("%-14s %10.3f %10.3f %8.3f %8.2fx"
                        % (workload.name, report.profiling_slowdown,
                           predicted_norm, actual_norm,
                           report.tls_speedup))
    write_result("fig8_speedups", rows)


def test_fig8_profiling_slowdown_band():
    reports = baseline_reports()
    slowdowns = {name: r.profiling_slowdown for name, r in reports.items()}
    average = sum(slowdowns.values()) / len(slowdowns)
    worst = max(slowdowns.values())
    rows = ["Profiling slowdown (paper: avg 7.8%, worst ~25%)",
            "measured: avg %.1f%%  worst %.1f%% (%s)"
            % ((average - 1) * 100, (worst - 1) * 100,
               max(slowdowns, key=slowdowns.get))]
    # Shape: profiling is cheap — the whole point of TEST hardware.
    assert average < 1.5
    assert worst < 2.0
    write_result("fig8_profiling_band", rows)


def test_fig8_category_speedup_bands():
    reports = baseline_reports()
    rows = ["Headline speedup bands on 4 CPUs "
            "(paper: FP 3-4x, MM 2-3x, INT 1.5-2.5x)"]
    means = {}
    for category in (INTEGER, FLOATING, MULTIMEDIA):
        speedups = [reports[w.name].tls_speedup
                    for w in by_category(category)]
        means[category] = geomean(speedups)
        low, high = CATEGORY_SPEEDUP_BANDS[category]
        rows.append("%-16s geomean %.2fx  (paper band %.1f-%.1fx; "
                    "min %.2fx max %.2fx)"
                    % (category, means[category], low, high,
                       min(speedups), max(speedups)))
    # Shape checks: ordering of categories matches the paper.
    assert means[FLOATING] > means[INTEGER]
    assert means[FLOATING] > 2.3
    assert means[MULTIMEDIA] > 1.8
    assert 1.2 < means[INTEGER]
    write_result("fig8_category_bands", rows)


def test_fig8_prediction_tracks_actual():
    reports = baseline_reports()
    optimistic = 0
    close = 0
    for name, report in reports.items():
        if not report.plans:
            continue
        ratio = report.predicted_speedup / max(report.tls_speedup, 1e-9)
        if ratio >= 1.0:
            optimistic += 1
        if 0.5 < ratio < 2.5:
            close += 1
    total = sum(1 for r in reports.values() if r.plans)
    rows = ["TEST prediction vs actual (paper: predictions are "
            "optimistic; violations are not modeled)",
            "predictions within 0.5x-2.5x of actual: %d/%d" % (close, total),
            "predictions >= actual (optimistic): %d/%d"
            % (optimistic, total)]
    assert close >= total * 0.8
    # Predictions skew optimistic, as §6.2 reports.
    assert optimistic >= total * 0.5
    write_result("fig8_prediction_quality", rows)
