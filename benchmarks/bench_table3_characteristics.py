"""Paper Table 3, columns (a)-(k) — benchmark characteristics and TLS
statistics: loop counts, nesting depth, selected STLs, thread sizes,
threads per STL entry, serial fraction, and speculative buffer usage.

Columns (a) "statically analyzable" and (b) "data-set sensitive" are
not measured: they print the ``analyzable`` and ``data_set_sensitive``
flags set by hand on each workload in ``repro.workloads``, after the
paper's Table 3."""

from repro.workloads import FLOATING, INTEGER, MULTIMEDIA, by_category

from harness import baseline_reports, write_result


def _table3_row(workload, report):
    loop_count = len(report.loop_table)                        # (c)
    max_depth = max(report.max_dynamic_depth,
                    max((m.depth for m in report.loop_table.values()),
                        default=0))                            # (d)
    plans = report.plans
    selected = len(plans)                                      # (e)
    if plans:
        avg_depth = (sum(p.meta.depth for p in plans.values())
                     / len(plans))                             # (f)
    else:
        avg_depth = 0.0
    run_stats = [report.stl_run_stats.get(lid) for lid in plans]
    run_stats = [s for s in run_stats if s is not None and
                 s.threads_committed > 0]
    if run_stats:
        dominant = max(run_stats, key=lambda s: s.cycles_total)
        thread_size = dominant.avg_thread_cycles               # (g)
        threads_entry = dominant.threads_per_entry             # (h)
        load_lines = dominant.avg_load_lines                   # (j)
        store_lines = dominant.avg_store_lines                 # (k)
    else:
        thread_size = threads_entry = load_lines = store_lines = 0.0
    serial = report.serial_fraction                            # (i)
    return (workload.name,
            "Y" if workload.analyzable else "N",
            "Y" if workload.data_set_sensitive else "N",
            loop_count, max_depth, selected, avg_depth,
            thread_size, threads_entry, serial * 100,
            load_lines, store_lines)


def test_table3_characteristics():
    reports = baseline_reports()
    rows = ["Table 3 (a-k) - benchmark characteristics / TLS stats",
            "%-14s %2s %2s %5s %5s %4s %5s %8s %9s %7s %6s %6s"
            % ("benchmark", "a", "b", "loops", "depth", "sel", "avgD",
               "thrSize", "thr/entry", "serial%", "ldLn", "stLn")]
    collected = {}
    for category in (INTEGER, FLOATING, MULTIMEDIA):
        rows.append("-- %s --" % category)
        for workload in by_category(category):
            row = _table3_row(workload, reports[workload.name])
            collected[workload.name] = row
            rows.append("%-14s %2s %2s %5d %5d %4d %5.1f %8.0f %9.1f "
                        "%6.1f%% %6.1f %6.1f" % row)

    # Shape checks against the paper's qualitative observations (§6.1).
    # "larger programs contain significant numbers of loops"
    assert max(row[3] for row in collected.values()) >= 8
    # Fewer than half the benchmarks look statically analyzable (col a).
    analyzable = sum(1 for row in collected.values() if row[1] == "Y")
    assert analyzable < 13
    # Most benchmarks select at least one STL.
    selected = sum(1 for row in collected.values() if row[5] > 0)
    assert selected >= 22
    # Thread sizes are "at least a hundred or more cycles" for most.
    sizable = sum(1 for row in collected.values() if row[7] >= 60)
    assert sizable >= 13
    # mp3/db/jess have visible serial fractions (column i).
    assert collected["db"][9] > 0 or collected["mp3"][9] > 0 \
        or collected["jess"][9] > 0
    write_result("table3_characteristics", rows)


def test_table3_buffer_usage_within_hardware_limits():
    reports = baseline_reports()
    worst_load = worst_store = 0.0
    for report in reports.values():
        for stats in report.stl_run_stats.values():
            if stats.threads_committed:
                worst_load = max(worst_load, stats.avg_load_lines)
                worst_store = max(worst_store, stats.avg_store_lines)
    config = next(iter(reports.values())).config
    rows = ["speculative buffer usage vs hardware limits",
            "worst avg load lines:  %.1f / %d"
            % (worst_load, config.load_buffer_lines),
            "worst avg store lines: %.1f / %d"
            % (worst_store, config.store_buffer_lines)]
    # The selector rejects overflow-prone loops, so committed threads
    # stay within the buffers on average.
    assert worst_load <= config.load_buffer_lines
    assert worst_store <= config.store_buffer_lines
    write_result("table3_buffers", rows)
