"""Paper Table 4 — manual transformations that expose parallelism the
compiler cannot find, with difficulty and automation assessments.

For each of the six integer benchmarks, runs the pipeline on the
as-written program and on the manually-transformed variant and reports
the TLS speedup of each (the paper's Table 3 column (u) effect).
"""

from repro.workloads import all_workloads

from harness import run_workload, write_result

MANUAL = [w for w in all_workloads() if w.has_manual_variant]


def test_table4_manual_transformations():
    rows = ["Table 4 - manual transformations",
            "%-14s %5s %5s %6s %8s %8s %7s"
            % ("benchmark", "diff", "auto?", "lines", "base", "manual",
               "gain")]
    improvements = {}
    for workload in MANUAL:
        base = run_workload(workload.name)
        manual = run_workload(workload.name, variant="manual")
        notes = workload.manual_notes
        gain = manual.tls_speedup / max(base.tls_speedup, 1e-9)
        improvements[workload.name] = gain
        rows.append("%-14s %5s %5s %6d %7.2fx %7.2fx %+6.0f%%"
                    % (workload.name, notes["difficulty"],
                       "Y" if notes["compiler_optimizable"] else "N",
                       notes["lines"], base.tls_speedup,
                       manual.tls_speedup, (gain - 1) * 100))
        rows.append("    %s" % notes["operation"])
    # Shape: the transformations significantly improve performance on
    # the benchmarks whose parallelism the compiler cannot expose
    # (Huffman's sub-word streams, compress's dictionary, the MIPS
    # interpreter state).  Where this reproduction's *automatic*
    # machinery already handles the dependency (db and monteCarlo get a
    # thread synchronizing lock; NumHeapSort's extract loop pipelines
    # under cheap early violations), the manual variant no longer wins
    # — see EXPERIMENTS.md for the discussion of this deviation.
    helped = sum(1 for gain in improvements.values() if gain > 1.10)
    assert helped >= 3, improvements
    # And they never destroy performance outright.
    assert all(gain > 0.45 for gain in improvements.values()), improvements
    write_result("table4_manual", rows)


def test_table4_manual_variants_do_not_slow_sequential():
    """Paper: the transformations 'do not slowdown the original
    sequential execution' (within a modest tolerance)."""
    rows = ["manual variant sequential cost (vs as-written)"]
    worst = 0.0
    for workload in MANUAL:
        base = run_workload(workload.name)
        manual = run_workload(workload.name, variant="manual")
        ratio = manual.sequential.cycles / base.sequential.cycles
        worst = max(worst, ratio)
        rows.append("  %-14s sequential x%.2f" % (workload.name, ratio))
    assert worst < 2.0
    write_result("table4_sequential_cost", rows)
