"""Paper Figure 10 — breakdown of speculative execution by time spent in
each state: serial / run-used / wait-used / overhead / run-violated /
wait-violated."""

from repro.workloads import FLOATING, INTEGER, MULTIMEDIA, by_category

from harness import baseline_reports, write_result

_COLUMNS = ("serial", "run_used", "wait_used", "overhead",
            "run_violated", "wait_violated")


def test_fig10_state_breakdown():
    reports = baseline_reports()
    rows = ["Figure 10 - speculative execution state breakdown (%)",
            "%-14s %7s %8s %9s %9s %8s %8s"
            % ("benchmark", "serial", "run-used", "wait-used",
               "overhead", "run-vio", "wait-vio")]
    for category in (INTEGER, FLOATING, MULTIMEDIA):
        rows.append("-- %s --" % category)
        for workload in by_category(category):
            fractions = reports[workload.name].breakdown.fractions()
            rows.append("%-14s %6.1f%% %7.1f%% %8.1f%% %8.1f%% "
                        "%7.1f%% %7.1f%%"
                        % ((workload.name,)
                           + tuple(100 * fractions[c] for c in _COLUMNS)))
    write_result("fig10_breakdown", rows)


def test_fig10_shape_checks():
    """The qualitative observations of §6.2 must hold."""
    reports = baseline_reports()
    fr = {name: r.breakdown.fractions() for name, r in reports.items()}

    # Violating integer benchmarks show discarded work; clean FP
    # benchmarks are dominated by run-used.
    violated = [n for n, f in fr.items()
                if f["run_violated"] + f["wait_violated"] > 0.10]
    clean_fp = [w.name for w in by_category(FLOATING)
                if fr[w.name]["run_used"] > 0.5]
    rows = ["benchmarks with >10%% discarded (violated) work: %s"
            % ", ".join(sorted(violated)),
            "floating-point benchmarks dominated by run-used: %s"
            % ", ".join(sorted(clean_fp))]

    # Paper: compress & Huffman have significant violated state.
    assert (fr["Huffman"]["run_violated"]
            + fr["Huffman"]["wait_violated"]) > 0.05
    # Paper: FP codes are dominated by useful work.
    assert len(clean_fp) >= 4
    # Every run's fractions sum to one.
    for name, fractions in fr.items():
        assert abs(sum(fractions.values()) - 1.0) < 1e-9, name
    # db / mp3 / jess carry real serial fractions (paper column i).
    serial_heavy = [n for n, f in fr.items() if f["serial"] > 0.02]
    rows.append("benchmarks with visible serial sections: %s"
                % ", ".join(sorted(serial_heavy)))
    write_result("fig10_shape", rows)
