"""Paper Table 1 — thread-level speculation overheads (cycles/operation)
and the Figure 2 memory-hierarchy constants.

Regenerates the New/Old handler-cost rows and verifies that the measured
per-entry / per-iteration overhead of an STL with a near-empty body
matches the configured handler costs.
"""

from repro.hydra.config import HydraConfig, SpeculationOverheads
from repro.minijava import compile_source
from repro.core.pipeline import Jrpm

from harness import write_result

EMPTY_BODY_LOOP = """
class Main {
    static int main() {
        int[] sink = new int[8];
        int t = 0;
        for (int i = 0; i < 2000; i++) {
            t += i & 1;
        }
        sink[0] = t;
        Sys.printInt(t);
        return t;
    }
}
"""


def _measure_overheads(overheads):
    config = HydraConfig(overheads=overheads)
    report = Jrpm(config=config).run(compile_source(EMPTY_BODY_LOOP))
    assert report.outputs_match()
    breakdown = report.breakdown
    commits = max(breakdown.commits, 1)
    return report, breakdown.overhead / commits


def test_table1_handler_overheads():
    new = SpeculationOverheads.new_handlers()
    old = SpeculationOverheads.old_handlers()
    rows = ["Table 1 - TLS overheads (cycles)",
            "%-16s %6s %6s" % ("operation", "New", "Old")]
    for field, label in [("startup", "STL_STARTUP"),
                         ("shutdown", "STL_SHUTDOWN"),
                         ("eoi", "STL_EOI"),
                         ("restart", "STL_RESTART")]:
        rows.append("%-16s %6d %6d"
                    % (label, getattr(new, field), getattr(old, field)))

    report_new, per_commit_new = _measure_overheads(new)
    report_old, per_commit_old = _measure_overheads(old)
    rows.append("")
    rows.append("measured overhead cycles per committed thread "
                "(empty-body STL):")
    rows.append("  new handlers: %.1f   old handlers: %.1f"
                % (per_commit_new, per_commit_old))
    rows.append("  TLS time new/old: %.0f / %.0f cycles"
                % (report_new.tls.cycles, report_old.tls.cycles))
    # Shape check: old handlers must cost visibly more.
    assert per_commit_old > per_commit_new
    assert report_old.tls.cycles > report_new.tls.cycles
    # EOI dominates the per-commit overhead for a tight loop.
    assert per_commit_new >= new.eoi
    write_result("table1_overheads", rows)


def test_fig2_hardware_constants():
    config = HydraConfig()
    rows = ["Figure 2 - Hydra memory hierarchy",
            "%-28s %10s" % ("parameter", "value"),
            "%-28s %10d" % ("CPUs", config.num_cpus),
            "%-28s %9dB" % ("L1 data cache", config.l1_size_bytes),
            "%-28s %10d" % ("L1 associativity", config.l1_assoc),
            "%-28s %9dB" % ("L2 cache", config.l2_size_bytes),
            "%-28s %10d" % ("cache line bytes", config.line_bytes),
            "%-28s %10d" % ("L2 latency (cycles)", config.l2_hit_cycles),
            "%-28s %10d" % ("interprocessor (cycles)",
                            config.interprocessor_cycles),
            "%-28s %10d" % ("main memory (cycles)", config.memory_cycles),
            "%-28s %10d" % ("load buffer (lines/thread)",
                            config.load_buffer_lines),
            "%-28s %10d" % ("store buffer (lines/thread)",
                            config.store_buffer_lines)]
    # Paper figure 2 values.
    assert config.load_buffer_lines * config.line_bytes == 16 * 1024
    assert config.store_buffer_lines * config.line_bytes == 2 * 1024
    assert (config.l2_hit_cycles, config.interprocessor_cycles,
            config.memory_cycles) == (5, 10, 50)
    write_result("fig2_hardware", rows)
