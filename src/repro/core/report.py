"""Human-readable rendering of a :class:`JrpmReport`."""

from ..workloads.registry import CATEGORY_SPEEDUP_BANDS


def format_report(report, verbose=False):
    """Render one pipeline report as text (used by the CLI/examples)."""
    lines = []
    out = lines.append
    out("=== Jrpm report: %s ===" % report.name)
    out("")
    out("sequential run:      %12.0f cycles   (%d instructions)"
        % (report.sequential.cycles, report.sequential.instructions))
    out("profiled run:        %12.0f cycles   (TEST slowdown %+.1f%%)"
        % (report.profiling.cycles,
           (report.profiling_slowdown - 1.0) * 100.0))
    out("speculative run:     %12.0f cycles" % report.tls.cycles)
    out("")
    out("prospective STLs:    %6d loops" % len(report.loop_table))
    out("selected STLs:       %6d" % len(report.plans))
    out("predicted speedup:   %8.2fx" % report.predicted_speedup)
    out("actual TLS speedup:  %8.2fx on %d CPUs"
        % (report.tls_speedup, report.config.num_cpus))
    if verbose or report.profile_provenance != "cold":
        out("profile provenance:  %8s%s"
            % (report.profile_provenance,
               "   (TEST statistics replayed from the profile DB)"
               if report.profile_provenance == "warm" else ""))
    out("total speedup:       %8.2fx (compile + profile + recompile + GC)"
        % report.total_speedup)
    out("outputs match:       %8s" % report.outputs_match())
    breakdown = report.breakdown
    out("")
    out("speculative execution: %d commits, %d violations, %d squashes, "
        "%d overflow stalls, %d lock waits"
        % (breakdown.commits, breakdown.violations, breakdown.squashes,
           breakdown.overflow_stalls, breakdown.lock_waits))
    fractions = breakdown.fractions()
    out("state breakdown:     " + "  ".join(
        "%s %.1f%%" % (name, fractions[key] * 100.0)
        for key, name in (("serial", "serial"), ("run_used", "run-used"),
                          ("wait_used", "wait-used"),
                          ("overhead", "overhead"),
                          ("run_violated", "run-vio"),
                          ("wait_violated", "wait-vio"))))
    if verbose and report.plans:
        out("")
        out("selected decompositions:")
        for plan in sorted(report.plans.values(),
                           key=lambda p: -p.prediction.coverage_cycles):
            meta = plan.meta
            extras = []
            if plan.sync:
                extras.append("sync lock")
            if plan.multilevel_inner:
                extras.append("multilevel inner of loop %d"
                              % plan.multilevel_parent)
            if plan.hoist:
                extras.append("hoisted handlers")
            out("  loop %d  %s line %s  depth %d  predicted %.2fx%s"
                % (plan.loop_id, meta.method_name, meta.line, meta.depth,
                   plan.prediction.speedup,
                   ("  [%s]" % ", ".join(extras)) if extras else ""))
            kinds = ", ".join(
                "r%d=%s" % (reg, info.kind)
                for reg, info in sorted(meta.carried_kinds.items()))
            if kinds:
                out("      carried locals: %s" % kinds)
    if verbose and report.stl_run_stats:
        out("")
        out("speculative run (per STL):")
        out("  %-5s %7s %8s %9s %8s %9s %11s" % (
            "loop", "entries", "threads", "avg cyc", "restarts",
            "hwm load", "hwm store"))
        load_limit = report.config.load_buffer_lines
        store_limit = report.config.store_buffer_lines
        for loop_id in sorted(report.stl_run_stats):
            stats = report.stl_run_stats[loop_id]
            load_mark = "%d/%d%s" % (stats.max_load_lines, load_limit,
                                     "!" if stats.max_load_lines
                                     > load_limit else "")
            store_mark = "%d/%d%s" % (stats.max_store_lines, store_limit,
                                      "!" if stats.max_store_lines
                                      > store_limit else "")
            out("  %-5d %7d %8d %9.1f %8d %9s %11s"
                % (loop_id, stats.entries, stats.threads_committed,
                   stats.avg_thread_cycles, stats.restarts,
                   load_mark, store_mark))
        out("  (hwm = speculative-buffer high-water mark in cache "
            "lines, vs the hardware limit; '!' = overflowed)")
    adaptation = getattr(report, "adaptation", None)
    if adaptation is not None:
        out("")
        for line in adaptation.summary_lines(verbose=verbose):
            out(line)
    trace_aggregates = getattr(report, "trace_aggregates", None)
    if verbose and trace_aggregates is not None:
        out("")
        for line in trace_aggregates.summary_lines():
            out(line)
    if verbose and report.loop_stats:
        out("")
        out("TEST profile (per prospective STL):")
        out("  %-5s %-6s %8s %9s %8s %7s" % (
            "loop", "line", "threads", "avg cyc", "arcfreq", "ovf"))
        for loop_id in sorted(report.loop_stats):
            stats = report.loop_stats[loop_id]
            meta = report.loop_table.get(loop_id)
            out("  %-5d %-6s %8d %9.1f %8.2f %7.2f"
                % (loop_id, meta.line if meta else "?", stats.threads,
                   stats.avg_thread_cycles, stats.arc_frequency,
                   stats.overflow_frequency))
    return "\n".join(lines)


def format_analysis(analysis, verbose=False):
    """Render an :class:`~repro.analysis.AnalysisReport` as a per-loop
    table: lattice classification, carried-local kinds, predicted arcs
    and (when a TEST profile was cross-checked) profiler agreement."""
    lines = []
    out = lines.append
    counts = analysis.counts()
    out("static dependence analysis (%d methods, %d loops; "
        "absent %d / may %d / must %d; %d pruned, threshold %.2fx):"
        % (analysis.methods_analyzed, len(analysis.loops),
           counts["absent"], counts["may"], counts["must"],
           len(analysis.pruned()), analysis.threshold))
    out("  %-24s %-6s %-7s %-8s %-18s %s" % (
        "loop", "line", "class", "bound", "agreement", "notes"))
    for loop in analysis.loops:
        label = "%s#%d" % (loop.method, loop.ordinal)
        bound = ("%.2fx" % loop.speedup_bound
                 if loop.speedup_bound is not None else "-")
        agreement = loop.agreement
        if agreement is None:
            agree_text = "-"
        else:
            benign = (len(agreement.get("allocator", ()))
                      + len(agreement.get("privatized", ())))
            agree_text = "+%d/?%d/~%d/!%d" % (
                len(agreement["confirmed"]),
                len(agreement["unobserved"]), benign,
                len(agreement["missed"]))
        notes = []
        if loop.pruned:
            notes.append("PRUNED")
        if loop.has_calls:
            notes.append("calls")
        kinds = {}
        for reg in loop.carried:
            kinds[reg.kind] = kinds.get(reg.kind, 0) + 1
        notes.extend("%d %s" % (count, kind)
                     for kind, count in sorted(kinds.items()))
        out("  %-24s %-6s %-7s %-8s %-18s %s" % (
            label, loop.line, loop.classification, bound, agree_text,
            ", ".join(notes)))
        if verbose:
            for dep in loop.deps:
                distance = ("d=%s" % dep.distance
                            if dep.distance is not None else "")
                out("      %-6s %-7s %-14s line %s->%s %-5s %s" % (
                    dep.kind, dep.classification, dep.target,
                    dep.store_line, dep.load_line, distance,
                    dep.reason))
    if any(loop.agreement is not None for loop in analysis.loops):
        out("  (agreement: +confirmed / ?predicted-but-unobserved "
            "(TEST records only critical arcs) /")
        out("   ~benign-observed (allocator metadata or privatized "
            "locals) / !observed-but-missed)")
    return "\n".join(lines)


def format_suite_summary(reports):
    """Summarize a {name: report} sweep by paper category."""
    from ..workloads import lookup
    lines = []
    by_category = {}
    for name, report in reports.items():
        try:
            category = lookup(name).category
        except KeyError:
            category = "other"
        by_category.setdefault(category, []).append((name, report))
    for category, entries in by_category.items():
        lines.append("-- %s --" % category)
        speedups = []
        for name, report in sorted(entries):
            lines.append("  %-14s %6.2fx  (predicted %5.2fx, "
                         "profiling %+5.1f%%)"
                         % (name, report.tls_speedup,
                            report.predicted_speedup,
                            (report.profiling_slowdown - 1) * 100))
            speedups.append(report.tls_speedup)
        product = 1.0
        for s in speedups:
            product *= s
        geomean = product ** (1.0 / len(speedups)) if speedups else 0.0
        band = CATEGORY_SPEEDUP_BANDS.get(category)
        band_text = ("   paper band %.1f-%.1fx" % band) if band else ""
        lines.append("  geomean: %.2fx%s" % (geomean, band_text))
    return "\n".join(lines)
