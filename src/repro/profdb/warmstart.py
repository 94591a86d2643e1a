"""Warm-start execution from a stored profile record.

A cold run pays three sequential executions (plain baseline, annotated
TEST run, speculative TLS run); a warm start pays only the last.  The
simulator is fully deterministic — same source, args and options always
produce the same cycle counts, loop ids and TEST statistics — so when
the profile DB holds a record for the exact (program, args, options)
input, the stored baseline/TEST measurements and per-loop statistics
*are* what profiling would re-derive, and the pipeline can skip
straight to selection.

The rejoin step is deliberately paranoid: every stored loop must match
the freshly annotated loop table on loop id, method, ordinal and line,
or the whole warm start is abandoned in favour of a cold run.  Warm
runs write back only usage counters and speculative-buffer high-water
marks (:meth:`~repro.profdb.db.ProfileDb.record_warm`), never
statistics, so a warm run can never perturb the record it was derived
from — warm run N+1 equals warm run 1 equals cold.
"""

from ..tracer.stats import LoopStats
from .records import PROVENANCE_WARM, site_key, split_site_key

#: ``warm_start`` values: ``auto`` warm-starts whenever the DB holds a
#: record for the exact input; ``off`` always profiles (and records).
WARM_STARTS = ("auto", "off")


def check_warm_start(warm_start):
    """Raise ``ValueError`` unless *warm_start* is one of
    :data:`WARM_STARTS`."""
    if warm_start not in WARM_STARTS:
        raise ValueError("unknown warm_start %r (known: %s)"
                         % (warm_start, ", ".join(WARM_STARTS)))


class StoredProfiler:
    """A :class:`~repro.tracer.profiler.TestProfiler` stand-in rebuilt
    from stored statistics — exposes exactly the three
    attributes ``Jrpm.assemble_report`` reads off a profiler."""

    def __init__(self, stats, dynamic_nesting, max_dynamic_depth):
        #: {loop_id: LoopStats} reconstructed in discovery order
        self.stats = stats
        #: set of (outer_id, inner_id) dynamic nesting pairs
        self.dynamic_nesting = dynamic_nesting
        self.max_dynamic_depth = max_dynamic_depth


def rejoin_stats(entry, loop_table):
    """Rebind a stored :class:`~repro.profdb.records.InputProfile` to a
    freshly annotated loop table.

    Returns ``(stats, dynamic_nesting, max_dynamic_depth)`` with
    ``stats`` as ``{loop_id: LoopStats}`` in the stored discovery order
    (the selector breaks benefit ties by dict insertion order, so order
    fidelity is part of plan equivalence) — or ``None`` if any stored
    loop fails to match its fresh counterpart exactly.
    """
    stats = {}
    for key, loop in entry.loops.items():
        meta = loop_table.get(loop.loop_id)
        if meta is None:
            return None
        method_name, ordinal = split_site_key(key)
        if (meta.method_name != method_name or meta.ordinal != ordinal
                or meta.line != loop.line):
            return None
        stats[loop.loop_id] = LoopStats.from_dict(loop.stats)
    nesting = {tuple(pair) for pair in entry.nesting}
    return stats, nesting, entry.max_dynamic_depth


def warm_report(jrpm, program, name, args):
    """Attempt a warm-started pipeline run; ``None`` means run cold.

    Skips the baseline and TEST executions by replaying the stored
    measurements, feeds the stored statistics into the live selector
    (with adapt write-back applied: decommitted sites are banned,
    escalated sites get forced synchronization), then executes TLS for
    real and assembles a normal :class:`~repro.core.pipeline.JrpmReport`
    with ``profile_provenance == "warm"``.
    """
    from ..core.pipeline import (BaselineArtifact, ProfileArtifact,
                                 RunMeasurement)
    db = jrpm.profdb
    input_key = db.input_key(program, args, jrpm.config, jrpm.stl_options,
                             jrpm.vm_options)
    entry = db.warm_entry(program, name, input_key)
    if entry is None:
        return None
    annotated = jrpm.annotate(program)
    joined = rejoin_stats(entry, annotated.loop_table)
    if joined is None:
        return None
    stats, nesting, max_depth = joined
    selector = jrpm.make_selector(annotated.loop_table)
    banned = tuple(loop.loop_id for loop in entry.loops.values()
                   if loop.decommits > 0)
    plans = selector.select(stats, nesting, banned=banned)
    for loop_id, plan in plans.items():
        meta = annotated.loop_table[loop_id]
        stored = entry.loops.get(site_key(meta.method_name, meta.ordinal))
        if stored is not None and stored.escalations > 0 \
                and plan.sync is None:
            sync = selector.synthesize_sync(stats[loop_id],
                                            plan.prediction, force=True)
            if sync is not None:
                plan.sync = sync
                plan.sync_escalated = True
    recompiled = jrpm.recompile(program, plans)
    sequential = RunMeasurement.from_dict(entry.sequential)
    baseline = BaselineArtifact(compiled=None, measurement=sequential,
                                compile_cycles=entry.compile_cycles)
    profile_artifact = ProfileArtifact(
        annotated=annotated,
        profiler=StoredProfiler(stats, nesting, max_depth),
        measurement=RunMeasurement.from_dict(entry.profiling),
        annotations=entry.annotations)
    tls_artifact = jrpm.execute_tls(recompiled, plans, args,
                                    fallback=sequential)
    report = jrpm.assemble_report(name, baseline, profile_artifact,
                                  plans, tls_artifact)
    report.profile_provenance = PROVENANCE_WARM
    db.record_warm(program, report, input_key)
    if jrpm.trace is not None:
        jrpm.trace.profdb(0.0, "warm", name)
    return report
