"""Report-level metric folds: TLS / engine counters into the registry.

The speculative core (``tls/runtime`` + ``engine``) is the hottest code
in the tree — per-event registry mutation there would be a measurable
tax on the very numbers being measured.  Everything interesting is
already accounted losslessly in the :class:`JrpmReport` this layer
produces (``breakdown``, ``stl_run_stats``, ``trace_aggregates``), so
the fold happens once per finished run: :func:`observe_report_dict`
walks a serialized report and increments the TLS counters
(commits/violations/restarts/squashes/overflow stalls), buffer
high-water-mark gauges, per-phase simulated instruction/cycle
counters, and the per-engine simulated-insn/s throughput gauge.

Both the daemon (on every served ``run``/``run_adaptive`` report) and
the in-process :class:`~repro.service.client.LocalSession` call this,
so the ``metrics`` verb and the ``/metrics`` endpoint show the same
families either way.
"""

from .registry import get_registry


def observe_report_dict(report_dict, wall_seconds=None, registry=None):
    """Fold one serialized :class:`JrpmReport` into *registry*.

    *wall_seconds*, when given, is the wall-clock duration of the run
    that produced the report; combined with the report's simulated
    instruction counts it updates the per-engine
    ``jrpm_run_simulated_insn_per_sec`` throughput gauge.
    """
    if not report_dict:
        return
    registry = registry or get_registry()
    config = report_dict.get("config") or {}
    engine = config.get("engine", "fast")

    runs = registry.counter(
        "jrpm_runs", "Pipeline runs folded into this registry",
        labels=("provenance",))
    runs.labels(
        provenance=report_dict.get("profile_provenance") or "cold").inc()

    insns = registry.counter(
        "jrpm_run_simulated_instructions",
        "Simulated guest instructions executed, by pipeline phase",
        labels=("phase",))
    cycles = registry.counter(
        "jrpm_run_simulated_cycles",
        "Simulated guest cycles charged, by pipeline phase",
        labels=("phase",))
    total_insns = 0
    for phase in ("sequential", "profiling", "tls"):
        measurement = report_dict.get(phase)
        if not measurement:
            continue
        insns.labels(phase=phase).inc(measurement["instructions"])
        cycles.labels(phase=phase).inc(measurement["cycles"])
        total_insns += measurement["instructions"]
    if wall_seconds and total_insns:
        registry.gauge(
            "jrpm_run_simulated_insn_per_sec",
            "Simulated instructions per wall second, by engine",
            labels=("engine",)).labels(engine=engine).set(
                total_insns / wall_seconds)

    breakdown = report_dict.get("breakdown")
    if breakdown:
        tls = registry.counter(
            "jrpm_tls_threads", "Speculative thread outcomes",
            labels=("outcome",))
        tls.labels(outcome="committed").inc(breakdown.get("commits", 0))
        tls.labels(outcome="violated").inc(
            breakdown.get("violations", 0))
        tls.labels(outcome="squashed").inc(breakdown.get("squashes", 0))
        registry.counter(
            "jrpm_tls_overflow_stalls",
            "Speculative buffer overflow stalls").inc(
                breakdown.get("overflow_stalls", 0))

    restarts = 0
    load_hwm = 0
    store_hwm = 0
    for stats in (report_dict.get("stl_run_stats") or {}).values():
        restarts += stats.get("restarts", 0)
        load_hwm = max(load_hwm, stats.get("max_load_lines", 0))
        store_hwm = max(store_hwm, stats.get("max_store_lines", 0))
    if restarts:
        registry.counter(
            "jrpm_tls_restarts",
            "Discarded speculative thread attempts").inc(restarts)
    if load_hwm or store_hwm:
        hwm = registry.gauge(
            "jrpm_tls_buffer_lines_hwm",
            "Speculative buffer high-water mark (cache lines)",
            labels=("buffer",))
        hwm_load = hwm.labels(buffer="load")
        hwm_load.set(max(hwm_load.value, load_hwm))
        hwm_store = hwm.labels(buffer="store")
        hwm_store.set(max(hwm_store.value, store_hwm))

    aggregates = report_dict.get("trace_aggregates")
    if aggregates:
        registry.counter(
            "jrpm_trace_events_recorded",
            "Trace events captured in rings").inc(
                aggregates.get("events_recorded", 0))
        registry.counter(
            "jrpm_trace_events_dropped",
            "Trace events dropped on ring overflow").inc(
                aggregates.get("events_dropped", 0))


def observe_report(report, wall_seconds=None, registry=None):
    """Fold a live :class:`JrpmReport` (convenience over the dict)."""
    observe_report_dict(report.to_dict(), wall_seconds=wall_seconds,
                        registry=registry)
