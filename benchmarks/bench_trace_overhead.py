"""Trace-subsystem overhead guard.

The observability layer (``repro.trace``) must be effectively free when
disabled and cheap when enabled:

* **disabled** — the only cost is one ``is None`` test per emission
  site, so it has no bound of its own: the guard times a second
  untraced run against the first, and that re-run noise (printed) is
  added to the enabled bound below;
* **enabled**  — events are emitted only on the control path (thread
  commits / restarts / handlers / loop edges), never per memory access,
  so a fully traced run must stay within a small constant factor of the
  untraced baseline.

The bounds come from ISSUE acceptance criteria; the timings use
min-of-N wall-clock samples of the same in-process pipeline run so
interpreter warmup and allocator noise mostly cancel.

The enabled budget is *relative*, so it is recalibrated whenever the
untraced baseline gets faster: the trace layer's absolute per-event
cost is unchanged, but it is divided by a smaller denominator.

* The predecoded dispatch engine (docs/performance.md) cut untraced
  pipeline wall time ~4x; the original 5% bound against the legacy
  engine corresponds to ~20% against the fast one, and 15% kept the
  same absolute-cost guard with margin for timer noise.
* The event-driven TLS scheduler then cut the speculative portion of
  the pipeline a further ~2.2-2.5x, shrinking the baseline again
  (the sequential and profiling runs, which dominate, are
  unchanged).  The same absolute per-event cost now lands around
  15-18% of the smaller baseline on a quiet machine, so the bound is
  20% — still a factor-of-several guard against a per-memory-access
  emission regression (which would show up as 2-3x, not percent),
  while not tripping on scheduler-induced baseline shifts.

The measured run-to-run noise of two untraced runs is added to the
bound at assert time, so transient host load cannot fail the guard
spuriously (nor mask a real regression larger than the noise).

The same file guards the metrics registry (``repro.metrics``): a run
folded into an enabled registry must stay within 5% of the identical
run with ``set_enabled(False)`` — per-run report folding is the only
metrics cost, never per-instruction work.
"""

import time

from repro.core.pipeline import Jrpm
from repro.metrics import (get_registry, observe_report, reset_registry,
                           set_enabled)
from repro.minijava import compile_source
from repro.workloads import lookup

ROUNDS = 3
ENABLED_BUDGET = 1.20       # traced vs untraced (see module docstring)
METRICS_BUDGET = 1.05       # metrics-on vs metrics-off (ISSUE bound)


def _time_run(program, name, trace, rounds=ROUNDS):
    """Minimum wall-clock seconds over *rounds* full pipeline runs."""
    best = None
    report = None
    for _ in range(rounds):
        start = time.perf_counter()
        report = Jrpm(trace=trace).run(program, name=name)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    assert report.outputs_match()
    return best, report


def test_trace_overhead_within_budget():
    program = compile_source(lookup("BitOps").source("small"))
    # Warm the interpreter once before any timed sample.
    Jrpm().run(program, name="warmup")
    base, _ = _time_run(program, "BitOps", trace=False)
    again, _ = _time_run(program, "BitOps", trace=False)
    traced, report = _time_run(program, "BitOps", trace=True)

    noise = again / base
    overhead = traced / base
    aggregates = report.trace_aggregates
    print("trace overhead guard (BitOps small, min of %d)" % ROUNDS)
    print("  untraced:     %.3fs" % base)
    print("  untraced(2):  %.3fs  (%.1f%% vs baseline)"
          % (again, (noise - 1.0) * 100.0))
    print("  traced:       %.3fs  (%.1f%% vs baseline)"
          % (traced, (overhead - 1.0) * 100.0))
    print("  events recorded: %d (dropped %d)"
          % (aggregates.events_recorded, aggregates.events_dropped))

    # The traced run must really have produced a trace.
    assert aggregates.events_recorded > 0
    assert aggregates.counts.get("thread", 0) > 0
    # Enabled tracing stays within the budget.  (The disabled
    # path is identical code to the baseline, so it is not gated on
    # its own: its re-run noise widens this bound instead.)
    assert overhead < ENABLED_BUDGET + max(0.0, noise - 1.0), (
        "traced run %.1f%% over baseline (budget %.0f%% + %.1f%% "
        "measured noise)"
        % ((overhead - 1.0) * 100.0,
           (ENABLED_BUDGET - 1.0) * 100.0,
           (max(0.0, noise - 1.0)) * 100.0))


def _one_metrics_run(program, name):
    """Wall-clock seconds of one pipeline run folded into the metrics
    registry (the daemon-side per-run cost)."""
    start = time.perf_counter()
    report = Jrpm().run(program, name=name)
    observe_report(report, wall_seconds=time.perf_counter() - start)
    return time.perf_counter() - start


def test_metrics_overhead_within_budget():
    """The metrics registry must be effectively free: folding a run's
    report into the registry (the only per-run metrics work — the hot
    simulator loop is never instrumented) stays within 5% of the same
    run with the registry globally disabled via ``set_enabled``."""
    program = compile_source(lookup("BitOps").source("small"))
    Jrpm().run(program, name="warmup")
    reset_registry()
    # Interleave the three arms (off / off-again / on) so a host
    # load spike lands on all of them rather than one sequential
    # block; min-of-N per arm then cancels the noise.
    off = off_again = on = None
    try:
        for _ in range(2 * ROUNDS):
            set_enabled(False)
            sample = _one_metrics_run(program, "BitOps")
            off = sample if off is None else min(off, sample)
            sample = _one_metrics_run(program, "BitOps")
            off_again = (sample if off_again is None
                         else min(off_again, sample))
            set_enabled(True)
            sample = _one_metrics_run(program, "BitOps")
            on = sample if on is None else min(on, sample)
    finally:
        set_enabled(True)
    # The enabled pass really recorded something.
    assert get_registry().get("jrpm_runs") is not None

    noise = off_again / off
    overhead = on / off
    print("metrics overhead guard (BitOps small, min of %d)" % ROUNDS)
    print("  metrics off:    %.3fs" % off)
    print("  metrics off(2): %.3fs  (%.1f%% vs baseline)"
          % (off_again, (noise - 1.0) * 100.0))
    print("  metrics on:     %.3fs  (%.1f%% vs baseline)"
          % (on, (overhead - 1.0) * 100.0))
    assert overhead < METRICS_BUDGET + max(0.0, noise - 1.0), (
        "metrics-enabled run %.1f%% over metrics-off (budget %.0f%% "
        "+ %.1f%% measured noise)"
        % ((overhead - 1.0) * 100.0,
           (METRICS_BUDGET - 1.0) * 100.0,
           (max(0.0, noise - 1.0)) * 100.0))
