"""``repro.trace`` — the speculation observability layer.

The paper's TEST profiler exists because TLS behaviour (violation arcs,
restart storms, buffer overflows, handler overheads) is invisible
without instrumentation.  This package makes the *simulated* hardware
observable the same way: a low-overhead ring-buffered event stream is
recorded while the Hydra machine and the TLS runtime execute, then
exported as

* Chrome trace-event JSON (one track per CPU — load it in Perfetto or
  ``chrome://tracing``),
* a per-loop text timeline,
* aggregate counters (:class:`TraceAggregates`) that ride along inside
  :class:`~repro.core.pipeline.JrpmReport` round-trips, with their
  headline counts folded into the metrics registry.

Tracing defaults **off** (``machine.trace is None`` — the same
near-zero-cost guard pattern the TEST profiler hooks use); see
``benchmarks/bench_trace_overhead.py`` for the enforced overhead
budget and ``docs/observability.md`` for the event reference.
"""

from .aggregate import TraceAggregates
from .collector import TraceCollector, TraceOptions
from .events import (EV_ADAPT, EV_BANK, EV_CACHE, EV_GC,
                     EV_HANDLER, EV_LOOP, EV_OVERFLOW, EV_RESTART,
                     EV_STL, EV_THREAD, EV_VIOLATION, EVENT_KINDS,
                     TraceEvent)
from .export import (chrome_trace, format_timeline, validate_chrome_trace,
                     write_chrome_trace)
from .ring import TraceRing

__all__ = [
    "TraceAggregates", "TraceCollector", "TraceOptions", "TraceRing",
    "TraceEvent", "EVENT_KINDS", "EV_THREAD", "EV_VIOLATION",
    "EV_RESTART", "EV_OVERFLOW", "EV_HANDLER", "EV_STL", "EV_CACHE",
    "EV_LOOP", "EV_BANK", "EV_GC", "EV_ADAPT",
    "chrome_trace", "write_chrome_trace", "format_timeline",
    "validate_chrome_trace",
]
