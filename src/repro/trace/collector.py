"""The trace collector — the object the simulator emits events into.

A :class:`TraceCollector` is attached to a
:class:`~repro.hydra.machine.Machine` as ``machine.trace`` (default
``None``).  Every instrumentation site in the TLS runtime, the memory
hierarchy and the TEST profiler is guarded by ``trace is not None`` —
the exact pattern the existing profiler hooks use — so the disabled
cost is one attribute load + identity check on *control* events only
(commits, restarts, handlers), never on the per-instruction hot path.

Emission itself is one namedtuple construction + one ring append plus
cheap aggregate counter bumps, so enabled tracing stays inside the
budget enforced by ``benchmarks/bench_trace_overhead.py``.

Event *order* is part of the simulator's observational contract:
every emission site fires at a simulated timestamp determined by the
total order of scheduler events, which both engines' TLS schedulers
reproduce identically — a trace recorded under ``--engine fast`` is
byte-for-byte the trace recorded under ``--engine reference``
(enforced by ``tests/test_scheduler_differential.py``).
"""

from dataclasses import dataclass

from .aggregate import TraceAggregates
from .events import (EV_ADAPT, EV_BANK, EV_CACHE, EV_GC,
                     EV_HANDLER,
                     EV_LOOP, EV_OVERFLOW, EV_PROFDB, EV_RESTART,
                     EV_STL, EV_THREAD, EV_VIOLATION, TraceEvent)
from .ring import TraceRing


def site_of(raw_site):
    """``(method, line)`` from a machine ``current_site`` — the closest
    thing a JIT'd region has to a PC (stable across compiles)."""
    if raw_site is None:
        return None
    frame_name, instr = raw_site
    return (frame_name, getattr(instr, "line", None))


@dataclass
class TraceOptions:
    """Knobs for one tracing session."""

    #: ring capacity in events; the oldest events are overwritten once
    #: full (the ``dropped`` counter says how many)
    capacity: int = 65536
    #: emit an ``EV_CACHE`` counter snapshot at most every N commits
    #: (1 = every commit; 0 disables cache counter tracks)
    cache_snapshot_every: int = 16


class TraceCollector:
    """Ring buffer + aggregates for one traced pipeline run."""

    __slots__ = ("options", "ring", "aggregates", "phase",
                 "_commits_since_snapshot", "request_id")

    def __init__(self, options=None):
        self.options = options or TraceOptions()
        self.ring = TraceRing(self.options.capacity)
        self.aggregates = TraceAggregates(
            enabled=True, capacity=self.options.capacity)
        self.phase = "tls"          # "profile" during the TEST run
        self._commits_since_snapshot = 0
        #: daemon request correlation (PR-10): set by the service layer
        #: before the run; exported traces then stamp every event with
        #: the id and add an enclosing request span.  None for local
        #: runs — the export is byte-identical to pre-PR-10 output.
        self.request_id = None

    # -- plumbing -----------------------------------------------------------
    def set_phase(self, phase):
        self.phase = phase

    def _emit(self, kind, ts, cpu, dur, loop, data):
        aggregates = self.aggregates
        aggregates.events_recorded += 1
        counts = aggregates.counts
        counts[kind] = counts.get(kind, 0) + 1
        self.ring.append(TraceEvent(kind, ts, cpu, dur, loop, data))

    def events(self):
        return self.ring.events()

    def finish(self, hierarchy=None):
        """Seal the aggregates (dropped count, final cache counters)."""
        self.aggregates.events_dropped = self.ring.dropped
        if hierarchy is not None:
            self.aggregates.cache = hierarchy.counters()
        return self.aggregates

    # -- TLS runtime events ---------------------------------------------------
    def thread_span(self, start_ts, end_ts, cpu, loop, iteration,
                    outcome):
        """One whole speculative thread attempt, start to fate."""
        self._emit(EV_THREAD, start_ts, cpu, max(0.0, end_ts - start_ts),
                   loop, (iteration, outcome))
        stats = self.aggregates.loop(loop)
        if outcome == "commit":
            stats.commits += 1
        elif outcome == "restart":
            stats.restarts += 1
        elif outcome == "squash":
            stats.squashes += 1

    def violation(self, ts, cpu, loop, store_iteration, victim_iteration,
                  addr, source_site, sink_site):
        """A RAW violation arc: *source* stored what *sink* had already
        speculatively read."""
        self._emit(EV_VIOLATION, ts, cpu, 0.0, loop,
                   (store_iteration, victim_iteration, addr,
                    site_of(source_site), site_of(sink_site)))
        self.aggregates.loop(loop).violations += 1

    def restart(self, ts, cpu, loop, iteration, cause, primary):
        self._emit(EV_RESTART, ts, cpu, 0.0, loop,
                   (iteration, cause, primary))

    def overflow(self, ts, cpu, loop, iteration, buffer, lines):
        self._emit(EV_OVERFLOW, ts, cpu, 0.0, loop,
                   (iteration, buffer, lines))
        self.aggregates.loop(loop).overflows += 1

    def buffers(self, loop, load_lines, store_lines):
        """Track per-loop speculative-buffer high-water marks (no ring
        event: the load/store line counts already ride on EV_THREAD
        commit spans via :meth:`thread_span` callers)."""
        stats = self.aggregates.loop(loop)
        if load_lines > stats.max_load_lines:
            stats.max_load_lines = load_lines
        if store_lines > stats.max_store_lines:
            stats.max_store_lines = store_lines

    def handler(self, ts, cpu, loop, name, cycles):
        """A Table 1 software handler execution (span of ``cycles``)."""
        self._emit(EV_HANDLER, ts, cpu, cycles, loop, (name,))
        totals = self.aggregates.handler_cycles
        totals[name] = totals.get(name, 0.0) + cycles
        if loop is not None:
            self.aggregates.loop(loop).handler_cycles += cycles

    def stl(self, ts, cpu, loop, edge, entries=0):
        self._emit(EV_STL, ts, cpu, 0.0, loop, (edge, entries))

    def cache_snapshot(self, ts, hierarchy, force=False):
        """Cumulative L1/L2 hit counters as a Chrome counter track.
        Rate-limited to every ``cache_snapshot_every`` commits."""
        every = self.options.cache_snapshot_every
        if every <= 0:
            return
        if not force:
            self._commits_since_snapshot += 1
            if self._commits_since_snapshot < every:
                return
        self._commits_since_snapshot = 0
        counters = hierarchy.counters()
        self._emit(EV_CACHE, ts, None, 0.0, None,
                   (counters["l1_hits"], counters["l1_misses"],
                    counters["l2_hits"], counters["l2_misses"]))

    # -- TEST profiler events -------------------------------------------------
    def profile_loop(self, ts, loop, edge):
        self._emit(EV_LOOP, ts, None, 0.0, loop, (edge,))

    def bank(self, ts, loop, what):
        self._emit(EV_BANK, ts, None, 0.0, loop, (what,))

    # -- VM events -------------------------------------------------------------
    def gc(self, ts, cpu, cycles):
        self._emit(EV_GC, ts, cpu, cycles, None, ())

    # -- adaptive recompilation events ----------------------------------------
    def adapt(self, ts, loop, action, epoch, detail=""):
        """An applied adaptive recompilation decision (repro.adapt):
        ``action`` in ``decommit | lock_escalate | promote``."""
        self._emit(EV_ADAPT, ts, None, 0.0, loop, (action, epoch, detail))

    # -- profile-DB events -----------------------------------------------------
    def profdb(self, ts, outcome, name):
        """A persistent profile DB interaction (repro.profdb):
        ``outcome`` is the run's profile provenance — ``cold`` /
        ``confirmed`` for a recorded live profile, ``warm`` for a run
        whose TEST statistics were replayed from the DB."""
        self._emit(EV_PROFDB, ts, None, 0.0, None, (outcome, name))
