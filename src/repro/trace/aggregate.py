"""Aggregate trace counters that survive serialization.

The raw event ring is transient (like the live ``TestProfiler``), but
its roll-up — :class:`TraceAggregates` — is attached to
:class:`~repro.core.pipeline.JrpmReport`, round-trips losslessly
through ``to_dict()/from_dict()``, crosses worker-process and report-
cache boundaries, and keeps the per-handler and per-loop detail of
the run.  Its headline counts (events recorded and dropped) are folded
into the metrics registry once per executed run
(:func:`repro.metrics.observe_report_dict`).
"""


class LoopTraceStats:
    """Per-STL trace roll-up (restart counts, buffer high-water marks)."""

    __slots__ = ("loop_id", "commits", "restarts", "squashes",
                 "violations", "overflows", "max_load_lines",
                 "max_store_lines", "handler_cycles")

    def __init__(self, loop_id):
        self.loop_id = loop_id
        self.commits = 0
        self.restarts = 0            # primary violation/reset restarts
        self.squashes = 0            # collateral discards
        self.violations = 0          # RAW arcs observed
        self.overflows = 0
        self.max_load_lines = 0
        self.max_store_lines = 0
        self.handler_cycles = 0.0    # startup+shutdown+eoi+restart cycles

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    @staticmethod
    def from_dict(data):
        stats = LoopTraceStats(data["loop_id"])
        for name in LoopTraceStats.__slots__:
            if name in data:
                setattr(stats, name, data[name])
        return stats


class TraceAggregates:
    """Counter roll-up of one traced run."""

    __slots__ = ("enabled", "events_recorded", "events_dropped",
                 "capacity", "counts", "handler_cycles", "per_loop",
                 "cache")

    def __init__(self, enabled=True, capacity=0):
        self.enabled = enabled
        self.events_recorded = 0     # everything emitted (incl. dropped)
        self.events_dropped = 0
        self.capacity = capacity
        self.counts = {}             # event kind -> emitted count
        self.handler_cycles = {}     # handler name -> total cycles
        self.per_loop = {}           # loop_id -> LoopTraceStats
        self.cache = {"l1_hits": 0, "l1_misses": 0,
                      "l2_hits": 0, "l2_misses": 0}

    # -- derived -----------------------------------------------------------
    @property
    def violations(self):
        return self.counts.get("violation", 0)

    @property
    def restarts(self):
        return sum(stats.restarts + stats.squashes
                   for stats in self.per_loop.values())

    @property
    def max_load_lines(self):
        return max((s.max_load_lines for s in self.per_loop.values()),
                   default=0)

    @property
    def max_store_lines(self):
        return max((s.max_store_lines for s in self.per_loop.values()),
                   default=0)

    def loop(self, loop_id):
        stats = self.per_loop.get(loop_id)
        if stats is None:
            stats = self.per_loop[loop_id] = LoopTraceStats(loop_id)
        return stats

    # -- serialization -----------------------------------------------------
    def to_dict(self):
        """Lossless JSON-safe dict (loop keys stringified, like every
        other per-loop map in the report)."""
        return {
            "enabled": self.enabled,
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
            "capacity": self.capacity,
            "counts": dict(self.counts),
            "handler_cycles": dict(self.handler_cycles),
            "per_loop": {str(loop_id): stats.to_dict()
                         for loop_id, stats in self.per_loop.items()},
            "cache": dict(self.cache),
        }

    @staticmethod
    def from_dict(data):
        aggregates = TraceAggregates(enabled=data.get("enabled", True),
                                     capacity=data.get("capacity", 0))
        aggregates.events_recorded = data.get("events_recorded", 0)
        aggregates.events_dropped = data.get("events_dropped", 0)
        aggregates.counts = dict(data.get("counts", {}))
        aggregates.handler_cycles = dict(data.get("handler_cycles", {}))
        aggregates.per_loop = {
            int(key): LoopTraceStats.from_dict(value)
            for key, value in data.get("per_loop", {}).items()}
        cache = data.get("cache")
        if cache:
            aggregates.cache = dict(cache)
        return aggregates

    def summary_lines(self):
        """Human summary used by ``jrpm run --trace`` and verbose
        reports."""
        lines = []
        lines.append("trace: %d events recorded (%d dropped, ring %d)"
                     % (self.events_recorded, self.events_dropped,
                        self.capacity))
        if self.counts:
            lines.append("       " + "  ".join(
                "%s=%d" % (kind, self.counts[kind])
                for kind in sorted(self.counts)))
        if self.handler_cycles:
            lines.append("       handler cycles: " + "  ".join(
                "%s=%.0f" % (name, self.handler_cycles[name])
                for name in ("startup", "eoi", "restart", "shutdown")
                if name in self.handler_cycles))
        cache = self.cache
        total_l1 = cache["l1_hits"] + cache["l1_misses"]
        if total_l1:
            lines.append("       L1 %d/%d hits (%.1f%%), L2 %d/%d hits"
                         % (cache["l1_hits"], total_l1,
                            100.0 * cache["l1_hits"] / total_l1,
                            cache["l2_hits"],
                            cache["l2_hits"] + cache["l2_misses"]))
        return lines
