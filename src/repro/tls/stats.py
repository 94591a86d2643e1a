"""TLS execution-state accounting (paper Figure 10).

Every cycle a CPU spends during speculative execution is attributed to
one of the paper's categories once the fate of the thread is known:

* run-used      — committed compute cycles,
* wait-used     — committed cycles spent waiting to become head or
                  stalled on buffer overflow / synchronizing locks,
* overhead      — STL startup / eoi / restart / shutdown handlers,
* run-violated  — discarded compute cycles (thread restarted/squashed),
* wait-violated — discarded wait cycles.

Serial time (everything outside STLs) is tracked by the pipeline.

Attribution is engine-independent: both TLS schedulers
(`repro.tls.runtime`, event-driven for ``engine = "fast"`` and stepwise
for ``engine = "reference"``) settle each thread's ``acc_compute`` from
the same per-thread clock deltas before any state transition is
serviced, so batching local runs between scheduler events never moves
a cycle across these categories — the breakdown is byte-identical
under ``--engine fast`` and ``--engine reference`` (enforced by
``tests/test_scheduler_differential.py``).
"""


class TlsStateBreakdown:
    __slots__ = ("run_used", "wait_used", "overhead", "run_violated",
                 "wait_violated", "serial", "commits", "violations",
                 "squashes", "overflow_stalls", "stl_entries",
                 "lock_waits")

    def __init__(self):
        self.run_used = 0.0
        self.wait_used = 0.0
        self.overhead = 0.0
        self.run_violated = 0.0
        self.wait_violated = 0.0
        self.serial = 0.0
        self.commits = 0
        self.violations = 0
        self.squashes = 0
        self.overflow_stalls = 0
        self.lock_waits = 0
        self.stl_entries = 0

    def add(self, other):
        self.run_used += other.run_used
        self.wait_used += other.wait_used
        self.overhead += other.overhead
        self.run_violated += other.run_violated
        self.wait_violated += other.wait_violated
        self.serial += other.serial
        self.commits += other.commits
        self.violations += other.violations
        self.squashes += other.squashes
        self.overflow_stalls += other.overflow_stalls
        self.lock_waits += other.lock_waits
        self.stl_entries += other.stl_entries

    @property
    def total(self):
        return (self.run_used + self.wait_used + self.overhead
                + self.run_violated + self.wait_violated + self.serial)

    def fractions(self):
        total = self.total or 1.0
        return {
            "serial": self.serial / total,
            "run_used": self.run_used / total,
            "wait_used": self.wait_used / total,
            "overhead": self.overhead / total,
            "run_violated": self.run_violated / total,
            "wait_violated": self.wait_violated / total,
        }

    def __repr__(self):
        parts = ", ".join("%s=%.0f" % (name, getattr(self, name))
                          for name in ("serial", "run_used", "wait_used",
                                       "overhead", "run_violated",
                                       "wait_violated"))
        return "<TlsStateBreakdown %s>" % parts

    def to_dict(self):
        """Lossless JSON-safe dict of every accounting slot."""
        return {name: getattr(self, name) for name in self.__slots__}

    @staticmethod
    def from_dict(data):
        breakdown = TlsStateBreakdown()
        for name in TlsStateBreakdown.__slots__:
            setattr(breakdown, name, data[name])
        return breakdown


class StlRunStats:
    """Per-STL aggregate statistics for Table 3 columns."""

    __slots__ = ("loop_id", "entries", "threads_committed", "cycles_total",
                 "sum_load_lines", "sum_store_lines", "violations",
                 "overflow_stalls", "restarts", "max_load_lines",
                 "max_store_lines", "wall_cycles")

    def __init__(self, loop_id):
        self.loop_id = loop_id
        self.entries = 0
        self.threads_committed = 0
        self.cycles_total = 0.0
        #: master-clock cycles from STL entry to shutdown return —
        #: committed work / wall is the *realized* speedup the adapt
        #: controller compares against TEST's prediction
        self.wall_cycles = 0.0
        self.sum_load_lines = 0
        self.sum_store_lines = 0
        self.violations = 0
        self.overflow_stalls = 0
        #: every discarded thread attempt (primary restarts + collateral
        #: squashes) — the restart-storm signal `format_report -v` shows
        self.restarts = 0
        #: speculative-buffer high-water marks (lines), vs the limits in
        #: ``HydraConfig.load_buffer_lines`` / ``store_buffer_lines``
        self.max_load_lines = 0
        self.max_store_lines = 0

    @property
    def threads_per_entry(self):
        return (self.threads_committed / self.entries
                if self.entries else 0.0)

    @property
    def avg_thread_cycles(self):
        return (self.cycles_total / self.threads_committed
                if self.threads_committed else 0.0)

    @property
    def avg_load_lines(self):
        return (self.sum_load_lines / self.threads_committed
                if self.threads_committed else 0.0)

    @property
    def avg_store_lines(self):
        return (self.sum_store_lines / self.threads_committed
                if self.threads_committed else 0.0)

    def to_dict(self):
        """Lossless JSON-safe dict of the raw counters (derived
        properties are recomputed on load)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @staticmethod
    def from_dict(data):
        stats = StlRunStats(data["loop_id"])
        for name in StlRunStats.__slots__:
            if name in data:        # tolerate dicts from older schemas
                setattr(stats, name, data[name])
        return stats
