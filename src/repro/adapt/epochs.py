"""Per-epoch telemetry: realized STL behaviour vs TEST's prediction.

One epoch = one speculative execution of the program under the current
plan set.  :func:`observe_epoch` turns the epoch's always-on
:class:`~repro.tls.stats.StlRunStats` (entries, committed threads,
violations, restarts, buffer high-water marks, master wall cycles) into
:class:`StlObservation` objects that pair each STL's *realized* speedup
with the :class:`~repro.tracer.selector.Prediction` the selector
trusted, which is exactly the divergence signal the
:class:`~repro.adapt.policy.ThresholdPolicy` feeds on.

Realized speedup is measured as ``work_cycles / wall_cycles``:

* ``work_cycles`` — committed compute cycles inside the STL, i.e. the
  serial-equivalent work the loop performed this epoch;
* ``wall_cycles`` — master-clock cycles spent from STL entry to
  shutdown return (startup/eoi/restart/shutdown handlers, violated
  work and overflow stalls all included).

A loop that speculates well realizes close to ``num_cpus``; a loop the
profile mispredicted (violation storms, overflow thrash, tiny threads)
realizes below 1.0 — it runs *slower* than sequential and should be
decommitted.
"""

from dataclasses import dataclass, field


@dataclass
class StlObservation:
    """What one STL actually did during one epoch."""

    loop_id: int
    entries: int = 0
    threads_committed: int = 0
    work_cycles: float = 0.0
    wall_cycles: float = 0.0
    violations: int = 0
    restarts: int = 0
    overflow_stalls: int = 0
    max_load_lines: int = 0
    max_store_lines: int = 0
    predicted_speedup: float = 0.0
    has_sync: bool = False
    multilevel_inner: bool = False

    @property
    def realized_speedup(self):
        """work/wall — ``None`` until the loop has actually run."""
        if self.entries == 0 or self.wall_cycles <= 0.0:
            return None
        return self.work_cycles / self.wall_cycles

    @property
    def violation_frequency(self):
        """RAW violations per committed thread (restart pressure)."""
        denominator = max(self.threads_committed, 1)
        return self.violations / denominator

    @property
    def misprediction(self):
        """predicted/realized — how optimistic TEST was (>1 = too
        optimistic).  ``None`` before the loop ran."""
        realized = self.realized_speedup
        if realized is None or realized <= 0.0:
            return None
        return self.predicted_speedup / realized

    def snapshot(self):
        """Compact JSON-safe dict stored in the epoch log."""
        realized = self.realized_speedup
        return {
            "entries": self.entries,
            "threads": self.threads_committed,
            "work_cycles": self.work_cycles,
            "wall_cycles": self.wall_cycles,
            "violations": self.violations,
            "restarts": self.restarts,
            "overflow_stalls": self.overflow_stalls,
            "predicted": round(self.predicted_speedup, 4),
            "realized": None if realized is None else round(realized, 4),
            "violation_frequency": round(self.violation_frequency, 4),
        }


@dataclass
class EpochTelemetry:
    """Everything the policy sees about one finished epoch."""

    epoch: int
    cycles: float
    instructions: int = 0
    per_stl: dict = field(default_factory=dict)   # loop_id -> observation
    #: whole-run speculative state (TlsStateBreakdown) — evidence only
    breakdown: object = None

    def observation(self, loop_id):
        return self.per_stl.get(loop_id)


def observe_epoch(epoch, plans, tls_artifact, config=None):
    """Build :class:`EpochTelemetry` from one epoch's TLS artifact.

    Every planned STL gets an observation even if it never entered this
    epoch (``entries == 0`` — the policy must then withhold judgement);
    run stats for loops no longer planned (freshly decommitted) are
    ignored.
    """
    del config      # reserved for future per-config normalization
    measurement = tls_artifact.measurement
    telemetry = EpochTelemetry(
        epoch=epoch, cycles=measurement.cycles,
        instructions=measurement.instructions,
        breakdown=tls_artifact.breakdown)
    for loop_id, plan in plans.items():
        stats = tls_artifact.stl_stats.get(loop_id)
        observation = StlObservation(
            loop_id=loop_id,
            predicted_speedup=plan.prediction.speedup,
            has_sync=plan.sync is not None,
            multilevel_inner=plan.multilevel_inner)
        if stats is not None:
            observation.entries = stats.entries
            observation.threads_committed = stats.threads_committed
            observation.work_cycles = stats.cycles_total
            observation.wall_cycles = stats.wall_cycles
            observation.violations = stats.violations
            observation.restarts = stats.restarts
            observation.overflow_stalls = stats.overflow_stalls
            observation.max_load_lines = stats.max_load_lines
            observation.max_store_lines = stats.max_store_lines
        telemetry.per_stl[loop_id] = observation
    return telemetry
