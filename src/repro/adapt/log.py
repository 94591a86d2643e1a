"""The adaptation log: a typed record of every closed-loop decision.

The feedback controller (:mod:`repro.adapt.controller`) runs a program
in epochs and may change the compiled plan set between them.  Everything
it observes and decides lands here:

* one :class:`EpochRecord` per epoch — measured cycles, the active plan
  set, and a compact per-STL realized-vs-predicted snapshot;
* one :class:`AdaptDecision` per action — ``decommit`` /
  ``lock_escalate`` / ``promote`` with the evidence that justified it
  and the before/after epoch cycles, so a report reader can replay *why*
  the final plan set looks the way it does.

The log rides :class:`~repro.core.pipeline.JrpmReport` (schema v3)
through ``to_dict``/``from_dict`` and the runner's report cache; its
epoch and applied-decision counts are folded into the metrics registry
(``jrpm_adapt_*``).  :func:`validate_log_dict` is the schema check used
by ``scripts/check_adapt_log.py`` and the test suite.
"""

from dataclasses import dataclass, field

#: the three closed-loop actions (paper §3.1 selection, §4.2.4 locks)
ACTION_DECOMMIT = "decommit"
ACTION_LOCK_ESCALATE = "lock_escalate"
ACTION_PROMOTE = "promote"

ACTIONS = (ACTION_DECOMMIT, ACTION_LOCK_ESCALATE, ACTION_PROMOTE)


@dataclass
class AdaptDecision:
    """One applied (or attempted) adaptation action."""

    epoch: int
    loop_id: int
    action: str                     # one of ACTIONS
    evidence: dict = field(default_factory=dict)
    #: cycles of the epoch the decision was made in / the next epoch
    #: (``None`` until the following epoch has been measured)
    before_cycles: float = None
    after_cycles: float = None
    #: False when the controller could not apply the proposal (e.g. no
    #: dependence arc recorded to hang a synchronizing lock on)
    applied: bool = True

    def to_dict(self):
        return {"epoch": self.epoch, "loop_id": self.loop_id,
                "action": self.action, "evidence": dict(self.evidence),
                "before_cycles": self.before_cycles,
                "after_cycles": self.after_cycles,
                "applied": self.applied}

    @staticmethod
    def from_dict(data):
        return AdaptDecision(
            epoch=data["epoch"], loop_id=data["loop_id"],
            action=data["action"], evidence=dict(data["evidence"]),
            before_cycles=data["before_cycles"],
            after_cycles=data["after_cycles"],
            applied=data.get("applied", True))

    def describe(self):
        text = "epoch %d: %s loop %d" % (self.epoch, self.action,
                                         self.loop_id)
        if not self.applied:
            text += " (not applied: %s)" % self.evidence.get(
                "skipped", "?")
        elif self.after_cycles is not None and self.before_cycles:
            delta = (self.after_cycles - self.before_cycles) \
                / self.before_cycles
            text += "  [%+.1f%% cycles next epoch]" % (delta * 100.0)
        return text


@dataclass
class EpochRecord:
    """Measured summary of one epoch's speculative run."""

    epoch: int
    cycles: float
    instructions: int = 0
    plans: list = field(default_factory=list)       # active loop ids
    decisions: int = 0                              # actions this epoch
    #: compact per-STL telemetry: {loop_id: {realized, predicted,
    #: violations, restarts, entries, wall_cycles, work_cycles}}
    stl: dict = field(default_factory=dict)

    def to_dict(self):
        return {"epoch": self.epoch, "cycles": self.cycles,
                "instructions": self.instructions,
                "plans": list(self.plans), "decisions": self.decisions,
                "stl": {str(loop_id): dict(snapshot)
                        for loop_id, snapshot in self.stl.items()}}

    @staticmethod
    def from_dict(data):
        return EpochRecord(
            epoch=data["epoch"], cycles=data["cycles"],
            instructions=data.get("instructions", 0),
            plans=list(data["plans"]), decisions=data["decisions"],
            stl={int(key): dict(value)
                 for key, value in data.get("stl", {}).items()})


class AdaptationLog:
    """Every epoch and every decision of one adaptive run."""

    SCHEMA_VERSION = 1

    def __init__(self, name="program", policy="threshold",
                 policy_params=None):
        self.name = name
        self.policy = policy
        self.policy_params = dict(policy_params or {})
        self.epochs = []                 # [EpochRecord]
        self.decisions = []              # [AdaptDecision]
        #: first epoch index from which the plan set never changed again
        #: (0 = the initial selection was already stable)
        self.converged_epoch = None
        #: recompile cycles spent across all epoch recompilations
        self.recompile_cycles = 0

    # -- recording -----------------------------------------------------------
    def record_epoch(self, record, decisions=()):
        record.decisions = len([d for d in decisions if d.applied])
        self.epochs.append(record)
        self.decisions.extend(decisions)
        return record

    # -- headline numbers ----------------------------------------------------
    @property
    def epochs_run(self):
        return len(self.epochs)

    @property
    def initial_cycles(self):
        return self.epochs[0].cycles if self.epochs else 0.0

    @property
    def final_cycles(self):
        return self.epochs[-1].cycles if self.epochs else 0.0

    @property
    def total_cycles(self):
        return sum(record.cycles for record in self.epochs)

    @property
    def one_shot_cycles(self):
        """What the same number of epochs would have cost had the
        initial (one-shot) selection been kept."""
        return self.initial_cycles * self.epochs_run

    @property
    def net_cycles_saved(self):
        return self.one_shot_cycles - self.total_cycles

    @property
    def steady_state_gain(self):
        """initial/final epoch cycles — >1 means adaptation ended
        strictly better than the one-shot selection."""
        if not self.final_cycles:
            return 1.0
        return self.initial_cycles / self.final_cycles

    def decisions_by_action(self):
        counts = {action: 0 for action in ACTIONS}
        for decision in self.decisions:
            if decision.applied:
                counts[decision.action] = counts.get(decision.action,
                                                     0) + 1
        return counts

    def applied_decisions(self):
        return [d for d in self.decisions if d.applied]

    # -- serialization -------------------------------------------------------
    def to_dict(self):
        """Lossless JSON-safe dict (the adapt-log schema)."""
        return {
            "schema": self.SCHEMA_VERSION,
            "name": self.name,
            "policy": self.policy,
            "policy_params": dict(self.policy_params),
            "epochs": [record.to_dict() for record in self.epochs],
            "decisions": [d.to_dict() for d in self.decisions],
            "converged_epoch": self.converged_epoch,
            "recompile_cycles": self.recompile_cycles,
            "initial_cycles": self.initial_cycles,
            "final_cycles": self.final_cycles,
            "total_cycles": self.total_cycles,
            "one_shot_cycles": self.one_shot_cycles,
        }

    @staticmethod
    def from_dict(data):
        log = AdaptationLog(name=data["name"], policy=data["policy"],
                            policy_params=data.get("policy_params"))
        log.epochs = [EpochRecord.from_dict(record)
                      for record in data["epochs"]]
        log.decisions = [AdaptDecision.from_dict(decision)
                         for decision in data["decisions"]]
        log.converged_epoch = data["converged_epoch"]
        log.recompile_cycles = data.get("recompile_cycles", 0)
        return log

    # -- rendering -----------------------------------------------------------
    def summary_lines(self, verbose=False):
        lines = []
        out = lines.append
        counts = self.decisions_by_action()
        out("adaptation: %d epoch%s, policy %s, %d decision%s "
            "(%d decommit, %d lock-escalate, %d promote)"
            % (self.epochs_run, "" if self.epochs_run == 1 else "s",
               self.policy, len(self.applied_decisions()),
               "" if len(self.applied_decisions()) == 1 else "s",
               counts[ACTION_DECOMMIT], counts[ACTION_LOCK_ESCALATE],
               counts[ACTION_PROMOTE]))
        if self.epochs:
            out("            cycles %0.0f (epoch 0) -> %0.0f (epoch %d)"
                "   steady-state gain %.2fx"
                % (self.initial_cycles, self.final_cycles,
                   self.epochs[-1].epoch, self.steady_state_gain))
        if self.converged_epoch is not None:
            out("            plan set stable from epoch %d"
                % self.converged_epoch)
        if verbose:
            for decision in self.decisions:
                out("            " + decision.describe())
        return lines


# ---------------------------------------------------------------------------
# schema validation (scripts/check_adapt_log.py, tests, CI)
# ---------------------------------------------------------------------------

def _check_number(problems, data, key, where, optional=False):
    value = data.get(key)
    if value is None:
        if not optional:
            problems.append("%s: missing numeric %r" % (where, key))
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append("%s: %r is not numeric" % (where, key))


def validate_log_dict(data):
    """Check an adapt-log dict (``AdaptationLog.to_dict()`` or the
    ``jrpm run --adapt --json`` payload).  Returns a list of problem strings;
    empty means the log is schema-conformant."""
    problems = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    if data.get("schema") != AdaptationLog.SCHEMA_VERSION:
        problems.append("schema must be %d (got %r)"
                        % (AdaptationLog.SCHEMA_VERSION,
                           data.get("schema")))
    for key in ("name", "policy"):
        if not isinstance(data.get(key), str):
            problems.append("%r must be a string" % key)
    epochs = data.get("epochs")
    if not isinstance(epochs, list) or not epochs:
        problems.append("epochs must be a non-empty array")
        epochs = []
    for index, record in enumerate(epochs):
        where = "epochs[%d]" % index
        if not isinstance(record, dict):
            problems.append("%s is not an object" % where)
            continue
        if record.get("epoch") != index:
            problems.append("%s: epoch index %r != position %d"
                            % (where, record.get("epoch"), index))
        _check_number(problems, record, "cycles", where)
        if not isinstance(record.get("plans"), list):
            problems.append("%s: plans must be an array" % where)
        _check_number(problems, record, "decisions", where)
    decisions = data.get("decisions")
    if not isinstance(decisions, list):
        problems.append("decisions must be an array")
        decisions = []
    for index, decision in enumerate(decisions):
        where = "decisions[%d]" % index
        if not isinstance(decision, dict):
            problems.append("%s is not an object" % where)
            continue
        if decision.get("action") not in ACTIONS:
            problems.append("%s: unknown action %r"
                            % (where, decision.get("action")))
        _check_number(problems, decision, "epoch", where)
        _check_number(problems, decision, "loop_id", where)
        if not isinstance(decision.get("evidence"), dict):
            problems.append("%s: evidence must be an object" % where)
        _check_number(problems, decision, "before_cycles", where,
                      optional=True)
        _check_number(problems, decision, "after_cycles", where,
                      optional=True)
    converged = data.get("converged_epoch")
    if converged is not None and not isinstance(converged, int):
        problems.append("converged_epoch must be an integer or null")
    for key in ("initial_cycles", "final_cycles", "total_cycles",
                "one_shot_cycles"):
        _check_number(problems, data, key, "log")
    return problems
