"""Pluggable adaptation policies: telemetry in, decisions out.

A policy is a pure function of :class:`~repro.adapt.epochs
.EpochTelemetry` and the controller's :class:`AdaptState` — it never
touches the compiler, so it is unit-testable with fabricated telemetry
(the hysteresis tests do exactly that).  The controller applies the
returned :class:`~repro.adapt.log.AdaptDecision` proposals: decommits
prune the plan set, lock escalations synthesize a
:class:`~repro.tracer.selector.SyncPlan` through the selector hook, and
(policy permitting) promotions re-select previously conflicting
candidates.

Hysteresis: every decision stamps ``state.last_action_epoch[loop]``;
:class:`ThresholdPolicy` refuses to touch the same STL again within
``cooldown`` epochs, so oscillating statistics cannot thrash a loop
between committed and decommitted states.
"""

from dataclasses import dataclass, field

from .epochs import EpochTelemetry, StlObservation  # noqa: F401 (re-export)
from .log import ACTION_DECOMMIT, ACTION_LOCK_ESCALATE, AdaptDecision


@dataclass
class AdaptState:
    """Mutable controller state the policy may consult."""

    plans: dict = field(default_factory=dict)      # loop_id -> StlPlan
    banned: set = field(default_factory=set)       # decommitted loop ids
    last_action_epoch: dict = field(default_factory=dict)

    def in_cooldown(self, loop_id, epoch, cooldown):
        last = self.last_action_epoch.get(loop_id)
        return last is not None and (epoch - last) < cooldown

    def stamp(self, loop_id, epoch):
        self.last_action_epoch[loop_id] = epoch


class AdaptPolicy:
    """Base policy: observe an epoch, propose plan-set changes."""

    name = "base"
    #: whether the controller may promote unblocked candidates after a
    #: decommit (see AdaptController._promote)
    promote = False
    #: hysteresis window consulted by the controller for promotions too
    cooldown = 1

    def params(self):
        """JSON-safe knob dict (rides cache keys and the adapt log)."""
        return {}

    def decide(self, telemetry, state):
        """Return a list of :class:`AdaptDecision` proposals."""
        raise NotImplementedError


class NullPolicy(AdaptPolicy):
    """Never adapts — the one-shot A/B baseline."""

    name = "null"

    def decide(self, telemetry, state):
        return []


class ThresholdPolicy(AdaptPolicy):
    """The default controller policy: fixed thresholds + cooldown.

    * **decommit** when realized speedup < ``decommit_threshold``
      (default 1.0: the STL ran slower than sequential code would);
    * **lock-escalate** when RAW violations per committed thread exceed
      ``violation_cutoff`` on a plan that has no synchronizing lock yet
      (§4.2.4: protect the dependence instead of violating on it);
    * a loop acted on at epoch *e* is left alone until epoch
      ``e + cooldown`` (hysteresis), and a loop needs at least
      ``min_threads`` committed threads before it is judged at all.
    """

    name = "threshold"
    promote = True

    def __init__(self, decommit_threshold=1.0, violation_cutoff=0.25,
                 cooldown=1, min_threads=1, promote=True):
        self.decommit_threshold = float(decommit_threshold)
        self.violation_cutoff = float(violation_cutoff)
        self.cooldown = max(1, int(cooldown))
        self.min_threads = max(0, int(min_threads))
        self.promote = bool(promote)

    def params(self):
        return {"decommit_threshold": self.decommit_threshold,
                "violation_cutoff": self.violation_cutoff,
                "cooldown": self.cooldown,
                "min_threads": self.min_threads,
                "promote": self.promote}

    def decide(self, telemetry, state):
        decisions = []
        for loop_id in sorted(telemetry.per_stl):
            observation = telemetry.per_stl[loop_id]
            plan = state.plans.get(loop_id)
            if plan is None:
                continue
            if state.in_cooldown(loop_id, telemetry.epoch, self.cooldown):
                continue
            realized = observation.realized_speedup
            if realized is None \
                    or observation.threads_committed < self.min_threads:
                continue    # not enough evidence yet — withhold
            if realized < self.decommit_threshold:
                decisions.append(AdaptDecision(
                    epoch=telemetry.epoch, loop_id=loop_id,
                    action=ACTION_DECOMMIT,
                    evidence={
                        "realized_speedup": round(realized, 4),
                        "predicted_speedup": round(
                            observation.predicted_speedup, 4),
                        "threshold": self.decommit_threshold,
                        "wall_cycles": observation.wall_cycles,
                        "work_cycles": observation.work_cycles,
                        "violations": observation.violations,
                        "restarts": observation.restarts,
                        "overflow_stalls": observation.overflow_stalls,
                    }))
            elif observation.violation_frequency > self.violation_cutoff \
                    and plan.sync is None:
                decisions.append(AdaptDecision(
                    epoch=telemetry.epoch, loop_id=loop_id,
                    action=ACTION_LOCK_ESCALATE,
                    evidence={
                        "violation_frequency": round(
                            observation.violation_frequency, 4),
                        "cutoff": self.violation_cutoff,
                        "violations": observation.violations,
                        "restarts": observation.restarts,
                        "realized_speedup": round(realized, 4),
                    }))
        return decisions


#: CLI / ``RunOptions.policy`` registry: ``--policy`` names map here.
POLICIES = {
    ThresholdPolicy.name: ThresholdPolicy,
    NullPolicy.name: NullPolicy,
}


def make_policy(name="threshold", **knobs):
    """Instantiate a registered policy, ignoring knobs it does not
    accept (so the CLI can pass every flag unconditionally) and knobs
    whose value is ``None`` (flag not given)."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError("unknown adapt policy %r (have: %s)"
                         % (name, ", ".join(sorted(POLICIES))))
    import inspect
    accepted = set(inspect.signature(factory.__init__).parameters)
    kwargs = {key: value for key, value in knobs.items()
              if value is not None and key in accepted}
    return factory(**kwargs)
