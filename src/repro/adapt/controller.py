"""The adaptive recompilation controller (measure -> decide -> recompile).

Jrpm's defining claim is that parallelization decisions are *dynamic*:
TEST predictions steer the initial STL selection, but the deployed
system must react when measured behaviour diverges from prediction.
:class:`AdaptController` closes that loop.  It runs the program in
**epochs** — one speculative execution per epoch — and between epochs:

1. builds :class:`~repro.adapt.epochs.EpochTelemetry` from the always-on
   per-STL run statistics (realized speedup, violation frequency,
   buffer high-water marks);
2. asks the pluggable :class:`~repro.adapt.policy.AdaptPolicy` for
   decisions;
3. applies them — **decommit** reverts a mispredicted loop to
   sequential execution via :meth:`Jrpm.recompile` with a pruned plan
   set, **lock-escalate** synthesizes a
   :class:`~repro.tracer.selector.SyncPlan` through the selector hook
   and re-recompiles, and **promote** re-runs selection with the
   decommitted loops banned so previously conflicting candidates get
   their chance;
4. records everything in the :class:`~repro.adapt.log.AdaptationLog`
   that rides the final :class:`~repro.core.pipeline.JrpmReport`.

Hysteresis lives in the policy (per-loop cooldown stamps in
:class:`~repro.adapt.policy.AdaptState`), and the banned set only ever
grows, so the plan set converges instead of thrashing.
"""

from .epochs import observe_epoch
from .log import (ACTION_DECOMMIT, ACTION_LOCK_ESCALATE, ACTION_PROMOTE,
                  AdaptDecision, AdaptationLog, EpochRecord)
from .policy import AdaptState, ThresholdPolicy


class AdaptController:
    """Drives one adaptive run of one program on one :class:`Jrpm`."""

    def __init__(self, jrpm, policy=None, epochs=4,
                 stop_on_converged=True, verify=False):
        self.jrpm = jrpm
        self.policy = policy if policy is not None else ThresholdPolicy()
        self.epochs = max(1, int(epochs))
        self.stop_on_converged = stop_on_converged
        self.verify = verify

    # -- main loop -----------------------------------------------------------
    def run(self, source_or_program, name="program", args=()):
        """Full adaptive pipeline; returns a JrpmReport whose
        ``adaptation`` attribute is the epoch/decision log."""
        jrpm = self.jrpm
        program = jrpm._program_of(source_or_program)
        profile_artifact = jrpm.profile(program, args)
        baseline = profile_artifact.baseline()
        selector = jrpm.make_selector(profile_artifact.loop_table)
        profile_stats = profile_artifact.stats
        nesting = profile_artifact.profiler.dynamic_nesting

        state = AdaptState(
            plans=dict(selector.select(profile_stats, nesting)))
        log = AdaptationLog(name=name, policy=self.policy.name,
                            policy_params=self.policy.params())

        recompiled = jrpm.recompile(program, state.plans)
        if recompiled is not None:
            log.recompile_cycles += recompiled.compile_cycles

        tls_artifact = None
        pending = []            # decisions awaiting next-epoch cycles
        last_decision_epoch = -1
        for epoch in range(self.epochs):
            tls_artifact = jrpm.execute_tls(
                recompiled, state.plans, args,
                fallback=baseline.measurement)
            telemetry = observe_epoch(epoch, state.plans, tls_artifact,
                                      jrpm.config)
            if self.verify:
                self._check_outputs(name, epoch, baseline, tls_artifact)
            for decision in pending:
                decision.after_cycles = telemetry.cycles
            pending = []

            decisions = []
            if epoch < self.epochs - 1:     # nothing left to apply to
                decisions = self.policy.decide(telemetry, state)
                decisions = self._apply(decisions, state, selector,
                                        profile_stats, nesting, epoch)
            for decision in decisions:
                decision.before_cycles = telemetry.cycles
                if decision.applied:
                    pending.append(decision)

            log.record_epoch(self._epoch_record(telemetry, state),
                             decisions)
            self._emit_trace(telemetry, decisions)

            if any(d.applied for d in decisions):
                last_decision_epoch = epoch
                recompiled = jrpm.recompile(program, state.plans)
                if recompiled is not None:
                    log.recompile_cycles += recompiled.compile_cycles
            elif self.stop_on_converged:
                break

        log.converged_epoch = last_decision_epoch + 1
        report = jrpm.assemble_report(name, baseline, profile_artifact,
                                      state.plans, tls_artifact)
        report.recompile_cycles = log.recompile_cycles \
            or report.recompile_cycles
        report.adaptation = log
        return report

    # -- decision application --------------------------------------------------
    def _apply(self, decisions, state, selector, profile_stats, nesting,
               epoch):
        """Mutate the plan set per the policy's proposals; returns the
        decision list (promotions appended, failures marked)."""
        applied = list(decisions)
        decommitted_now = []
        for decision in applied:
            plan = state.plans.get(decision.loop_id)
            if plan is None:
                decision.applied = False
                decision.evidence["skipped"] = "loop no longer planned"
                continue
            if decision.action == ACTION_DECOMMIT:
                self._decommit(decision, plan, state, epoch)
                decommitted_now.append(decision.loop_id)
            elif decision.action == ACTION_LOCK_ESCALATE:
                self._lock_escalate(decision, plan, state, selector,
                                    profile_stats, epoch)
            else:
                decision.applied = False
                decision.evidence["skipped"] = (
                    "policy proposed unknown action %r" % decision.action)
        if decommitted_now and getattr(self.policy, "promote", False):
            applied.extend(self._promote(state, selector, profile_stats,
                                         nesting, decommitted_now, epoch))
        return applied

    def _decommit(self, decision, plan, state, epoch):
        """Revert the loop (and its dependent multilevel inners) to
        sequential execution."""
        plan.decommitted = True
        del state.plans[decision.loop_id]
        dropped = [loop_id for loop_id, inner in state.plans.items()
                   if inner.multilevel_parent == decision.loop_id]
        for loop_id in dropped:
            state.plans[loop_id].decommitted = True
            del state.plans[loop_id]
        if dropped:
            decision.evidence["dropped_multilevel_inner"] = dropped
        decision.evidence["plan"] = plan.to_dict()
        state.banned.add(decision.loop_id)
        state.stamp(decision.loop_id, epoch)

    def _lock_escalate(self, decision, plan, state, selector,
                       profile_stats, epoch):
        """Protect the dominant dependence with a thread synchronizing
        lock (paper §4.2.4), bypassing the profile-time admission
        thresholds — observed violations already proved forwarding does
        not resolve the arc."""
        stats = profile_stats.get(decision.loop_id)
        sync = None
        if stats is not None:
            sync = selector.synthesize_sync(stats, plan.prediction,
                                            force=True)
        if sync is None:
            decision.applied = False
            decision.evidence["skipped"] = \
                "no dependence arc recorded by TEST"
            return
        plan.sync = sync
        plan.sync_escalated = True
        decision.evidence["arc_frequency"] = round(sync.arc_frequency, 4)
        decision.evidence["store_site"] = repr(sync.store_site)
        decision.evidence["load_site"] = repr(sync.load_site)
        state.stamp(decision.loop_id, epoch)

    def _promote(self, state, selector, profile_stats, nesting,
                 unblocked_by, epoch):
        """Re-select with the banned loops excluded; candidates that the
        decommitted STLs were shadowing may now join the plan set."""
        promotions = []
        fresh = selector.select(profile_stats, nesting,
                                banned=state.banned)
        for loop_id in sorted(fresh):
            if loop_id in state.plans or loop_id in state.banned:
                continue
            if state.in_cooldown(loop_id, epoch, self.policy.cooldown):
                continue
            plan = fresh[loop_id]
            if plan.multilevel_parent is not None \
                    and plan.multilevel_parent not in state.plans \
                    and plan.multilevel_parent not in fresh:
                continue
            state.plans[loop_id] = plan
            state.stamp(loop_id, epoch)
            promotions.append(AdaptDecision(
                epoch=epoch, loop_id=loop_id, action=ACTION_PROMOTE,
                evidence={
                    "predicted_speedup": round(
                        plan.prediction.speedup, 4),
                    "unblocked_by": list(unblocked_by),
                    "multilevel_inner": plan.multilevel_inner,
                }))
        return promotions

    # -- plumbing ------------------------------------------------------------
    def _epoch_record(self, telemetry, state):
        return EpochRecord(
            epoch=telemetry.epoch, cycles=telemetry.cycles,
            instructions=telemetry.instructions,
            plans=sorted(state.plans),
            stl={loop_id: observation.snapshot()
                 for loop_id, observation in
                 sorted(telemetry.per_stl.items())})

    def _emit_trace(self, telemetry, decisions):
        """Surface applied decisions on the Perfetto timeline (adapt
        track; timestamps use the deciding epoch's cycle clock)."""
        trace = self.jrpm.trace
        if trace is None:
            return
        for decision in decisions:
            if not decision.applied:
                continue
            trace.adapt(telemetry.cycles, decision.loop_id,
                        decision.action, decision.epoch,
                        detail=self._detail_of(decision))

    @staticmethod
    def _detail_of(decision):
        evidence = decision.evidence
        if decision.action == ACTION_DECOMMIT:
            return "realized %.2fx < %.2fx" % (
                evidence.get("realized_speedup", 0.0),
                evidence.get("threshold", 0.0))
        if decision.action == ACTION_LOCK_ESCALATE:
            return "violations/thread %.2f > %.2f" % (
                evidence.get("violation_frequency", 0.0),
                evidence.get("cutoff", 0.0))
        return "predicted %.2fx" % evidence.get("predicted_speedup", 0.0)

    def _check_outputs(self, name, epoch, baseline, tls_artifact):
        from ..core.pipeline import outputs_equal
        if not outputs_equal(baseline.measurement.output,
                             tls_artifact.measurement.output):
            raise AssertionError(
                "%s: epoch %d speculative output diverged from the "
                "sequential baseline" % (name, epoch))
