"""The adaptive recompilation subsystem (repro.adapt).

Covers the policy layer with fabricated telemetry (hysteresis), the
adaptation-log schema and its validator, the per-STL wall-cycle
accounting that feeds realized speedups, plan-set round-trips through
serialization, and full controller runs: convergence on well-predicted
programs, decommit of mispredicted STLs, online lock escalation, and
promotion of previously shadowed candidates.
"""

import json

import pytest

from repro.adapt import (ACTION_DECOMMIT, ACTION_LOCK_ESCALATE,
                         ACTION_PROMOTE, AdaptDecision, AdaptState,
                         AdaptationLog, EpochRecord, EpochTelemetry,
                         StlObservation, ThresholdPolicy,
                         validate_log_dict)
from repro.core.pipeline import Jrpm, JrpmReport
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.tracer.selector import Prediction, StlPlan, SyncPlan

from conftest import interp, wrap_main

# ---------------------------------------------------------------------------
# fabricated-telemetry helpers
# ---------------------------------------------------------------------------


def _plan(loop_id, speedup=2.0, sync=None):
    prediction = Prediction(loop_id=loop_id, speedup=speedup,
                            interval=50.0, coverage_cycles=10_000,
                            avg_thread_cycles=100.0,
                            iterations_per_entry=100.0,
                            overflow_frequency=0.0, arc_frequency=0.1)
    return StlPlan(loop_id=loop_id, meta=None, prediction=prediction,
                   sync=sync)


def _telemetry(epoch, loop_id, realized, violations=0, threads=100,
               plan=None):
    observation = StlObservation(
        loop_id=loop_id, entries=1, threads_committed=threads,
        work_cycles=realized * 1000.0, wall_cycles=1000.0,
        violations=violations,
        predicted_speedup=plan.prediction.speedup if plan else 2.0,
        has_sync=bool(plan and plan.sync))
    telemetry = EpochTelemetry(epoch=epoch, cycles=50_000.0)
    telemetry.per_stl[loop_id] = observation
    return telemetry


# ---------------------------------------------------------------------------
# policy units
# ---------------------------------------------------------------------------


def test_threshold_policy_decommits_slow_stl():
    plan = _plan(1, speedup=3.0)
    state = AdaptState(plans={1: plan})
    telemetry = _telemetry(0, 1, realized=0.6, plan=plan)
    decisions = ThresholdPolicy(decommit_threshold=1.0).decide(
        telemetry, state)
    assert [d.action for d in decisions] == [ACTION_DECOMMIT]
    assert decisions[0].loop_id == 1
    assert decisions[0].evidence["realized_speedup"] == pytest.approx(
        0.6, abs=1e-3)


def test_threshold_policy_escalates_violation_storm():
    plan = _plan(1)
    state = AdaptState(plans={1: plan})
    telemetry = _telemetry(0, 1, realized=1.5, violations=60,
                           threads=100, plan=plan)
    decisions = ThresholdPolicy(violation_cutoff=0.25).decide(
        telemetry, state)
    assert [d.action for d in decisions] == [ACTION_LOCK_ESCALATE]


def test_threshold_policy_no_escalation_when_sync_present():
    sync = SyncPlan(store_site=("m", 1), load_site=("m", 2),
                    arc_frequency=0.9, avg_length=10.0)
    plan = _plan(1, sync=sync)
    state = AdaptState(plans={1: plan})
    telemetry = _telemetry(0, 1, realized=1.5, violations=60, plan=plan)
    assert ThresholdPolicy().decide(telemetry, state) == []


def test_threshold_policy_withholds_without_evidence():
    plan = _plan(1)
    state = AdaptState(plans={1: plan})
    telemetry = EpochTelemetry(epoch=0, cycles=1000.0)
    telemetry.per_stl[1] = StlObservation(loop_id=1)   # never entered
    assert ThresholdPolicy().decide(telemetry, state) == []


def test_threshold_policy_min_threads_gate():
    plan = _plan(1)
    state = AdaptState(plans={1: plan})
    telemetry = _telemetry(0, 1, realized=0.2, threads=2, plan=plan)
    assert ThresholdPolicy(min_threads=8).decide(telemetry, state) == []
    assert ThresholdPolicy(min_threads=1).decide(telemetry, state)


# ---------------------------------------------------------------------------
# hysteresis: cooldown forbids flip-flopping the same STL
# ---------------------------------------------------------------------------


def test_cooldown_blocks_repeat_decision_within_window():
    plan = _plan(1)
    policy = ThresholdPolicy(cooldown=3)
    state = AdaptState(plans={1: plan})
    first = policy.decide(_telemetry(0, 1, realized=0.5, plan=plan),
                          state)
    assert len(first) == 1
    state.stamp(1, 0)                   # the controller applies + stamps
    # Oscillating statistics inside the cooldown window: silence.
    for epoch in (1, 2):
        telemetry = _telemetry(epoch, 1,
                               realized=0.5 if epoch % 2 else 2.0,
                               plan=plan)
        assert policy.decide(telemetry, state) == []
    # Window over: the policy may act again.
    after = policy.decide(_telemetry(3, 1, realized=0.5, plan=plan),
                          state)
    assert len(after) == 1


def test_cooldown_is_per_loop():
    plans = {1: _plan(1), 2: _plan(2)}
    policy = ThresholdPolicy(cooldown=2)
    state = AdaptState(plans=plans)
    state.stamp(1, 0)
    telemetry = EpochTelemetry(epoch=1, cycles=1000.0)
    for loop_id in (1, 2):
        telemetry.per_stl[loop_id] = StlObservation(
            loop_id=loop_id, entries=1, threads_committed=100,
            work_cycles=500.0, wall_cycles=1000.0,
            predicted_speedup=2.0)
    decisions = policy.decide(telemetry, state)
    assert [d.loop_id for d in decisions] == [2]    # loop 1 cooling down


def test_adapt_state_cooldown_window_arithmetic():
    state = AdaptState()
    state.stamp(7, epoch=2)
    assert state.in_cooldown(7, epoch=3, cooldown=2)
    assert not state.in_cooldown(7, epoch=4, cooldown=2)
    assert not state.in_cooldown(8, epoch=3, cooldown=2)


# ---------------------------------------------------------------------------
# observation math
# ---------------------------------------------------------------------------


def test_observation_realized_speedup_and_frequency():
    observation = StlObservation(loop_id=1, entries=2,
                                 threads_committed=50,
                                 work_cycles=3000.0, wall_cycles=1000.0,
                                 violations=10, predicted_speedup=3.5)
    assert observation.realized_speedup == pytest.approx(3.0)
    assert observation.violation_frequency == pytest.approx(0.2)
    assert observation.misprediction == pytest.approx(3.5 / 3.0)
    snapshot = observation.snapshot()
    assert snapshot["realized"] == pytest.approx(3.0)
    json.dumps(snapshot)                            # JSON-safe


def test_observation_withholds_until_run():
    observation = StlObservation(loop_id=1)
    assert observation.realized_speedup is None
    assert observation.misprediction is None
    assert observation.snapshot()["realized"] is None


# ---------------------------------------------------------------------------
# log schema: round-trip + validation
# ---------------------------------------------------------------------------


def _sample_log():
    log = AdaptationLog(name="sample", policy="threshold",
                        policy_params={"decommit_threshold": 1.0})
    d0 = AdaptDecision(epoch=0, loop_id=1, action=ACTION_DECOMMIT,
                       evidence={"realized_speedup": 0.5},
                       before_cycles=1000.0, after_cycles=800.0)
    log.record_epoch(EpochRecord(epoch=0, cycles=1000.0, plans=[1, 2],
                                 stl={1: {"realized": 0.5}}), [d0])
    log.record_epoch(EpochRecord(epoch=1, cycles=800.0, plans=[2]))
    log.converged_epoch = 1
    log.recompile_cycles = 250
    return log


def test_log_round_trip_is_lossless():
    log = _sample_log()
    data = log.to_dict()
    json.dumps(data)
    restored = AdaptationLog.from_dict(data)
    assert restored.to_dict() == data
    assert restored.epochs_run == 2
    assert restored.initial_cycles == 1000.0
    assert restored.final_cycles == 800.0
    assert restored.steady_state_gain == pytest.approx(1.25)
    assert restored.net_cycles_saved == pytest.approx(200.0)


def test_log_validator_accepts_sample():
    assert validate_log_dict(_sample_log().to_dict()) == []


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(schema=99), "schema"),
    (lambda d: d.update(epochs=[]), "non-empty"),
    (lambda d: d["epochs"][0].update(epoch=5), "position"),
    (lambda d: d["epochs"][0].update(cycles="fast"), "not numeric"),
    (lambda d: d["decisions"][0].update(action="explode"), "action"),
    (lambda d: d["decisions"][0].update(evidence=None), "evidence"),
    (lambda d: d.update(converged_epoch="early"), "converged_epoch"),
    (lambda d: d.pop("initial_cycles"), "initial_cycles"),
])
def test_log_validator_rejects_corruption(mutate, fragment):
    data = _sample_log().to_dict()
    mutate(data)
    problems = validate_log_dict(data)
    assert problems
    assert any(fragment in problem for problem in problems)


def test_decision_describe_mentions_failure_reason():
    decision = AdaptDecision(epoch=1, loop_id=3,
                             action=ACTION_LOCK_ESCALATE,
                             evidence={"skipped": "no arc"},
                             applied=False)
    assert "not applied" in decision.describe()
    assert "no arc" in decision.describe()


# ---------------------------------------------------------------------------
# plan serialization: adaptation state must round-trip (satellite 2)
# ---------------------------------------------------------------------------


def _meta(loop_id):
    from repro.jit.annotate import LoopMeta
    return LoopMeta(loop_id, "Main.main", 0, 1, 20, {}, True, None, 12)


def test_plan_round_trip_preserves_adaptation_fields():
    sync = SyncPlan(store_site=("Main.main", 12),
                    load_site=("local", 1, 0),
                    arc_frequency=0.8, avg_length=40.0,
                    local_slot=(1, 0))
    plan = _plan(4, sync=sync)
    plan.decommitted = True
    plan.sync_escalated = True
    plan.meta = _meta(4)
    data = plan.to_dict()
    json.dumps(data)
    assert data["decommitted"] is True
    assert data["sync_escalated"] is True
    restored = StlPlan.from_dict(data)
    assert restored.decommitted is True
    assert restored.sync_escalated is True
    assert restored.sync.local_slot == (1, 0)
    assert restored.sync.store_site == ("Main.main", 12)
    assert restored.to_dict() == data


def test_plan_from_dict_tolerates_pre_adaptation_schema():
    plan = _plan(4)
    plan.meta = _meta(4)
    data = plan.to_dict()
    del data["decommitted"]
    del data["sync_escalated"]
    restored = StlPlan.from_dict(data)
    assert restored.decommitted is False
    assert restored.sync_escalated is False


# ---------------------------------------------------------------------------
# StlRunStats lifetime (satellite 1): wall cycles + per-run freshness
# ---------------------------------------------------------------------------

PARALLEL = wrap_main("""
    int[] a = new int[900];
    for (int i = 0; i < 900; i++) { a[i] = (i * 31 + 7) % 257; }
    int s = 0;
    for (int i = 0; i < 900; i++) { s += a[i] & 63; }
    Sys.printInt(s);
    return s;
""")


@pytest.fixture(scope="module")
def staged():
    """One profile + recompile, reused across the tests below."""
    jrpm = Jrpm()
    program = compile_source(PARALLEL)
    baseline = jrpm.compile_baseline(program)
    profile = jrpm.profile(program)
    plans = jrpm.select(profile)
    recompiled = jrpm.recompile(program, plans)
    return jrpm, program, baseline, profile, plans, recompiled


def test_wall_cycles_accumulated_per_stl(staged):
    jrpm, _, baseline, _, plans, recompiled = staged
    artifact = jrpm.execute_tls(recompiled, plans,
                                fallback=baseline.measurement)
    assert plans
    for loop_id, stats in artifact.stl_stats.items():
        if stats.entries == 0:
            continue
        assert stats.wall_cycles > 0.0
        # wall time inside one STL cannot exceed the whole run
        assert stats.wall_cycles <= artifact.measurement.cycles
        realized = stats.cycles_total / stats.wall_cycles
        assert 0.0 < realized <= jrpm.config.num_cpus + 1e-9


def test_stl_run_stats_do_not_accumulate_across_runs(staged):
    """Regression: a reused Jrpm must produce identical per-invocation
    StlRunStats — epoch N's counters must not include epoch N-1's."""
    jrpm, _, baseline, _, plans, recompiled = staged
    first = jrpm.execute_tls(recompiled, plans,
                             fallback=baseline.measurement)
    second = jrpm.execute_tls(recompiled, plans,
                              fallback=baseline.measurement)
    assert first.measurement.cycles == second.measurement.cycles
    assert set(first.stl_stats) == set(second.stl_stats)
    for loop_id in first.stl_stats:
        a, b = first.stl_stats[loop_id], second.stl_stats[loop_id]
        assert a is not b           # fresh counters, not shared objects
        assert a.to_dict() == b.to_dict()


def test_stl_run_stats_wall_cycles_round_trip(staged):
    jrpm, _, baseline, _, plans, recompiled = staged
    artifact = jrpm.execute_tls(recompiled, plans,
                                fallback=baseline.measurement)
    from repro.tls.stats import StlRunStats
    for stats in artifact.stl_stats.values():
        data = stats.to_dict()
        assert "wall_cycles" in data
        assert StlRunStats.from_dict(data).to_dict() == data
        # pre-adaptation dicts (no wall_cycles) must still load
        del data["wall_cycles"]
        assert StlRunStats.from_dict(data).wall_cycles == 0.0


# ---------------------------------------------------------------------------
# controller end-to-end
# ---------------------------------------------------------------------------

SERIAL_DEP = """
class Main {
    static int main(int n) {
        int[] a = new int[n];
        int s = 7;
        for (int i = 0; i < n; i = i + 1) {
            s = (s * 3 + a[i]) % 1000003;
            a[(i * 7) % n] = s;
        }
        int t = 0;
        for (int i = 0; i < n; i = i + 1) { t = t + a[i]; }
        Sys.printInt(t);
        return t;
    }
}
"""


def _permissive_config():
    """Admission thresholds low enough that TEST misjudges the serial
    dependency loop as profitable (the deliberate misprediction)."""
    return HydraConfig(min_predicted_speedup=0.05,
                       min_iterations_per_entry=1.0)


def test_adaptation_beats_initial_selection_on_misprediction():
    """Acceptance: with a deliberately mispredicting profile the final
    epoch must be strictly cheaper than the initial selection, and the
    log must name the decisions that got it there."""
    jrpm = Jrpm(config=_permissive_config())
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(300,), epochs=4, verify=True)
    log = report.adaptation
    assert log is not None
    applied = log.applied_decisions()
    assert applied, "controller made no decisions on a misprediction"
    assert log.final_cycles < log.initial_cycles
    assert log.steady_state_gain > 1.0
    assert report.outputs_match()
    # decisions carry replayable evidence
    for decision in applied:
        assert decision.evidence
        assert decision.before_cycles is not None


def test_adaptation_decommits_under_aggressive_threshold():
    """decommit_threshold above any achievable speedup reverts every
    STL to sequential execution — and the program still runs right."""
    jrpm = Jrpm(config=_permissive_config())
    policy = ThresholdPolicy(decommit_threshold=100.0, promote=False)
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(200,), policy=policy, epochs=3,
                               verify=True)
    log = report.adaptation
    actions = [d.action for d in log.applied_decisions()]
    assert ACTION_DECOMMIT in actions
    assert not report.plans              # everything reverted
    assert all(plan is not None for plan in ())  # plans dict empty
    # final epoch fell back to the sequential baseline measurement
    assert log.final_cycles == report.sequential.cycles
    assert report.outputs_match()


def test_decommitted_plans_marked_and_logged():
    jrpm = Jrpm(config=_permissive_config())
    policy = ThresholdPolicy(decommit_threshold=100.0, promote=False)
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(200,), policy=policy, epochs=3)
    log = report.adaptation
    for decision in log.applied_decisions():
        if decision.action == ACTION_DECOMMIT:
            assert decision.evidence["plan"]["decommitted"] is True


def test_lock_escalation_synthesizes_sync_plan():
    jrpm = Jrpm(config=_permissive_config())
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(300,), epochs=4, verify=True)
    log = report.adaptation
    escalations = [d for d in log.applied_decisions()
                   if d.action == ACTION_LOCK_ESCALATE]
    if escalations:                     # behaviour-dependent, but when
        loop_id = escalations[0].loop_id            # it fires, check it
        plan = report.plans.get(loop_id)
        assert plan is not None
        assert plan.sync is not None
        assert plan.sync_escalated is True


def test_well_predicted_program_converges_without_decisions():
    report = Jrpm().run_adaptive(PARALLEL, name="parallel", epochs=4,
                                 verify=True)
    log = report.adaptation
    assert log.applied_decisions() == []
    assert log.converged_epoch == 0
    assert log.epochs_run == 1          # no decision ends the run
    assert report.outputs_match()


def test_null_policy_is_one_shot_equivalent():
    """A run whose policy makes no decision is the one-shot pipeline."""
    jrpm = Jrpm(config=_permissive_config())
    never = ThresholdPolicy(decommit_threshold=0.0,
                            violation_cutoff=float("inf"))
    adaptive = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                                 args=(200,), policy=never, epochs=3)
    one_shot = Jrpm(config=_permissive_config()).run(
        SERIAL_DEP, name="serialdep", args=(200,))
    assert adaptive.adaptation.applied_decisions() == []
    assert adaptive.tls.cycles == one_shot.tls.cycles
    assert sorted(adaptive.plans) == sorted(one_shot.plans)


NESTED = """
class Main {
    static int main(int n) {
        int[] a = new int[n];
        int s = 7;
        for (int r = 0; r < 6; r = r + 1) {
            for (int i = 0; i < n; i = i + 1) {
                s = (s * 3 + a[i] + r) % 1000003;
                a[(i * 7) % n] = s;
            }
        }
        int t = 0;
        for (int i = 0; i < n; i = i + 1) { t = t + a[i]; }
        Sys.printInt(t);
        return t;
    }
}
"""


def test_promotion_reselects_shadowed_candidates():
    """When a decommit unblocks the nest, re-selection may promote a
    previously conflicting loop level; either way, banned loops never
    come back."""
    jrpm = Jrpm(config=_permissive_config())
    report = jrpm.run_adaptive(NESTED, name="nested", args=(120,),
                               epochs=5, verify=True)
    log = report.adaptation
    banned = {d.loop_id for d in log.applied_decisions()
              if d.action == ACTION_DECOMMIT}
    promoted = {d.loop_id for d in log.applied_decisions()
                if d.action == ACTION_PROMOTE}
    assert banned.isdisjoint(promoted)
    assert banned.isdisjoint(report.plans)
    for decision in log.applied_decisions():
        if decision.action == ACTION_PROMOTE:
            assert decision.evidence["unblocked_by"]
    assert report.outputs_match()


def test_verify_flag_checks_against_baseline():
    # verify=True on a healthy run must not raise
    Jrpm().run_adaptive(PARALLEL, name="parallel", epochs=2,
                        verify=True)


# ---------------------------------------------------------------------------
# report integration: adaptation rides the report schema + rendering
# + trace events
# ---------------------------------------------------------------------------


def test_report_schema_round_trips_adaptation():
    jrpm = Jrpm(config=_permissive_config())
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(200,), epochs=3)
    assert report.adaptation is not None
    data = report.to_dict()
    # schema v3 introduced the adaptation block; later bumps keep it
    assert data["schema"] == JrpmReport.SCHEMA_VERSION >= 3
    json.dumps(data)
    restored = JrpmReport.from_dict(data)
    assert restored.adaptation is not None
    assert restored.to_dict() == data
    assert restored.adaptation.to_dict() == report.adaptation.to_dict()


def test_one_shot_report_has_no_adaptation():
    report = Jrpm().run(PARALLEL, name="parallel")
    assert report.adaptation is None
    data = report.to_dict()
    assert data["adaptation"] is None
    assert JrpmReport.from_dict(data).adaptation is None


def test_format_report_includes_adaptation_section():
    from repro.core.report import format_report
    jrpm = Jrpm(config=_permissive_config())
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(200,), epochs=3)
    text = format_report(report, verbose=True)
    assert "adaptation:" in text
    assert "policy threshold" in text


def test_adapt_decisions_reach_the_trace():
    from repro.trace import EV_ADAPT, format_timeline
    from repro.trace.export import chrome_trace, validate_chrome_trace
    jrpm = Jrpm(config=_permissive_config(), trace=True)
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(300,), epochs=4)
    applied = report.adaptation.applied_decisions()
    assert applied
    adapt_events = [event for event in report.trace.events()
                    if event.kind == EV_ADAPT]
    assert len(adapt_events) == len(applied)
    for event in adapt_events:
        action, epoch, detail = event.data
        assert action in (ACTION_DECOMMIT, ACTION_LOCK_ESCALATE,
                          ACTION_PROMOTE)
        assert isinstance(detail, str)
    data = chrome_trace(report.trace, name="adapt-test")
    assert validate_chrome_trace(data) == []
    assert any(event.get("cat") == "adapt"
               for event in data["traceEvents"])
    # ring keeps only the newest events; widen the per-loop window so
    # the epoch-0 adapt marks survive the later epochs' thread spans
    timeline = format_timeline(report.trace,
                               max_events_per_loop=10 ** 9)
    assert "adapt" in timeline


# ---------------------------------------------------------------------------
# adaptation preserves program semantics (quick oracle check; the full
# registry sweep lives in test_adapt_properties.py)
# ---------------------------------------------------------------------------


def test_adaptive_output_matches_interpreter_oracle():
    expected = interp(SERIAL_DEP, 250)
    jrpm = Jrpm(config=_permissive_config())
    report = jrpm.run_adaptive(SERIAL_DEP, name="serialdep",
                               args=(250,), epochs=4, verify=True)
    assert report.tls.output == expected.output
    assert report.tls.return_value == expected.return_value
