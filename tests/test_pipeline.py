"""The five-step Jrpm pipeline and its report (paper Fig. 1, 8, 9)."""

import pytest

from repro import Jrpm, compile_source
from repro.hydra.config import HydraConfig
from repro.hydra.machine import Machine

from conftest import registry_case, registry_params, wrap_main

PROGRAM = wrap_main("""
    int[] a = new int[1200];
    for (int i = 0; i < 1200; i++) { a[i] = (i * 31 + 7) % 257; }
    int s = 0;
    for (int i = 0; i < 1200; i++) { s += a[i] & 63; }
    Sys.printInt(s);
    return s;
""")


@pytest.fixture(scope="module")
def report():
    return Jrpm().run(compile_source(PROGRAM), name="pipeline-test")


def test_all_three_runs_recorded(report):
    assert report.sequential.cycles > 0
    assert report.profiling.cycles > report.sequential.cycles
    assert 0 < report.tls.cycles < report.sequential.cycles


def test_profiling_slowdown_in_paper_band(report):
    # Paper §3.2: average 7.8%, worst ~25%; our band is looser but the
    # slowdown must be small and nonzero.
    assert 1.0 < report.profiling_slowdown < 1.6


def test_speedup_properties(report):
    assert report.tls_speedup > 2.0
    assert report.predicted_speedup > 1.2


def test_prediction_close_to_actual(report):
    # TEST predictions are optimistic but in the ballpark (Fig. 8).
    ratio = report.predicted_speedup / report.tls_speedup
    assert 0.6 < ratio < 2.0


def test_plans_and_loop_table(report):
    assert report.plans
    for plan in report.plans.values():
        assert plan.loop_id in report.loop_table
        assert plan.prediction.speedup > 1.2


def test_compile_cycles_positive(report):
    assert report.compile_cycles > 0
    assert report.recompile_cycles > 0


def test_profile_fraction_reflects_iteration_target(report):
    # 1200 iterations of the dominant loop vs the scaled 100-iteration
    # target: a small slice of the run is spent profiling.
    assert 0.0 < report.profile_fraction < 0.3


def test_profile_fraction_with_paper_target(report):
    from repro.hydra.config import HydraConfig
    paper = Jrpm(config=HydraConfig(profile_iteration_target=1000)).run(
        compile_source(PROGRAM))
    assert paper.profile_fraction > report.profile_fraction


def test_total_speedup_accounts_for_overheads(report):
    assert report.total_speedup <= report.tls_speedup
    phases = report.phase_cycles()
    assert set(phases) == {"application", "gc", "compile", "profiling",
                           "recompile"}
    assert abs(sum(phases.values()) - report.total_cycles_with_overheads) \
        < report.sequential.cycles * 0.05


def test_outputs_match(report):
    assert report.outputs_match()


def test_breakdown_present(report):
    assert report.breakdown is not None
    assert report.breakdown.commits > 0


def test_program_without_loops_passes_through():
    report = Jrpm().run(compile_source(wrap_main(
        "Sys.printInt(41 + 1); return 42;")))
    assert not report.plans
    assert report.tls.cycles == report.sequential.cycles
    assert report.tls_speedup == 1.0
    assert report.breakdown.serial > 0


def test_source_string_accepted_directly():
    report = Jrpm().run(PROGRAM)
    assert report.outputs_match()


def test_serial_fraction_between_zero_and_one(report):
    assert 0.0 <= report.serial_fraction <= 1.0


def test_run_jrpm_convenience():
    from repro import run_jrpm
    report = run_jrpm(wrap_main("""
        int t = 0;
        for (int i = 0; i < 300; i++) { t += i % 5; }
        Sys.printInt(t);
        return t;
    """), name="conv")
    assert report.name == "conv"
    assert report.outputs_match()


def test_retargetability_more_cpus(report):
    bigger = Jrpm(config=HydraConfig(num_cpus=8)).run(
        compile_source(PROGRAM))
    assert bigger.outputs_match()
    assert bigger.tls_speedup > report.tls_speedup


# -- staged pipeline API ------------------------------------------------------

def test_staged_api_matches_run_facade(report):
    """Driving the five stages by hand, with the simulated baseline,
    reproduces run() (which derives its baseline from TEST) exactly."""
    jrpm = Jrpm()
    program = compile_source(PROGRAM)
    baseline = jrpm.compile_baseline(program)
    profile = jrpm.profile(program)
    derived = profile.baseline()
    assert derived.compiled is None
    assert derived.measurement.to_dict() == baseline.measurement.to_dict()
    assert derived.compile_cycles == baseline.compile_cycles
    plans = jrpm.select(profile)
    recompiled = jrpm.recompile(program, plans)
    tls = jrpm.execute_tls(recompiled, plans,
                           fallback=baseline.measurement)
    staged = jrpm.assemble_report("pipeline-test", baseline, profile,
                                  plans, tls)
    assert staged.to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# derived baseline: ProfileArtifact.baseline() vs compile_baseline()
# ---------------------------------------------------------------------------

def assert_derived_baseline_exact(source, config=None):
    """The baseline run() derives from the TEST run equals the simulated
    reference field for field; returns both measurements."""
    jrpm = Jrpm(config=config)
    program = compile_source(source)
    simulated = jrpm.compile_baseline(program)
    profile = jrpm.profile(program)
    derived = profile.baseline()
    assert derived.measurement.to_dict() == simulated.measurement.to_dict()
    assert derived.compile_cycles == simulated.compile_cycles
    assert profile.annotation_instructions > 0
    return profile.measurement, derived.measurement


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("name", registry_params())
def test_derived_baseline_registry(name, engine):
    """The registry sweep's report derives the baseline its simulated
    ``compile_baseline`` measures: the case's one second simulation."""
    case = registry_case(name, engine)
    report = case.report
    simulated = Jrpm(config=HydraConfig(engine=engine)) \
        .compile_baseline(case.program)
    assert report.sequential.to_dict() == simulated.measurement.to_dict()
    assert report.compile_cycles == simulated.compile_cycles
    assert report.profiling.instructions > report.sequential.instructions


#: programs the registry never exercises: GC inside an annotated loop,
#: and guest exceptions thrown mid-loop after annotation ops (the
#: divide raises inside a fast-engine block that ran an LWL)
ADVERSARIAL = {
    "gc": wrap_main("""
        int s = 0;
        for (int i = 0; i < 300; i++) {
            int[] t = new int[16];
            t[i % 16] = i;
            s = s * 3 + t[i % 16];
        }
        Sys.printInt(s);
        return s;
    """),
    "array-index": wrap_main("""
        int[] a = new int[40];
        int s = 1;
        Sys.printInt(s);
        for (int i = 0; i < 60; i++) {
            s = s * 3 + i;
            a[i] = s;
        }
        return s;
    """),
    "divide-by-zero": wrap_main("""
        int s = 7;
        Sys.printInt(s);
        for (int i = 0; i < 60; i++) {
            s = (s * 7 + 1000 / (i - 25)) % 1009;
        }
        return s;
    """),
}


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_derived_baseline_adversarial(case, engine):
    config = HydraConfig(engine=engine, gc_threshold_bytes=2048)
    test, derived = assert_derived_baseline_exact(ADVERSARIAL[case], config)
    assert derived.output
    if case == "gc":
        assert derived.gc_cycles > 0
        assert derived.guest_exception is None
    else:
        assert type(derived.guest_exception).__name__ == {
            "array-index": "ArrayIndexException",
            "divide-by-zero": "ArithmeticException"}[case]
    assert test.cycles > derived.cycles


def _count_simulations(monkeypatch):
    """Record the compile mode of every ``Machine.run``."""
    modes = []
    run = Machine.run

    def counted(machine, *args, **kwargs):
        modes.append(machine.compiled.mode)
        return run(machine, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counted)
    return modes


def test_cold_run_simulates_twice(monkeypatch):
    modes = _count_simulations(monkeypatch)
    report = Jrpm().run(compile_source(PROGRAM))
    assert report.plans
    assert modes == ["annotated", "tls"]


def test_cold_run_without_plans_simulates_once(monkeypatch):
    modes = _count_simulations(monkeypatch)
    report = Jrpm().run(compile_source(wrap_main("""
        int x = 1 + 2;
        Sys.printInt(x);
        return x;
    """)))
    assert not report.plans
    assert modes == ["annotated"]


def test_adaptive_run_never_simulates_the_plain_program(monkeypatch):
    modes = _count_simulations(monkeypatch)
    Jrpm().run_adaptive(compile_source(PROGRAM), epochs=2)
    assert modes[0] == "annotated"
    assert "plain" not in modes


def test_staged_artifacts_expose_their_measurements():
    jrpm = Jrpm()
    program = compile_source(PROGRAM)
    baseline = jrpm.compile_baseline(program)
    assert baseline.measurement.cycles > 0
    assert baseline.compile_cycles > 0
    profile = jrpm.profile(program)
    assert profile.annotations > 0
    assert profile.loop_table and profile.stats
    plans = jrpm.select(profile)
    assert plans
    recompiled = jrpm.recompile(program, plans)
    assert recompiled is not None
    tls = jrpm.execute_tls(recompiled, plans,
                           fallback=baseline.measurement)
    assert 0 < tls.measurement.cycles < baseline.measurement.cycles
    assert tls.recompile_cycles > 0


def test_execute_tls_without_plans_falls_back_to_baseline():
    jrpm = Jrpm()
    program = compile_source(wrap_main("""
        int x = 1 + 2;
        Sys.printInt(x);
        return x;
    """))
    baseline = jrpm.compile_baseline(program)
    assert jrpm.recompile(program, {}) is None
    tls = jrpm.execute_tls(None, {}, fallback=baseline.measurement)
    assert tls.measurement is baseline.measurement
    assert tls.breakdown.serial == baseline.measurement.cycles
    with pytest.raises(ValueError):
        jrpm.execute_tls(None, {})          # fallback is mandatory
