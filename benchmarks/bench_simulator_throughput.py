"""Simulator throughput — not a paper experiment, but the practical
figure a user of this reproduction cares about: how many simulated
instructions per wall-clock second the behavioral simulator delivers,
sequentially and under TLS.

Each case measures the fast engine (the default) with pytest-benchmark
and then takes a single timed reference-engine (``--engine reference``)
run of the same work, so every ``benchmarks/results/throughput_*.txt``
records the fast-vs-reference rate pair and the engine speedup stays
visible in the perf trajectory (see docs/performance.md).
"""

import time

import pytest

from repro.hydra.config import HydraConfig
from repro.hydra.machine import Machine
from repro.jit.compiler import compile_program
from repro.minijava import compile_source
from repro.core.pipeline import Jrpm

from harness import write_result

KERNEL = """
class Main {
    static int main() {
        int[] a = new int[1024];
        int s = 0;
        for (int i = 0; i < 1024; i++) { a[i] = (i * 33 + 7) & 1023; }
        for (int r = 0; r < 20; r++) {
            for (int i = 0; i < 1024; i++) {
                s = (s + a[i] * 3) & 0xFFFFF;
            }
        }
        Sys.printInt(s);
        return s;
    }
}
"""


@pytest.mark.benchmark(group="throughput")
def test_sequential_simulation_throughput(benchmark):
    config = HydraConfig()
    compiled = compile_program(compile_source(KERNEL), config)

    def run_once():
        machine = Machine(compiled, config)
        return machine.run()

    result = benchmark(run_once)
    rate = result.instructions / benchmark.stats["mean"]

    legacy_config = HydraConfig(engine="reference")
    legacy_compiled = compile_program(compile_source(KERNEL),
                                      legacy_config)
    start = time.perf_counter()
    legacy_result = Machine(legacy_compiled, legacy_config).run()
    legacy_elapsed = time.perf_counter() - start
    legacy_rate = legacy_result.instructions / legacy_elapsed
    assert legacy_result.instructions == result.instructions
    assert legacy_result.cycles == result.cycles      # cycle-exact

    write_result("throughput_sequential", [
        "sequential simulator throughput",
        "  %d simulated instructions / run" % result.instructions,
        "  fast:      ~%.0f simulated instructions / wall second"
        % rate,
        "  reference: ~%.0f simulated instructions / wall second"
        % legacy_rate,
        "  engine speedup: %.2fx" % (rate / legacy_rate),
    ], metrics={"instructions": result.instructions,
                "fastpath_insn_per_sec": rate,
                "legacy_insn_per_sec": legacy_rate,
                "engine_speedup": rate / legacy_rate},
       config={"kernel": "throughput", "mode": "sequential"},
       regression={"instructions": "lower_is_better"})
    assert result.guest_exception is None
    assert rate > 10_000     # sanity floor for pure-Python simulation
    # the predecoded engine must stay comfortably ahead of the if/elif
    # dispatch chain (acceptance: >= 2x the pre-engine baseline rate)
    assert rate > 2 * legacy_rate


@pytest.mark.benchmark(group="throughput")
def test_tls_simulation_throughput(benchmark):
    """Speculative-mode throughput: the step-5 TLS run re-executed on
    prebuilt STL code (profiling and selection staged out), under the
    fast engine's event-driven scheduler and the reference engine's
    stepwise scan."""

    def stage(engine):
        jrpm = Jrpm(config=HydraConfig(engine=engine))
        program = compile_source(KERNEL)
        baseline = jrpm.compile_baseline(program)
        profile = jrpm.profile(program)
        plans = jrpm.select(profile)
        recompiled = jrpm.recompile(program, plans)
        assert plans and recompiled is not None, \
            "throughput kernel no longer selects an STL"
        return jrpm, recompiled, plans, baseline

    jrpm, recompiled, plans, baseline = stage("fast")

    def run_tls():
        return jrpm.execute_tls(recompiled, plans,
                                fallback=baseline.measurement)

    artifact = benchmark(run_tls)
    instructions = artifact.measurement.instructions
    rate = instructions / benchmark.stats["mean"]

    jrpm_x, code_x, plans_x, base_x = stage("reference")
    start = time.perf_counter()
    artifact_x = jrpm_x.execute_tls(code_x, plans_x,
                                    fallback=base_x.measurement)
    legacy_rate = instructions / (time.perf_counter() - start)
    # observational-exactness spot check across the engines
    assert artifact_x.measurement.cycles == artifact.measurement.cycles
    assert artifact_x.measurement.instructions == instructions

    write_result("throughput_tls", [
        "TLS-mode simulator throughput (step-5 speculative run)",
        "  %d simulated instructions / run" % instructions,
        "  %d simulated cycles / run (identical in both engines)"
        % artifact.measurement.cycles,
        "  fast (event scheduler):         ~%.0f simulated instructions"
        " / wall second" % rate,
        "  reference (stepwise scheduler): ~%.0f simulated instructions"
        " / wall second" % legacy_rate,
        "  fast / reference: %.2fx" % (rate / legacy_rate),
        "  (same-run ratio pairs are the stable signal; absolute"
        " rates move with host load)",
    ], metrics={"instructions": instructions,
                "cycles": artifact.measurement.cycles,
                "event_insn_per_sec": rate,
                "legacy_insn_per_sec": legacy_rate},
       config={"kernel": "throughput", "mode": "tls"},
       regression={"cycles": "lower_is_better"})
    assert rate > 10_000
    # the fast engine must stay comfortably ahead of the reference
    # engine (the same margin as the sequential case)
    assert rate > 2 * legacy_rate


@pytest.mark.benchmark(group="throughput")
def test_full_pipeline_throughput(benchmark):
    program = compile_source(KERNEL)

    def run_pipeline():
        return Jrpm().run(program, name="throughput")

    report = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    simulated = (report.sequential.instructions
                 + report.profiling.instructions
                 + report.tls.instructions)

    start = time.perf_counter()
    legacy_report = Jrpm(config=HydraConfig(engine="reference")).run(
        program, name="throughput")
    legacy_elapsed = time.perf_counter() - start
    assert legacy_report.tls.cycles == report.tls.cycles

    write_result("throughput_pipeline", [
        "full-pipeline cost for the throughput kernel",
        "  sequential: %d instructions" % report.sequential.instructions,
        "  profiled:   %d instructions" % report.profiling.instructions,
        "  speculative: %d instructions" % report.tls.instructions,
        "  total simulated: %d" % simulated,
        "  TLS speedup: %.2fx" % report.tls_speedup,
        "  fast wall: %.2fs   reference wall: %.2fs (%.2fx)"
        % (benchmark.stats["mean"], legacy_elapsed,
           legacy_elapsed / benchmark.stats["mean"]),
    ], metrics={"total_simulated_instructions": simulated,
                "tls_speedup": report.tls_speedup,
                "fastpath_wall_seconds": benchmark.stats["mean"],
                "legacy_wall_seconds": legacy_elapsed},
       config={"kernel": "throughput", "mode": "pipeline"},
       regression={"tls_speedup": "higher_is_better"})
    assert report.outputs_match()
