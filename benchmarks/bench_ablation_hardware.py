"""Hardware ablations beyond the paper's tables — the retargetability
argument of §1 ("decompositions can be tailored dynamically for specific
hardware"): CPU count sweep, speculative buffer sizing, and the cost of
the write-through memory system."""

from repro.minijava import compile_source
from repro.workloads import lookup

from harness import (HydraConfig, Jrpm, geomean, run_workload,
                     write_result)

SWEEP_BENCHMARKS = ["IDEA", "raytrace", "FourierTest", "decJpeg", "euler"]


def test_cpu_count_sweep():
    rows = ["CPU count sweep (geomean speedup over %s)"
            % ", ".join(SWEEP_BENCHMARKS)]
    means = {}
    for cpus in (2, 4, 8):
        speedups = []
        for name in SWEEP_BENCHMARKS:
            report = run_workload(name, tag="cpus%d" % cpus,
                                  config=HydraConfig(num_cpus=cpus))
            speedups.append(report.tls_speedup)
        means[cpus] = geomean(speedups)
        rows.append("  %d CPUs: geomean %.2fx" % (cpus, means[cpus]))
    assert means[2] < means[4] < means[8]
    assert means[8] > 4.0
    write_result("ablation_cpus", rows)


def test_store_buffer_sizing():
    """Shrinking the store buffers forces overflow stalls on loops that
    the default hardware runs cleanly (the fft/large-iteration effect of
    §6.2)."""
    rows = ["store-buffer sizing on euler (2D stencil)"]
    default = run_workload("euler")
    tiny = run_workload(
        "euler", tag="tiny-buffers",
        config=HydraConfig(store_buffer_lines=2, load_buffer_lines=16))
    rows.append("  default buffers: %.2fx, %d overflow stalls"
                % (default.tls_speedup, default.breakdown.overflow_stalls))
    rows.append("  tiny buffers:    %.2fx, %d overflow stalls"
                % (tiny.tls_speedup, tiny.breakdown.overflow_stalls))
    # With tiny buffers either the selector avoids the loops (fewer
    # STLs -> less speedup) or stalls eat the gain.
    assert tiny.tls_speedup <= default.tls_speedup + 0.05
    write_result("ablation_buffers", rows)


def test_interprocessor_latency_matters_for_sync():
    """Synchronizing locks forward values between CPUs, so inflating the
    interprocessor latency slows sync-bound benchmarks."""
    rows = ["interprocessor latency on monteCarlo (sync-lock bound)"]
    fast = run_workload("monteCarlo")
    slow = run_workload(
        "monteCarlo", tag="slow-bus",
        config=HydraConfig(interprocessor_cycles=60))
    rows.append("  10-cycle forwarding: %.2fx" % fast.tls_speedup)
    rows.append("  60-cycle forwarding: %.2fx" % slow.tls_speedup)
    assert slow.tls_speedup < fast.tls_speedup
    write_result("ablation_interprocessor", rows)


def test_profile_iteration_target():
    """§8 future work: 'how much profiling is needed before
    recompilation' — sweep the 1000-iteration heuristic."""
    rows = ["profiling iteration target sweep on raytrace"]
    totals = {}
    for target in (100, 1000, 10000):
        report = run_workload(
            "raytrace", tag="target%d" % target,
            config=HydraConfig(profile_iteration_target=target))
        totals[target] = report.total_speedup
        rows.append("  target %5d iterations: total speedup %.2fx "
                    "(profile fraction %.2f)"
                    % (target, report.total_speedup,
                       report.profile_fraction))
    # Less profiling -> less time spent in the slow annotated run.
    assert totals[100] >= totals[10000]
    write_result("ablation_profile_target", rows)


def test_dataset_sensitivity():
    """Table 3 column (b): for data-set sensitive programs the selected
    decomposition (or its level) changes with the input size."""
    rows = ["data-set sensitivity: selected STLs at small vs large"]
    for name in ("LuFactor", "euler", "shallow"):
        workload = lookup(name)
        small = Jrpm().run(compile_source(workload.source("small")))
        large = Jrpm().run(compile_source(workload.source("large")))
        small_sel = sorted(p.meta.ordinal for p in small.plans.values())
        large_sel = sorted(p.meta.ordinal for p in large.plans.values())
        rows.append("  %-10s small=%s large=%s"
                    % (name, small_sel, large_sel))
    write_result("ablation_dataset", rows)
