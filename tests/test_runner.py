"""Tests for the parallel suite runner, report cache and serialization.

Tiny synthetic job specs (explicit sources) keep the multiprocess tests
fast; real registry workloads appear only where the contract is about
the registry (size/variant resolution, sharing with the daemon).
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.pipeline import Jrpm, JrpmReport
from repro.minijava import compile_source
from repro.runner import (ProcessPool, ReportCache, SuiteRunError,
                          SuiteRunner)
from repro.service import JobSpec, RunOptions, Session, job_fingerprint
from repro.service.jobs import resolve_workload
from repro.service.store import ArtifactStore

from conftest import LONG_RUNNING, CrashOnce

#: a small but genuinely parallelizable program (reduction loop)
TINY = """
class Main {
    static int main() {
        int sum = 0;
        for (int i = 0; i < 4000; i++) {
            sum = sum + (i & 1023);
        }
        Sys.printInt(sum);
        return sum;
    }
}
"""

TINY_B = TINY.replace("4000", "3000")


def tiny_spec(source=TINY, verb="run", name="tiny", **options):
    return JobSpec(verb=verb, source=source, name=name,
                   options=RunOptions(**options))


# ---------------------------------------------------------------------------
# serialization round-trip
# ---------------------------------------------------------------------------

def test_report_roundtrip_is_lossless():
    report = Jrpm().run(compile_source(TINY), name="tiny")
    data = report.to_dict()
    # must survive actual JSON (string keys, no tuples, no sets)
    restored = JrpmReport.from_dict(json.loads(json.dumps(data)))
    assert restored.to_dict() == data
    # derived metrics identical
    assert restored.tls_speedup == report.tls_speedup
    assert restored.total_speedup == report.total_speedup
    assert restored.serial_fraction == report.serial_fraction
    assert restored.profile_fraction == report.profile_fraction
    assert restored.phase_cycles() == report.phase_cycles()
    assert restored.outputs_match() == report.outputs_match()
    # object-graph invariants mirrored
    assert restored.dynamic_nesting == report.dynamic_nesting
    for loop_id, plan in restored.plans.items():
        assert plan.meta is restored.loop_table[loop_id]
    # rendering identical
    from repro.core.report import format_report
    assert (format_report(restored, verbose=True)
            == format_report(report, verbose=True))


def test_tls_fallback_report_roundtrip():
    """A report whose TLS run aliases the sequential run (no plans)
    preserves that aliasing through the round-trip."""
    source = """
class Main {
    static int main() {
        int x = 3;
        Sys.printInt(x);
        return x;
    }
}
"""
    report = Jrpm().run(compile_source(source), name="noplans")
    assert not report.plans
    restored = JrpmReport.from_dict(json.loads(json.dumps(
        report.to_dict())))
    assert restored.tls is restored.sequential
    assert restored.to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

def test_cache_hit_and_invalidation(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = SuiteRunner(jobs=1, cache_dir=cache_dir)
    [report] = cold.run([tiny_spec()])
    assert cold.metrics.hits == 0 and cold.metrics.misses == 1

    # identical spec -> hit
    warm = SuiteRunner(jobs=1, cache_dir=cache_dir)
    [cached] = warm.run([tiny_spec()])
    assert warm.metrics.hits == 1 and warm.metrics.misses == 0
    assert cached.to_dict() == report.to_dict()

    # config change -> miss
    cfg = SuiteRunner(jobs=1, cache_dir=cache_dir)
    cfg.run([tiny_spec(cpus=2)])
    assert cfg.metrics.misses == 1

    # source change -> miss
    src = SuiteRunner(jobs=1, cache_dir=cache_dir)
    src.run([tiny_spec(source=TINY_B)])
    assert src.metrics.misses == 1

    # code-version salt participates in the key
    key_now = job_fingerprint(tiny_spec())
    key_other = job_fingerprint(tiny_spec(),
                                salt="different-code-version")
    assert key_now != key_other


def test_cache_key_diverges_on_adapt_knobs():
    """Adaptive runs must never alias one-shot cache entries (and the
    adaptation knobs themselves are part of the key)."""
    base = job_fingerprint(tiny_spec())
    adapt = job_fingerprint(tiny_spec(verb="run_adaptive"))
    assert adapt != base
    assert job_fingerprint(tiny_spec(verb="run_adaptive",
                                     epochs=7)) != adapt
    assert job_fingerprint(tiny_spec(verb="run_adaptive",
                                     policy="null")) != adapt
    # the epoch/policy knobs and the verb-implied adapt flag are inert
    # for every other verb
    assert job_fingerprint(tiny_spec(epochs=7)) == base
    assert job_fingerprint(tiny_spec(policy="null")) == base
    assert job_fingerprint(tiny_spec(adapt=True)) == base
    assert job_fingerprint(tiny_spec(verb="profile", epochs=7)) \
        == job_fingerprint(tiny_spec(verb="profile"))


def test_cached_adapt_run_preserves_adaptation_log(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = SuiteRunner(jobs=1, cache_dir=cache_dir)
    [report] = cold.run([tiny_spec(verb="run_adaptive", epochs=2)])
    assert cold.metrics.misses == 1
    assert report.adaptation is not None
    assert report.adaptation.epochs_run >= 1

    warm = SuiteRunner(jobs=1, cache_dir=cache_dir)
    [cached] = warm.run([tiny_spec(verb="run_adaptive", epochs=2)])
    assert warm.metrics.hits == 1
    assert cached.adaptation is not None
    assert cached.adaptation.to_dict() == report.adaptation.to_dict()
    assert cached.to_dict() == report.to_dict()


def test_cache_corrupt_entry_reads_as_miss(tmp_path):
    cache = ReportCache(str(tmp_path))
    spec = tiny_spec()
    key = job_fingerprint(spec)
    cache.put(key, {"report": {"bogus": True}})
    assert cache.get(key) is not None
    with open(cache.path_for(key), "w") as fh:
        fh.write("{truncated")
    assert ArtifactStore(disk_cache=cache).get(spec) is None  # -> miss
    assert not os.path.exists(cache.path_for(key))   # and removed


def test_no_cache_runner_stores_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("JRPM_CACHE_DIR", str(tmp_path))
    runner = SuiteRunner(jobs=1, use_cache=False)
    runner.run([tiny_spec()])
    assert runner.metrics.misses == 1
    assert runner.store.disk_cache is None
    assert os.listdir(str(tmp_path)) == []
    again = SuiteRunner(jobs=1, use_cache=False)
    again.run([tiny_spec()])
    assert again.metrics.misses == 1


def test_suite_and_daemon_store_share_warm_state(fresh_registry,
                                                  tmp_path):
    """A suite run and an ArtifactStore over the same cache directory
    key one run identically: each side's entry is a hit for the
    other."""
    suite_dir = str(tmp_path / "suite-first")
    SuiteRunner(cache_dir=suite_dir).run_suite(size="small",
                                               workloads=["BitOps"])
    store = ArtifactStore(disk_cache=ReportCache(suite_dir))
    before = fresh_registry.total("jrpm_store_lookups", outcome="miss")
    report = Session.local(store=store).run(workload="BitOps",
                                            size="small")
    assert fresh_registry.total("jrpm_store_lookups", outcome="hit") == 1
    assert fresh_registry.total("jrpm_store_lookups",
                                outcome="miss") == before
    assert report.name == "BitOps"

    store_dir = str(tmp_path / "store-first")
    store = ArtifactStore(disk_cache=ReportCache(store_dir))
    direct = Session.local(store=store).run(workload="BitOps",
                                            size="small")
    assert fresh_registry.total("jrpm_store_lookups",
                                outcome="miss") == before + 1
    runner = SuiteRunner(cache_dir=store_dir)
    reports = runner.run_suite(size="small", workloads=["BitOps"])
    assert (runner.metrics.hits, runner.metrics.misses) == (1, 0)
    assert reports["BitOps"].to_dict() == direct.to_dict()


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------

def test_parallel_reports_identical_to_serial(tmp_path):
    specs = [tiny_spec(), tiny_spec(source=TINY_B, name="b")]
    serial = SuiteRunner(jobs=1, use_cache=False).run(specs)
    parallel = SuiteRunner(jobs=4, use_cache=False).run(specs)
    assert len(serial) == len(parallel) == 2
    for left, right in zip(serial, parallel):
        assert left.to_dict() == right.to_dict()


def test_suite_metrics_are_the_same_at_every_jobs():
    """Pool workers' metric deltas fold into the parent registry, so a
    suite accounts the same simulated work at ``--jobs 1`` and ``N``,
    and its summary (a registry delta) prints the same lines but for
    the wall times and the worker count."""
    from repro.metrics import MetricsRegistry
    from repro.metrics.registry import swap_registry

    def accounted(jobs):
        registry = MetricsRegistry()
        previous = swap_registry(registry)
        try:
            runner = SuiteRunner(jobs=jobs, use_cache=False)
            runner.run([tiny_spec(), tiny_spec(source=TINY_B, name="b"),
                        tiny_spec(verb="run_adaptive", epochs=2,
                                  trace=True)])
            summary = runner.metrics.summary().splitlines()
        finally:
            swap_registry(previous)
        counts = {name: [(key, child.value)
                         for key, child in registry.get(name).series()]
                  for name in ("jrpm_runs", "jrpm_run_simulated_cycles",
                               "jrpm_adapt_epochs",
                               "jrpm_trace_events_recorded")}
        assert summary[0].startswith("runner: 3 runs on %d worker"
                                     % jobs)
        assert summary[2].startswith("work:   ")
        return counts, [summary[1], summary[2].split(",")[1]] + summary[3:]

    inline, inline_lines = accounted(1)
    assert inline["jrpm_runs"] == [(("cold",), 3.0)]
    pooled, pooled_lines = accounted(2)
    assert pooled == inline
    assert pooled_lines == inline_lines
    assert [line.split(":")[0] for line in inline_lines[2:]] \
        == ["tls", "trace", "adapt"]


def test_worker_crash_is_retried_once(tmp_path):
    marker = str(tmp_path / "crash.marker")
    runner = SuiteRunner(jobs=2, use_cache=False)
    runner._executor = CrashOnce(marker, runner._executor)
    [report] = runner.run([tiny_spec()])
    record = runner.metrics.records[-1]
    assert record.status == "ok"
    assert record.attempts == 2              # died once, retried once
    assert "retry:  1 run retried" in runner.metrics.summary()
    assert os.path.exists(marker)
    assert report.outputs_match()


def test_failed_run_raises_with_diagnostics(tmp_path):
    bad = tiny_spec(source="class Main { static int main() { return }")
    runner = SuiteRunner(jobs=1, use_cache=False)
    with pytest.raises(SuiteRunError) as excinfo:
        runner.run([bad])
    assert "tiny" in str(excinfo.value)
    assert runner.metrics.failures


def test_inline_run_honours_its_timeout():
    """``--jobs 1`` runs in this process, under the same per-run
    deadline a pool worker gets, reported the same way."""
    runner = SuiteRunner(jobs=1, use_cache=False)
    started = time.perf_counter()
    with pytest.raises(SuiteRunError) as excinfo:
        runner.run([JobSpec(verb="run", source=LONG_RUNNING, name="tiny",
                            options=RunOptions(timeout=1.0))])
    assert time.perf_counter() - started < 3.0
    [(_, status, error)] = excinfo.value.failures
    assert status == "timeout"
    assert "1s timeout" in error
    assert runner.metrics.records[-1].status == "timeout"


def test_manual_variant_resolution_errors_before_running():
    from repro.workloads import all_workloads
    name = next(w.name for w in all_workloads()
                if not w.has_manual_variant)
    with pytest.raises(ValueError, match="manual"):
        resolve_workload(name, "small", "manual")


def test_unknown_workload_is_a_value_error():
    with pytest.raises(ValueError, match="unknown workload 'Nope'"):
        resolve_workload("Nope")
    with pytest.raises(ValueError, match="unknown workload 'Nope'"):
        SuiteRunner(use_cache=False).run_suite(size="small",
                                               workloads=["Nope"])


# ---------------------------------------------------------------------------
# process pool unit tests (module-level fns so they pickle under spawn)
# ---------------------------------------------------------------------------

def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError("boom %s" % x)


def _die(x):
    os._exit(3)


def _sleep(x):
    time.sleep(30)


def test_pool_runs_all_tasks():
    pool = ProcessPool(_square, jobs=3)
    outcomes = pool.map([(i, i) for i in range(7)])
    assert sorted(outcomes) == list(range(7))
    assert all(outcomes[i].ok and outcomes[i].value == i * i
               for i in range(7))


def test_pool_reports_python_errors():
    pool = ProcessPool(_boom, jobs=2)
    outcomes = pool.map([(0, "x")])
    assert outcomes[0].status == "error"
    assert "boom x" in outcomes[0].error


def test_pool_gives_up_after_retry():
    pool = ProcessPool(_die, jobs=2, retries=1)
    outcomes = pool.map([(0, None)])
    assert outcomes[0].status == "crashed"
    assert outcomes[0].attempts == 2


def test_pool_enforces_timeout():
    with ProcessPool(_sleep, jobs=1, timeout=0.5) as pool:
        start = time.perf_counter()
        outcomes = pool.map([(0, None)])
    assert outcomes[0].status == "timeout"
    assert time.perf_counter() - start < 15


# ---------------------------------------------------------------------------
# process pool lifecycle: workers persist across map() until close()
# ---------------------------------------------------------------------------

def _pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _die_once(marker):
    """Crash the first worker that runs this task, succeed after."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(5)
    return os.getpid()


def _spawned(registry):
    return registry.total("jrpm_pool_workers_spawned")


def _live_children(pids):
    return [child.pid for child in multiprocessing.active_children()
            if child.pid in pids]


def test_pool_workers_serve_consecutive_maps(fresh_registry):
    with ProcessPool(_pid, jobs=2) as pool:
        first = pool.map([(i, 0.05) for i in range(4)])
        pids = pool.pids
        second = pool.map([(i, 0.05) for i in range(4)])
        assert pool.pids == pids
    assert {outcome.value for outcome in first.values()} <= set(pids)
    assert {outcome.value for outcome in second.values()} <= set(pids)
    assert _spawned(fresh_registry) == 2


def test_pool_crash_retries_on_replacement_then_serves_next_batch(
        tmp_path, fresh_registry):
    warm = tmp_path / "warm"
    warm.touch()                                # no crash: start workers
    with ProcessPool(_die_once, jobs=2) as pool:
        pool.map([(0, str(warm))])
        pids = pool.pids
        assert _spawned(fresh_registry) == 2
        outcome = pool.map([(0, str(tmp_path / "crash"))])[0]
        assert outcome.ok and outcome.attempts == 2
        assert _spawned(fresh_registry) == 3          # one replacement
        assert len(set(pool.pids) - set(pids)) == 1
        assert outcome.value in pool.pids
        again = pool.map([(i, str(tmp_path / "crash")) for i in range(3)])
        assert all(o.ok and o.attempts == 1 for o in again.values())
        assert _spawned(fresh_registry) == 3


def test_pool_replaces_a_worker_that_died_between_maps(fresh_registry):
    with ProcessPool(_pid, jobs=2) as pool:
        pool.map([(0, 0.0), (1, 0.0)])
        dead = pool.pids[0]
        os.kill(dead, signal.SIGKILL)
        while _live_children([dead]):
            time.sleep(0.01)
        outcomes = pool.map([(i, 0.0) for i in range(4)])
        assert all(o.ok and o.attempts == 1 for o in outcomes.values())
        assert dead not in pool.pids
        assert _spawned(fresh_registry) == 3


def test_pool_timeout_kills_only_its_own_worker(fresh_registry):
    with ProcessPool(_pid, jobs=2) as pool:
        pool.map([(0, 0.0), (1, 0.0)])
        pids = pool.pids
        outcomes = pool.map([("stuck", 30.0, 0.5), ("quick", 1.0, 20.0)])
        assert outcomes["stuck"].status == "timeout"
        assert outcomes["quick"].ok
        survivor = outcomes["quick"].value
        assert survivor in pids and survivor in pool.pids
        assert outcomes["stuck"].pid in pids
        assert outcomes["stuck"].pid not in pool.pids
        assert not _live_children([outcomes["stuck"].pid])
        assert _spawned(fresh_registry) == 3


def test_pool_runs_a_mixed_timeout_batch_concurrently():
    with ProcessPool(_pid, jobs=2) as pool:
        pool.map([(0, 0.0), (1, 0.0)])           # workers up before timing
        start = time.perf_counter()
        outcomes = pool.map([(0, 1.0, 30.0), (1, 1.0, 60.0)])
        elapsed = time.perf_counter() - start
    assert all(outcome.ok for outcome in outcomes.values())
    assert outcomes[0].value != outcomes[1].value
    assert elapsed < 1.9, elapsed


def test_pool_close_leaves_no_live_children():
    pool = ProcessPool(_pid, jobs=2)
    pool.map([(0, 0.0), (1, 0.0)])
    pids = pool.pids
    assert len(_live_children(pids)) == 2
    pool.close()
    assert pool.pids == []
    assert not _live_children(pids)
    pool.close()                                # idempotent


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_suite_summary_counts_hits_misses_and_tls(tmp_path):
    """The summary is a registry delta over one runner's invocation:
    one warm hit plus one executed miss, whose TLS outcomes it prints."""
    cache_dir = str(tmp_path / "c")
    SuiteRunner(jobs=1, cache_dir=cache_dir).run([tiny_spec()])
    runner = SuiteRunner(jobs=1, cache_dir=cache_dir)
    [cached, report] = runner.run([tiny_spec(),
                                   tiny_spec(source=TINY_B, name="b")])
    metrics = runner.metrics
    assert metrics.hits == 1 and metrics.misses == 1
    assert metrics.hit_rate == 0.5
    assert [(r.name, r.cache_hit) for r in metrics.records] \
        == [("tiny", True), ("b", False)]
    summary = metrics.summary()
    assert "runner: 2 runs" in summary
    assert "1 hit" in summary and "1 miss" in summary
    breakdown = report.breakdown
    assert ("tls:    %d commits, %d violations"
            % (breakdown.commits, breakdown.violations)) in summary


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_bench_manual_missing_errors_cleanly(capsys):
    from repro.cli import main
    from repro.workloads import all_workloads
    name = next(w.name for w in all_workloads()
                if not w.has_manual_variant)
    start = time.perf_counter()
    assert main(["bench", name, "--manual"]) == 2
    # errors out before compiling/running anything
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert "no manual variant" in captured.err
    assert captured.out == ""


def test_cli_suite_json_subset(tmp_path, capsys):
    from repro.cli import main
    from repro.workloads import all_workloads
    name = all_workloads()[0].name
    code = main(["suite", "--size", "small", "--only", name,
                 "--jobs", "2", "--json",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert name in data["workloads"]
    assert data["workloads"][name]["outputs_match"] is True
    assert data["metrics"]["cache_misses"] == 1
    # warm re-run hits the cache
    main(["suite", "--size", "small", "--only", name, "--json",
          "--cache-dir", str(tmp_path / "cache")])
    data = json.loads(capsys.readouterr().out)
    assert data["metrics"]["cache_hits"] == 1
    assert data["metrics"]["cache_hit_rate"] == 1.0


@pytest.mark.parametrize("argv", [["suite", "--only", "Nope"],
                                  ["bench", "Nope"]],
                         ids=["suite", "bench"])
def test_cli_unknown_workload_is_a_one_line_diagnostic(argv, capsys):
    from repro.cli import main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("unknown workload 'Nope'")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
