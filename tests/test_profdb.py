"""Unit and integration tests for the persistent profile repository.

Covers the record model round-trips and schema gate, the weighted
merge's fixed-point property, fingerprint-driven invalidation,
corrupt-file tolerance, warm-start plan equivalence on a small program,
provenance bookkeeping (cold → warm → confirmed), adaptation outcome
write-back, and the version/profdb service verbs.  Warm starts over
all 26 workloads are checked by the registry sweep
(``test_golden_reports.py``).
"""

import json
import os

import pytest

from repro import Jrpm, compile_source, package_version
from repro.profdb.fingerprint import (method_fingerprint,
                                      method_fingerprints,
                                      program_fingerprint)
from repro.profdb import (MIN_CONFIDENCE, PROFDB_SCHEMA_VERSION,
                          InputProfile, LoopProfile, ProfileDb,
                          ProgramProfile, confidence, merge_stats_dict,
                          merge_value, site_key, split_site_key,
                          validate_profdb_dict)
from repro.profdb.merge import merge_input_profile
from repro.service import JobSpec, RunOptions, Session
from repro.workloads import lookup

LOOPY = """
class Main {
    static int main() {
        int sum = 0;
        int i = 0;
        while (i < 4000) {
            sum = sum + i * 3 - (i / 2);
            i = i + 1;
        }
        int j = 0;
        while (j < 1500) {
            sum = sum - j;
            j = j + 1;
        }
        Sys.printInt(sum);
        return sum;
    }
}
"""

LOOPY_BIGGER = LOOPY.replace("4000", "6000")


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "profdb")


def _run(db_path, source=LOOPY, name="loopy", warm_start=None, **kwargs):
    jrpm = Jrpm(profdb=db_path, warm_start=warm_start, **kwargs)
    return jrpm.run(compile_source(source), name=name)


# -- fingerprints -------------------------------------------------------------

def test_method_fingerprint_masks_constants():
    a = compile_source(LOOPY)
    b = compile_source(LOOPY_BIGGER)
    mains_a = {m.qualified_name: m for m in a.all_methods()}
    mains_b = {m.qualified_name: m for m in b.all_methods()}
    for name in mains_a:
        # structural form masks ICONST operands: sizes hash identically
        assert method_fingerprint(mains_a[name]) \
            == method_fingerprint(mains_b[name])
    # exact form keeps them: byte-different programs never collide
    assert program_fingerprint(a, include_constants=True) \
        != program_fingerprint(b, include_constants=True)
    assert program_fingerprint(a) == program_fingerprint(b)


def test_method_fingerprint_sees_real_edits():
    edited = LOOPY.replace("sum + i * 3", "sum + i + 3")
    a = method_fingerprints(compile_source(LOOPY))
    b = method_fingerprints(compile_source(edited))
    assert a != b


# -- record model -------------------------------------------------------------

def test_site_key_round_trip():
    assert split_site_key(site_key("Main.main", 3)) == ("Main.main", 3)
    # method names may themselves contain '#'-free dots only, but be
    # defensive about rpartition behavior on plain names
    assert split_site_key("A.b#0") == ("A.b", 0)


def test_records_round_trip(db_path):
    _run(db_path)
    db = ProfileDb(db_path)
    payload = db.export()
    assert validate_profdb_dict(payload) == []
    for entry in payload["programs"].values():
        rebuilt = ProgramProfile.from_dict(entry)
        assert rebuilt.to_dict() == entry


def test_store_file_is_json_dumps_of_its_payload(db_path):
    """A shard is published in one ``json.dumps`` write: the file is
    byte-for-byte the compact encoding of its one-program payload,
    after a cold run and after the warm run that rewrites it."""
    for __ in range(2):
        _run(db_path)
        db = ProfileDb(db_path)
        payload = db.export()
        assert len(payload["programs"]) == 1
        for key, entry in payload["programs"].items():
            with open(db.shard_path(key)) as handle:
                text = handle.read()
            assert text == json.dumps(
                {"schema": PROFDB_SCHEMA_VERSION,
                 "programs": {key: entry}})
            assert validate_profdb_dict(json.loads(text)) == []


def test_validate_profdb_dict_rejects_malformed():
    assert validate_profdb_dict([]) == ["top level: not an object"]
    assert any("schema" in p for p in validate_profdb_dict({}))
    newer = {"schema": PROFDB_SCHEMA_VERSION + 1, "programs": {}}
    assert any("newer" in p for p in validate_profdb_dict(newer))
    bad_loop = {
        "schema": PROFDB_SCHEMA_VERSION,
        "programs": {"p": {
            "name": "x", "runs": 1, "updated": 0.0, "methods": {},
            "inputs": {"i": {
                "runs": 1, "warm_runs": 0, "weight": 1.0, "drift": 0.0,
                "updated": 0.0, "compile_cycles": 0, "annotations": 0,
                "max_dynamic_depth": 1, "tls_cycles": 0.0, "args": [],
                "options": "", "sequential": {"cycles": 1},
                "profiling": {"cycles": 1}, "nesting": [],
                "plan_sites": [],
                "loops": {"M#0": {"loop_id": "not-a-number"}},
            }},
        }},
    }
    problems = validate_profdb_dict(bad_loop)
    assert any("loop_id" in p for p in problems)


# -- merging ------------------------------------------------------------------

def test_merge_value_fixed_point_on_equal_inputs():
    # equality short-circuits before float arithmetic: no drift ever
    assert merge_value(3, 3, 0.9, 1.0) == 3
    assert isinstance(merge_value(3, 3, 0.9, 1.0), int)
    assert merge_value(0.7, 0.7, 123.4, 1.0) == 0.7
    assert merge_value("x", "y", 1.0, 1.0) == "y"
    assert merge_value(2.0, 4.0, 1.0, 1.0) == 3.0


def test_merge_stats_dict_identical_is_identity(db_path):
    _run(db_path)
    db = ProfileDb(db_path)
    payload = db.export()
    for entry in payload["programs"].values():
        for input_entry in entry["inputs"].values():
            for loop in input_entry["loops"].values():
                stats = loop["stats"]
                assert merge_stats_dict(stats, json.loads(
                    json.dumps(stats)), 0.9, 1.0) == stats


def test_merge_weights_and_confidence():
    assert confidence(0.0, 0.0) == 0.0
    one_run = confidence(1.0, 0.0)
    assert one_run == 0.5 > MIN_CONFIDENCE
    assert confidence(5.0, 0.0) > one_run
    assert confidence(5.0, 1.0) < confidence(5.0, 0.0)


def test_merge_input_profile_accumulates_adapt_counters():
    def entry(decommits):
        return InputProfile(
            runs=1, weight=1.0, updated=1.0, sequential={"cycles": 10},
            profiling={"cycles": 12},
            loops={"M#0": LoopProfile(loop_id=1, line=3,
                                      stats={"loop_id": 1, "arcs": []},
                                      decommits=decommits)})
    merged = merge_input_profile(entry(2), entry(1), decay=1.0)
    assert merged.loops["M#0"].decommits == 3
    assert merged.runs == 2
    assert merged.weight == 2.0


# -- db mechanics -------------------------------------------------------------

def test_corrupt_and_truncated_files_read_as_empty(db_path):
    report = _run(db_path)
    assert report.profile_provenance == "cold"
    db = ProfileDb(db_path)
    (key,) = db.export()["programs"]
    shard = db.shard_path(key)
    with open(shard) as fh:
        good = fh.read()
    # truncation: reader degrades to a miss, writer recovers the shard
    with open(shard, "w") as fh:
        fh.write(good[: len(good) // 2])
    assert db.stats_dict()["programs"] == 0
    report = _run(db_path)
    assert report.profile_provenance == "cold"
    assert ProfileDb(db_path).stats_dict()["programs"] == 1
    # garbage bytes likewise
    with open(shard, "w") as fh:
        fh.write("\x00\xff not json")
    assert ProfileDb(db_path).stats_dict()["programs"] == 0
    # a future schema version is treated as unreadable, not guessed at
    with open(shard, "w") as fh:
        json.dump({"schema": PROFDB_SCHEMA_VERSION + 1,
                   "programs": json.loads(good)["programs"]}, fh)
    assert ProfileDb(db_path).stats_dict()["programs"] == 0


def test_single_file_db_reads_empty_and_is_replaced(db_path):
    """A regular file at the store path (the single-file layout) reads
    as an empty store; the first write replaces it with the shard
    directory, and later runs warm-start from there."""
    _run(db_path)
    legacy = json.dumps(ProfileDb(db_path).export())
    other = db_path + "-legacy"
    with open(other, "w") as fh:
        fh.write(legacy)
    db = ProfileDb(other)
    assert db.stats_dict()["programs"] == 0
    assert db.export() == {"schema": PROFDB_SCHEMA_VERSION, "programs": {}}
    assert _run(other).profile_provenance == "cold"
    assert os.path.isdir(other)
    assert db.stats_dict()["programs"] == 1
    assert _run(other).profile_provenance == "warm"


def test_warm_run_touches_only_its_own_shard(db_path, monkeypatch):
    """With several programs stored, a warm run opens one shard (and
    the lock) and rewrites that shard, lists no directory, and leaves
    every other shard's bytes and mtime as they were."""
    from repro.profdb import db as db_module

    sources = {"loopy": LOOPY}
    for index in range(3):
        sources["other%d" % index] = LOOPY.replace(
            "sum + i * 3", "sum + i * %d" % (index + 5))
    for name, source in sources.items():
        _run(db_path, source=source, name=name)
    db = ProfileDb(db_path)
    own = db.shard_path(db.program_key(compile_source(LOOPY), "loopy"))
    before = {}
    for key in db.export()["programs"]:
        path = db.shard_path(key)
        with open(path, "rb") as fh:
            before[path] = (fh.read(), os.stat(path).st_mtime_ns)
    assert len(before) == 4 and own in before

    opened, listed = [], []
    real_open = open
    real_keys = ProfileDb._keys

    def spy_open(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    def spy_keys(self):
        listed.append(self.path)
        return real_keys(self)

    monkeypatch.setattr(db_module, "open", spy_open, raising=False)
    monkeypatch.setattr(ProfileDb, "_keys", spy_keys)
    assert _run(db_path).profile_provenance == "warm"
    monkeypatch.undo()

    # warm_entry's read, then record_warm's read under the lock
    assert sorted(opened) == sorted([own, own, db_path + ".lock"])
    assert listed == []
    for path, (data, mtime) in before.items():
        with open(path, "rb") as fh:
            now = (fh.read(), os.stat(path).st_mtime_ns)
        if path == own:
            assert now[0] != data       # warm_runs was bumped
        else:
            assert now == (data, mtime)


def test_warm_run_derives_its_input_key_once(db_path, monkeypatch):
    """A warm run fingerprints the exact program once: the input key its
    lookup used is the key its book-keeping writes under."""
    from repro.profdb import db as db_module

    _run(db_path)
    exact = []
    real = db_module.program_fingerprint

    def counting(program, include_constants=False):
        if include_constants:
            exact.append(program)
        return real(program, include_constants=include_constants)

    monkeypatch.setattr(db_module, "program_fingerprint", counting)
    report = _run(db_path)
    assert report.profile_provenance == "warm"
    assert len(exact) == 1
    assert ProfileDb(db_path).stats_dict()["warm_runs"] == 1


def test_gc_bounds_inputs_and_programs(db_path):
    db = ProfileDb(db_path, max_inputs=1)
    jrpm = Jrpm(profdb=db)
    jrpm.run(compile_source(LOOPY), name="loopy", args=())
    jrpm.run(compile_source(LOOPY_BIGGER), name="loopy", args=())
    stats = db.stats_dict()
    # same shape key (sizes differ only in constants), capped inputs
    assert stats["programs"] == 1
    assert stats["inputs"] == 1
    evicted = db.gc(max_programs=0)
    assert evicted == 1
    assert db.stats_dict()["programs"] == 0


def test_gc_evicts_the_oldest_shard(db_path):
    """Past ``max_programs`` a write evicts the least-recently-updated
    program's shard and keeps its own."""
    db = ProfileDb(db_path, max_programs=1)
    jrpm = Jrpm(profdb=db)
    jrpm.run(compile_source(LOOPY), name="loopy")
    jrpm.run(compile_source(LOOPY), name="other")
    payload = db.export()
    assert [entry["name"] for entry in payload["programs"].values()] \
        == ["other"]
    assert sorted(os.listdir(db_path)) == [
        key + ".json" for key in payload["programs"]]


def test_distinct_workloads_sharing_method_names_stay_apart(db_path):
    # every workload declares Main.main; two different programs must
    # not share a consensus entry (they would invalidate each other's
    # inputs on every record)
    _run(db_path)
    other = LOOPY.replace("sum + i * 3", "sum - i * 7")
    _run(db_path, source=other, name="other")
    db = ProfileDb(db_path)
    assert db.stats_dict()["programs"] == 2
    # both keep warm-starting, in any interleaving
    assert _run(db_path).profile_provenance == "warm"
    assert _run(db_path, source=other,
                name="other").profile_provenance == "warm"
    assert _run(db_path).profile_provenance == "warm"


def test_invalidation_on_method_edit(db_path):
    report = _run(db_path)
    assert report.profile_provenance == "cold"
    assert _run(db_path).profile_provenance == "warm"
    # a real edit (same program shape) must kill the warm start
    edited = LOOPY.replace("sum + i * 3", "sum + i + 3")
    report = _run(db_path, source=edited)
    assert report.profile_provenance == "cold"
    # and the edited version then warms on its own merged profile
    assert _run(db_path, source=edited).profile_provenance == "warm"


# -- warm start ---------------------------------------------------------------

def test_cold_then_warm_then_confirmed(db_path):
    cold = _run(db_path)
    assert cold.profile_provenance == "cold"
    warm = _run(db_path)
    assert warm.profile_provenance == "warm"
    # plan-equivalent and measurement-identical (simulator determinism)
    assert sorted(warm.plans) == sorted(cold.plans)
    assert warm.tls.cycles == cold.tls.cycles
    assert warm.sequential.cycles == cold.sequential.cycles
    assert warm.tls_speedup == cold.tls_speedup
    assert warm.outputs_match()
    # forcing a full profile over a confident consensus -> confirmed
    confirmed = _run(db_path, warm_start="off")
    assert confirmed.profile_provenance == "confirmed"
    # warm hits never perturb the consensus: still warm, still equal
    again = _run(db_path)
    assert again.profile_provenance == "warm"
    assert again.tls.cycles == cold.tls.cycles


def test_warm_start_off_and_force(db_path):
    assert _run(db_path, warm_start="off").profile_provenance == "cold"
    # below the confidence gate nothing warms on auto; force overrides
    db = ProfileDb(db_path, min_confidence=0.99)
    assert Jrpm(profdb=db).run(
        compile_source(LOOPY), name="loopy").profile_provenance == "cold"
    forced = Jrpm(profdb=db, warm_start="force").run(
        compile_source(LOOPY), name="loopy")
    assert forced.profile_provenance == "warm"


def test_warm_report_round_trips(db_path):
    _run(db_path)
    warm = _run(db_path)
    data = warm.to_dict()
    assert data["profile_provenance"] == "warm"
    from repro.core.pipeline import JrpmReport
    rebuilt = JrpmReport.from_dict(data)
    assert rebuilt.profile_provenance == "warm"
    assert rebuilt.to_dict() == data
    # pre-provenance payloads default to cold
    data.pop("profile_provenance")
    assert JrpmReport.from_dict(data).profile_provenance == "cold"


def test_adapt_outcomes_ban_decommitted_loops(db_path):
    from repro.adapt import ThresholdPolicy
    source = lookup("euler").source("small")
    program = compile_source(source)
    # an aggressive policy decommits every selected loop
    policy = ThresholdPolicy(decommit_threshold=100.0, cooldown=0)
    adaptive = Jrpm(profdb=db_path).run_adaptive(
        program, name="euler", policy=policy, epochs=2)
    decommitted = {
        decision.loop_id
        for decision in adaptive.adaptation.applied_decisions()
        if decision.action == "decommit"}
    assert decommitted, "policy was expected to decommit something"
    # the write-back must ban those sites in later warm starts
    warm = Jrpm(profdb=db_path, warm_start="force").run(
        program, name="euler")
    assert warm.profile_provenance == "warm"
    assert not (set(warm.plans) & decommitted)


# -- provenance in tooling ----------------------------------------------------

def test_suite_metrics_record_provenance(fresh_registry, db_path):
    """The suite summary's profdb line counts the executed runs'
    provenance (``jrpm_runs{provenance}``)."""
    from repro.runner import SuiteRunner
    spec = JobSpec(verb="run", source=LOOPY, name="loopy",
                   options=RunOptions(profile_db=db_path))
    runner = SuiteRunner(jobs=1, use_cache=False)
    cold, warm = runner.run([spec, spec])
    assert cold.profile_provenance == "cold"
    assert warm.profile_provenance == "warm"
    assert fresh_registry.total("jrpm_runs", provenance="cold") == 1
    assert fresh_registry.total("jrpm_runs", provenance="warm") == 1
    assert "profdb: 1 warm start, 0 confirmed" in runner.metrics.summary()


def test_format_report_shows_provenance(db_path):
    from repro.core.report import format_report
    cold = _run(db_path)
    warm = _run(db_path)
    assert "profile provenance:      cold" in format_report(
        cold, verbose=True)
    assert "warm" in format_report(warm)       # shown even without -v
    plain = Jrpm().run(compile_source(LOOPY), name="loopy")
    assert "provenance" not in format_report(plain)


def test_profdb_trace_events(db_path):
    from repro.trace.export import chrome_trace, format_timeline
    cold = _run(db_path, trace=True)
    events = [e for e in cold.trace.events() if e.kind == "profdb"]
    assert events and events[0].data[0] == "cold"
    assert any(entry.get("cat") == "profdb"
               for entry in chrome_trace(cold.trace)["traceEvents"])
    warm = _run(db_path, trace=True)
    events = [e for e in warm.trace.events() if e.kind == "profdb"]
    assert events and events[0].data[0] == "warm"
    assert any("profdb warm" in line
               for line in format_timeline(warm.trace).splitlines())


# -- service integration ------------------------------------------------------

def test_local_session_version_and_profdb(db_path):
    with Session.local() as session:
        version = session.version()
        assert version["version"] == package_version()
        assert version["profdb_schema"] == PROFDB_SCHEMA_VERSION
        options = RunOptions(profile_db=db_path)
        cold = session.run(source=LOOPY, name="loopy", options=options)
        warm = session.run(source=LOOPY, name="loopy", options=options)
        # the store must NOT have replayed the cold report
        assert warm.profile_provenance == "warm"
        assert warm.tls.cycles == cold.tls.cycles
        stats = session.profdb(path=db_path)["profdb"]
        assert stats["programs"] == 1 and stats["warm_runs"] == 1
        exported = session.profdb(op="export", path=db_path)["profdb"]
        assert validate_profdb_dict(exported) == []
        gc = session.profdb(op="gc", path=db_path, max_programs=0)
        assert gc["evicted"] == 1


def test_daemon_version_and_profdb_verbs(tmp_path, db_path):
    import asyncio
    import threading
    import time as time_module

    from repro.serialize import REPORT_SCHEMA_VERSION
    from repro.service import JrpmClient
    from repro.service.daemon import JrpmServer

    socket_path = str(tmp_path / "jrpm.sock")
    server = JrpmServer(socket_path=socket_path, jobs=1,
                        use_cache=False, timeout=60.0,
                        profdb_path=db_path)
    loop = asyncio.new_event_loop()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        loop.run_until_complete(server.serve_until_drained())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    deadline = time_module.perf_counter() + 10.0
    while True:
        try:
            JrpmClient.connect(socket_path=socket_path).close()
            break
        except (FileNotFoundError, ConnectionRefusedError):
            assert time_module.perf_counter() < deadline
            time_module.sleep(0.02)
    try:
        client = JrpmClient.connect(socket_path=socket_path,
                                    timeout=60.0)
        version = client.version()
        assert version["version"] == package_version()
        assert version["report_schema"] == REPORT_SCHEMA_VERSION
        assert version["profdb_schema"] == PROFDB_SCHEMA_VERSION
        # the daemon injects its shared DB into every run it executes
        cold = client.run(LOOPY, name="loopy")
        warm = client.run(LOOPY, name="loopy")
        assert cold.profile_provenance == "cold"
        assert warm.profile_provenance == "warm"
        assert warm.tls.cycles == cold.tls.cycles
        stats = client.profdb()["profdb"]
        assert stats["programs"] == 1 and stats["warm_runs"] == 1
        exported = client.profdb(op="export")["profdb"]
        assert validate_profdb_dict(exported) == []
        client.drain()
        client.close()
    finally:
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        loop.close()


def test_run_options_round_trip_with_profdb_fields(db_path):
    options = RunOptions(profile_db=db_path, warm_start="force")
    rebuilt = RunOptions.from_dict(options.to_dict())
    assert rebuilt.profile_db == db_path
    assert rebuilt.warm_start == "force"
    # legacy payloads without the new keys still load
    legacy = {k: v for k, v in options.to_dict().items()
              if k not in ("profile_db", "warm_start")}
    defaults = RunOptions.from_dict(legacy)
    assert defaults.profile_db is None
    assert defaults.warm_start == "auto"


def test_job_fingerprint_ignores_profdb_fields(db_path):
    from repro.service import JobSpec, job_fingerprint
    plain = JobSpec(verb="run", source=LOOPY, name="x",
                    options=RunOptions())
    backed = JobSpec(verb="run", source=LOOPY, name="x",
                     options=RunOptions(profile_db=db_path,
                                        warm_start="force"))
    assert job_fingerprint(plain) == job_fingerprint(backed)


def test_artifact_store_bypasses_profdb_jobs(fresh_registry, db_path):
    from repro.service import ArtifactStore, JobSpec
    store = ArtifactStore()
    spec = JobSpec(verb="run", source=LOOPY, name="x",
                   options=RunOptions(profile_db=db_path))
    store.put(spec, {"report": {}})
    assert store.get(spec) is None
    assert fresh_registry.total("jrpm_store_lookups", outcome="miss") == 1
    assert fresh_registry.total("jrpm_store_lookups", outcome="hit") == 0


def test_cli_version_and_profdb(capsys, db_path):
    from repro.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert package_version() in capsys.readouterr().out
    _run(db_path)
    assert main(["profdb", "--path", db_path, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["programs"] == 1
    assert main(["profdb", "export", "--path", db_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert validate_profdb_dict(payload) == []
    assert main(["profdb", "gc", "--path", db_path,
                 "--max-programs", "0"]) == 0
    assert "evicted 1" in capsys.readouterr().out
