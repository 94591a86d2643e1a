"""Two-process stress tests for the shared on-disk stores.

Both the report cache and the profile DB are designed to be shared by
concurrent workers (suite processes, daemon workers, parallel bench
scripts).  The cache relies on atomic tempfile+rename publishes and
corrupt-entry eviction; the profile DB additionally serializes its
read-merge-write cycle behind an ``fcntl`` file lock so that no
recorded run is ever lost to a lost-update race.  These tests spawn
real OS processes hammering one shared store and then check the
invariants that matter: every write is accounted for, the final store
is valid, and a reader racing a writer never sees a torn payload.
"""

import json
import multiprocessing
import os

import pytest

from repro import Jrpm, compile_source
from repro.profdb import ProfileDb, validate_profdb_dict
from repro.runner.cache import ReportCache

SOURCE = """
class Main {
    static int main() {
        int sum = 0;
        int i = 0;
        while (i < 2000) {
            sum = sum + i * 3 - (i / 2);
            i = i + 1;
        }
        Sys.printInt(sum);
        return sum;
    }
}
"""

RECORDS_PER_PROCESS = 12
PROCESSES = 2


def _record_worker(db_path, count, names, barrier):
    """Run one cold pipeline per program name, then fold the reports
    into the shared DB *count* times each, racing the sibling process
    byte-for-byte."""
    jrpm = Jrpm()
    program = compile_source(SOURCE)
    reports = [jrpm.run(program, name=name) for name in names]
    db = ProfileDb(db_path)
    barrier.wait()
    for _ in range(count):
        for report in reports:
            db.record(program, report, (), jrpm.config,
                      jrpm.stl_options, jrpm.vm_options)


def _cache_worker(root, keys, payload, rounds, barrier):
    """Re-publish every key *rounds* times against a racing sibling."""
    cache = ReportCache(root)
    barrier.wait()
    for _ in range(rounds):
        for key in keys:
            cache.put(key, payload)
            got = cache.get(key)
            # a racing reader must see a whole payload or a miss --
            # never a torn one (atomic rename guarantees this)
            assert got is None or got == payload


def _spawn(target, args, processes=PROCESSES):
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=target, args=args)
             for _ in range(processes)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    for proc in procs:
        assert proc.exitcode == 0
    return procs


def _race_writers(tmp_path, names, processes):
    """*processes* processes record every program in *names*; check
    that no record was lost and no tempfile leaked."""
    db_path = str(tmp_path / "profdb")
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(processes)
    _spawn(_record_worker, (db_path, RECORDS_PER_PROCESS, names, barrier),
           processes)
    db = ProfileDb(db_path)
    payload = db.export()
    # the file lock serializes read-merge-write: no update is lost
    assert validate_profdb_dict(payload) == []
    stats = db.stats_dict()
    assert stats["programs"] == len(names)
    assert stats["runs"] == processes * RECORDS_PER_PROCESS * len(names)
    # each re-record replaces its input's entry: one input entry
    # per program
    assert stats["inputs"] == len(names)
    for entry in payload["programs"].values():
        assert entry["runs"] == processes * RECORDS_PER_PROCESS
    assert sorted(os.listdir(db_path)) == sorted(
        key + ".json" for key in payload["programs"])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_concurrent_profdb_writers_lose_no_records(tmp_path):
    _race_writers(tmp_path, ("stress",), PROCESSES)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_concurrent_profdb_writers_on_two_programs(tmp_path):
    """Writers interleaving two programs' shards lose no record of
    either, with one writer process more than the one-program race."""
    _race_writers(tmp_path, ("stress", "stress2"), PROCESSES + 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_concurrent_cache_writers_never_tear(tmp_path):
    root = str(tmp_path / "cache")
    payload = {"report": {"name": "x", "cycles": [1] * 2048}}
    keys = ["k%d" % i for i in range(8)]
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(PROCESSES)
    _spawn(_cache_worker, (root, keys, payload, 40, barrier))
    cache = ReportCache(root)
    for key in keys:
        assert cache.get(key) == payload
    # no leaked tempfiles from the racing publishes
    leftovers = [name for name in os.listdir(root)
                 if name.endswith(".tmp")]
    assert leftovers == []


def test_truncated_cache_entry_reads_as_miss(tmp_path):
    cache = ReportCache(str(tmp_path / "cache"))
    cache.put("key", {"a": 1})
    path = cache.path_for("key")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    assert cache.get("key") is None
    # the corrupt entry was evicted, not left to fail forever
    assert not os.path.exists(path)
    cache.put("key", {"a": 1})
    assert cache.get("key") == {"a": 1}


def test_truncated_profdb_recovers_on_next_record(tmp_path):
    db_path = str(tmp_path / "profdb")
    jrpm = Jrpm()
    program = compile_source(SOURCE)
    report = jrpm.run(program, name="stress")
    db = ProfileDb(db_path)
    db.record(program, report, (), jrpm.config, jrpm.stl_options,
              jrpm.vm_options)
    shard = db.shard_path(db.program_key(program, "stress"))
    with open(shard) as fh:
        text = fh.read()
    with open(shard, "w") as fh:
        fh.write(text[: len(text) // 2])
    assert db.stats_dict()["programs"] == 0
    db.record(program, report, (), jrpm.config, jrpm.stl_options,
              jrpm.vm_options)
    payload = db.export()
    assert validate_profdb_dict(payload) == []
    assert db.stats_dict()["runs"] == 1
