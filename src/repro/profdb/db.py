"""The on-disk profile database shared by concurrent writers.

The store is a directory holding one JSON file (a *shard*) per
:class:`~repro.profdb.records.ProgramProfile`, named by its program
key, so a run reads and rewrites only its own program, however many
are stored.  The concurrency story mirrors ``runner/cache.py`` and adds
a lock::

    PATH/                      the store (``--profdb PATH``)
        <program key>.json     {"schema": 2, "programs": {key: entry}}
    PATH.lock                  the one writer lock

* **writers** take an exclusive ``fcntl.flock`` on the ``.lock``
  sidecar around their read-modify-write cycle, which reads and
  rewrites one shard, then publish it atomically (tempfile +
  ``os.replace``), so two processes recording at once never interleave
  partial writes or lose each other's record;
* **readers** never lock: ``os.replace`` guarantees any shard they
  open is a complete past state, and a corrupt, truncated or
  other-schema shard simply reads as a miss (a warm-start miss, never
  an error);
* **GC** bounds the store: a write trims its own program's inputs to
  ``max_inputs``; it then lists the shards and, only when there are
  more than ``max_programs``, reads the others to evict the
  least-recently-updated ones.

Each shard is itself a valid one-program payload for
:func:`~repro.profdb.records.validate_profdb_dict`.  A regular file at
PATH (the layout before shards, one file for the whole store) reads as
an empty store, and the first write replaces it with the directory:
its programs are re-profiled cold once.

Keying: programs are keyed by their *shape* (the workload name plus
the qualified method names), so the sizes and edits of one program
share a shard while distinct workloads that share method names stay
apart.  Inputs within a program are keyed by the exact program
fingerprint plus guest argv plus the run-options fingerprint, so a
stored measurement is only replayed for the byte-equivalent
configuration that produced it.  The simulator is deterministic, so a
stored record already is what a new profile of its input would find: a
cold run replaces its input's record, carrying forward only the run
counters, the adaptation outcome sums and the buffer high-water marks.
An edited program misses on its own input key; the inputs it leaves
behind age out through the ``max_inputs`` LRU.
"""

import contextlib
import hashlib
import json
import os
import time

try:
    import fcntl
except ImportError:          # non-POSIX: single-process use still works
    fcntl = None

from .fingerprint import program_fingerprint
from ..metrics import get_registry
from ..runner.cache import atomic_write, options_fingerprint
from .records import (InputProfile, LoopProfile, PROFDB_SCHEMA_VERSION,
                      PROVENANCE_COLD, PROVENANCE_CONFIRMED,
                      ProgramProfile, schema_problem, site_key)

#: GC caps: at most this many program entries, and inputs per program.
DEFAULT_MAX_PROGRAMS = 64
DEFAULT_MAX_INPUTS = 8


def _profdb_counter(name, help_text, amount=1, **labels):
    """One increment against the global metrics registry."""
    if amount:
        family = get_registry().counter(name, help_text,
                                        labels=tuple(sorted(labels)))
        (family.labels(**labels) if labels else family).inc(amount)


def default_profdb_path():
    """``$JRPM_PROFDB_PATH`` if set, else the shared cache location
    ``benchmarks/.cache/profdb`` under the current directory."""
    env = os.environ.get("JRPM_PROFDB_PATH")
    if env:
        return env
    return os.path.join("benchmarks", ".cache", "profdb")


class ProfileDb:
    """Persistent, file-locked, size-bounded profile repository."""

    def __init__(self, path=None, max_programs=DEFAULT_MAX_PROGRAMS,
                 max_inputs=DEFAULT_MAX_INPUTS):
        #: the store directory (one shard per program)
        self.path = path or default_profdb_path()
        self.max_programs = max_programs
        self.max_inputs = max_inputs

    # ------------------------------------------------------------- keys

    @staticmethod
    def program_key(program, name):
        """Shape key: SHA-256 over the workload name and the
        deterministic method-name list.

        Deliberately *structural*, not content-addressed: the input-size
        variants and edits of one program share a shard (each under its
        own exact :meth:`input_key`), bounded together by
        ``max_inputs``.  The workload name disambiguates distinct
        programs that happen to declare the same method names (every
        MiniJava workload has a ``Main.main``) — without it, two such
        programs would share a shard and evict each other's inputs.
        """
        digest = hashlib.sha256()
        digest.update(name.encode())
        digest.update(b"\n")
        for method in program.all_methods():
            digest.update(method.qualified_name.encode())
            digest.update(b";")
        return digest.hexdigest()

    @staticmethod
    def input_key(program, args, config, stl_options, vm_options):
        """Input key: exact program fingerprint + argv + options."""
        digest = hashlib.sha256()
        digest.update(program_fingerprint(program).encode())
        digest.update(json.dumps(list(args)).encode())
        digest.update(options_fingerprint(
            config, stl_options, vm_options).encode())
        return digest.hexdigest()

    # -------------------------------------------------------------- i/o

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive advisory lock for the read-modify-write cycle."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        if fcntl is None:
            yield
            return
        with open(self.path + ".lock", "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def shard_path(self, program_key):
        """The file holding one program's entry."""
        return os.path.join(self.path, program_key + ".json")

    def _keys(self):
        """Program keys of every shard (empty when the store is missing
        or a legacy single file), in sorted order."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return sorted(name[:-5] for name in names
                      if name.endswith(".json"))

    def _read(self, program_key):
        """One shard → :class:`ProgramProfile`, or ``None``.

        Missing, truncated or corrupt shards, and shards of any other
        schema (:func:`~repro.profdb.records.schema_problem`), all read
        as ``None`` — same degrade-to-miss contract as
        ``ReportCache.get``.
        """
        try:
            with open(self.shard_path(program_key), "r") as handle:
                payload = json.load(handle)
            if schema_problem(payload.get("schema")) is not None:
                return None
            return ProgramProfile.from_dict(
                payload["programs"][program_key])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def _load(self):
        """Read every shard → ``{program_key: ProgramProfile}``
        (unreadable shards are left out)."""
        data = {}
        for key in self._keys():
            entry = self._read(key)
            if entry is not None:
                data[key] = entry
        return data

    def _write(self, program_key, entry):
        """Atomically publish one shard (:func:`atomic_write`)."""
        if os.path.isfile(self.path):
            # The single-file layout: replaced by the store directory.
            os.unlink(self.path)
        os.makedirs(self.path, exist_ok=True)
        payload = {"schema": PROFDB_SCHEMA_VERSION,
                   "programs": {program_key: entry.to_dict()}}
        atomic_write(self.shard_path(program_key), json.dumps(payload))

    # ----------------------------------------------------------- record

    def _input_of_report(self, report, args, config, stl_options,
                           vm_options, now):
        """Build the :class:`InputProfile` record of one cold run."""
        from ..tracer.selector import Selector
        selector = Selector(
            report.config, report.loop_table,
            ignore_allocator_arcs=vm_options.parallel_allocator)
        decommits, escalations = {}, {}
        if report.adaptation is not None:
            for decision in report.adaptation.applied_decisions():
                if decision.action == "decommit":
                    decommits[decision.loop_id] = \
                        decommits.get(decision.loop_id, 0) + 1
                elif decision.action == "lock_escalate":
                    escalations[decision.loop_id] = \
                        escalations.get(decision.loop_id, 0) + 1
        loops = {}
        for loop_id, stats in report.loop_stats.items():
            meta = report.loop_table[loop_id]
            plan = report.plans.get(loop_id)
            if plan is not None and plan.prediction is not None:
                prediction = plan.prediction.to_dict()
            else:
                prediction = selector.predict(stats).to_dict()
            run_stats = report.stl_run_stats.get(loop_id)
            loops[site_key(meta.method_name, meta.ordinal)] = LoopProfile(
                loop_id=loop_id, line=meta.line, stats=stats.to_dict(),
                prediction=prediction, selected=plan is not None,
                max_load_lines=run_stats.max_load_lines if run_stats else 0,
                max_store_lines=run_stats.max_store_lines if run_stats else 0,
                decommits=decommits.get(loop_id, 0),
                escalations=escalations.get(loop_id, 0))
        plan_sites = sorted(
            site_key(report.loop_table[loop_id].method_name,
                     report.loop_table[loop_id].ordinal)
            for loop_id in report.plans)
        return InputProfile(
            runs=1, warm_runs=0, updated=now,
            args=list(args),
            options=options_fingerprint(config, stl_options, vm_options),
            sequential=report.sequential.to_dict(),
            profiling=report.profiling.to_dict(),
            compile_cycles=report.compile_cycles,
            annotations=report.annotations, loops=loops,
            nesting=sorted([list(pair)
                            for pair in report.dynamic_nesting or ()]),
            max_dynamic_depth=report.max_dynamic_depth,
            plan_sites=plan_sites, tls_cycles=report.tls.cycles)

    def record(self, program, report, args, config, stl_options,
               vm_options):
        """Record one cold run as its input's entry; returns provenance.

        The fresh record replaces the stored one, carrying forward the
        ``runs``/``warm_runs`` counts, each loop site's decommit and
        escalation sums and its buffer high-water marks.
        ``"confirmed"`` when a record already existed for this input
        with exactly the plan sites the fresh run selected — i.e. full
        profiling re-derived what the DB already knew; ``"cold"``
        otherwise.
        """
        now = time.time()
        fresh = self._input_of_report(report, args, config,
                                        stl_options, vm_options, now)
        program_key = self.program_key(program, report.name)
        input_key = self.input_key(program, args, config, stl_options,
                                   vm_options)
        with self._lock():
            entry = self._read(program_key)
            if entry is None:
                entry = ProgramProfile(name=report.name)
            previous = entry.inputs.get(input_key)
            provenance = PROVENANCE_COLD
            if previous is not None:
                if sorted(previous.plan_sites) == fresh.plan_sites:
                    provenance = PROVENANCE_CONFIRMED
                _carry_totals(previous, fresh)
            entry.inputs[input_key] = fresh
            entry.name = report.name
            entry.runs += 1
            entry.updated = now
            evicted = self._trim_inputs(entry)
            self._write(program_key, entry)
            evicted += self._evict_programs()
        self._count_evictions(evicted)
        _profdb_counter("jrpm_profdb_records",
                        "Cold runs recorded into the profile DB",
                        provenance=provenance)
        return provenance

    def record_warm(self, program, report, input_key):
        """Book-keep a warm-start hit under the :meth:`input_key` its
        :meth:`warm_entry` lookup used: bump counters and speculative
        buffer high-water marks only — the stored statistics are left
        untouched so warm runs never perturb the record they were
        derived from."""
        now = time.time()
        program_key = self.program_key(program, report.name)
        with self._lock():
            entry = self._read(program_key)
            if entry is None:
                return
            input_entry = entry.inputs.get(input_key)
            if input_entry is None:
                return
            input_entry.warm_runs += 1
            input_entry.updated = now
            for loop in input_entry.loops.values():
                run_stats = report.stl_run_stats.get(loop.loop_id)
                if run_stats is not None:
                    loop.max_load_lines = max(loop.max_load_lines,
                                              run_stats.max_load_lines)
                    loop.max_store_lines = max(loop.max_store_lines,
                                               run_stats.max_store_lines)
            entry.updated = now
            self._write(program_key, entry)
        _profdb_counter("jrpm_profdb_warm_runs",
                        "Warm-start hits booked against the DB")

    # ------------------------------------------------------------ query

    def warm_entry(self, program, name, input_key):
        """The stored :class:`InputProfile` under *input_key* (see
        :meth:`input_key`) usable for a warm start, or ``None`` (unknown
        program or input)."""
        entry = self._read(self.program_key(program, name))
        if entry is None:
            return None
        input_entry = entry.inputs.get(input_key)
        if (input_entry is None or input_entry.sequential is None
                or input_entry.profiling is None):
            return None
        return input_entry

    # --------------------------------------------------------- maintain

    def _trim_inputs(self, entry):
        """Evict *entry*'s least-recently-updated inputs beyond
        ``max_inputs``; returns how many went."""
        evicted = 0
        while len(entry.inputs) > self.max_inputs:
            oldest = min(entry.inputs,
                         key=lambda key: entry.inputs[key].updated)
            del entry.inputs[oldest]
            evicted += 1
        return evicted

    def _evict_programs(self):
        """Delete the least-recently-updated shards beyond
        ``max_programs`` (unreadable shards first); returns how many
        went.  Reads no shard while the count is within the cap."""
        keys = self._keys()
        excess = len(keys) - self.max_programs
        if excess <= 0:
            return 0
        updated = {}
        for key in keys:
            entry = self._read(key)
            updated[key] = entry.updated if entry is not None \
                else float("-inf")
        for key in sorted(keys, key=updated.get)[:excess]:
            try:
                os.unlink(self.shard_path(key))
            except OSError:
                pass
        return excess

    @staticmethod
    def _count_evictions(evicted):
        _profdb_counter("jrpm_profdb_gc_evictions",
                        "Entries evicted by the LRU size caps",
                        amount=evicted)

    def gc(self, max_programs=None, max_inputs=None):
        """Run eviction now (optionally with tighter caps); returns the
        number of evicted entries."""
        if max_programs is not None:
            self.max_programs = max_programs
        if max_inputs is not None:
            self.max_inputs = max_inputs
        evicted = 0
        with self._lock():
            for key, entry in self._load().items():
                trimmed = self._trim_inputs(entry)
                if trimmed:
                    self._write(key, entry)
                    evicted += trimmed
            evicted += self._evict_programs()
        self._count_evictions(evicted)
        return evicted

    def export(self):
        """The full store as a validated, JSON-able payload."""
        data = self._load()
        return {"schema": PROFDB_SCHEMA_VERSION,
                "programs": {key: entry.to_dict()
                             for key, entry in data.items()}}

    def stats_dict(self):
        """Summary counters for ``jrpm profdb stats`` and the daemon."""
        data = self._load()
        inputs = [entry for program in data.values()
                  for entry in program.inputs.values()]
        size_bytes = 0
        for key in self._keys():
            try:
                size_bytes += os.path.getsize(self.shard_path(key))
            except OSError:
                pass
        return {
            "path": self.path,
            "schema": PROFDB_SCHEMA_VERSION,
            "size_bytes": size_bytes,
            "programs": len(data),
            "inputs": len(inputs),
            "loops": sum(len(entry.loops) for entry in inputs),
            "runs": sum(program.runs for program in data.values()),
            "warm_runs": sum(entry.warm_runs for entry in inputs),
            "per_program": sorted(
                ({"name": program.name, "runs": program.runs,
                  "inputs": len(program.inputs),
                  "updated": program.updated}
                 for program in data.values()),
                key=lambda row: row["name"]),
        }


def _carry_totals(previous, fresh):
    """Carry *previous*'s running totals into the *fresh* record of the
    same input: the run counts, and per loop site still present the
    decommit/escalation sums and the buffer high-water marks."""
    fresh.runs += previous.runs
    fresh.warm_runs = previous.warm_runs
    for key, loop in fresh.loops.items():
        old = previous.loops.get(key)
        if old is not None:
            loop.decommits += old.decommits
            loop.escalations += old.escalations
            loop.max_load_lines = max(loop.max_load_lines,
                                      old.max_load_lines)
            loop.max_store_lines = max(loop.max_store_lines,
                                       old.max_store_lines)
