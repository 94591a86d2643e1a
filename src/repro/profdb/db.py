"""The on-disk profile database shared by concurrent writers.

The store is a directory holding one JSON file (a *shard*) per
:class:`~repro.profdb.records.ProgramProfile`, named by its program
key, so a run reads and rewrites only its own program, however many
are stored.  The concurrency story mirrors ``runner/cache.py`` and adds
a lock::

    PATH/                      the store (``--profdb PATH``)
        <program key>.json     {"schema": 1, "programs": {key: entry}}
    PATH.lock                  the one writer lock

* **writers** take an exclusive ``fcntl.flock`` on the ``.lock``
  sidecar around their read-merge-write cycle, which reads and rewrites
  one shard, then publish it atomically (tempfile + ``os.replace``), so
  two processes recording at once never interleave partial writes or
  lose each other's merge;
* **readers** never lock: ``os.replace`` guarantees any shard they
  open is a complete past state, and a corrupt, truncated or
  newer-schema shard simply reads as a miss (a warm-start miss, never
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
the qualified method names), so edits to a method land in the same
entry and the per-method structural fingerprints stored there can
invalidate exactly the stale loops, while distinct workloads that
share method names stay apart.  Inputs within a program are keyed by the exact
program fingerprint plus guest argv plus the run-options fingerprint,
so a stored measurement is only replayed for the byte-equivalent
configuration that produced it.
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

from .fingerprint import method_fingerprints, program_fingerprint
from ..log import get_logger
from ..metrics import get_registry
from ..runner.cache import atomic_write, options_fingerprint
from .merge import DEFAULT_DECAY, MIN_CONFIDENCE, merge_input_profile
from .records import (InputProfile, LoopProfile, PROFDB_SCHEMA_VERSION,
                      PROVENANCE_COLD, PROVENANCE_CONFIRMED,
                      ProgramProfile, site_key)

#: GC caps: at most this many program entries, and inputs per program.
DEFAULT_MAX_PROGRAMS = 64
DEFAULT_MAX_INPUTS = 8

_log = get_logger("profdb")


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

    def __init__(self, path=None, decay=DEFAULT_DECAY,
                 min_confidence=MIN_CONFIDENCE,
                 max_programs=DEFAULT_MAX_PROGRAMS,
                 max_inputs=DEFAULT_MAX_INPUTS):
        #: the store directory (one shard per program)
        self.path = path or default_profdb_path()
        self.decay = decay
        self.min_confidence = min_confidence
        self.max_programs = max_programs
        self.max_inputs = max_inputs

    # ------------------------------------------------------------- keys

    @staticmethod
    def program_key(program, name):
        """Shape key: SHA-256 over the workload name and the
        deterministic method-name list.

        Deliberately *structural*, not content-addressed: editing a
        method keeps the program in the same entry (so the per-method
        fingerprint check can invalidate just the affected loops), and
        input-size variants share one consensus.  The workload name
        disambiguates distinct programs that happen to declare the
        same method names (every MiniJava workload has a
        ``Main.main``) — without it, two such programs would share an
        entry and invalidate each other's inputs on every record.
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
        digest.update(program_fingerprint(
            program, include_constants=True).encode())
        digest.update(json.dumps(list(args)).encode())
        digest.update(options_fingerprint(
            config, stl_options, vm_options).encode())
        return digest.hexdigest()

    # -------------------------------------------------------------- i/o

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive advisory lock for the read-merge-write cycle."""
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

        Missing, truncated, corrupt or newer-schema shards all read as
        ``None`` — same degrade-to-miss contract as ``ReportCache.get``.
        """
        try:
            with open(self.shard_path(program_key), "r") as handle:
                payload = json.load(handle)
            schema = payload.get("schema")
            if not isinstance(schema, int) or schema > PROFDB_SCHEMA_VERSION:
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
        """Build a fresh :class:`InputProfile` snapshot of one cold run."""
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
            runs=1, warm_runs=0, weight=1.0, drift=0.0, updated=now,
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

    def _invalidate_stale(self, entry, fresh_methods):
        """Drop loop entries whose method's structural fingerprint
        changed; inputs that lost loops also lose their evidence weight
        (their old statistics no longer describe the current code)."""
        stale = {name for name, fingerprint in entry.methods.items()
                 if fresh_methods.get(name) != fingerprint}
        if not stale:
            entry.methods = fresh_methods
            return 0
        dropped = 0
        for input_entry in entry.inputs.values():
            keep = {}
            for key, loop in input_entry.loops.items():
                method_name, _, _ = key.rpartition("#")
                if method_name in stale:
                    dropped += 1
                else:
                    keep[key] = loop
            if len(keep) != len(input_entry.loops):
                input_entry.loops = keep
                input_entry.weight = 0.0
        entry.methods = fresh_methods
        _profdb_counter("jrpm_profdb_invalidated_loops",
                        "Loop entries dropped on stale method "
                        "fingerprints", amount=dropped)
        if dropped:
            _log.info("invalidated %d stale loop entries for %s",
                      dropped, entry.name)
        return dropped

    def record(self, program, report, args, config, stl_options,
               vm_options):
        """Fold one cold run into the consensus; returns provenance.

        ``"confirmed"`` when a confident consensus already existed for
        this input and the fresh run selected exactly the stored plan
        sites — i.e. full profiling re-derived what the DB already
        knew; ``"cold"`` otherwise.
        """
        now = time.time()
        fresh = self._input_of_report(report, args, config,
                                        stl_options, vm_options, now)
        program_key = self.program_key(program, report.name)
        input_key = self.input_key(program, args, config, stl_options,
                                   vm_options)
        fresh_methods = method_fingerprints(program)
        with self._lock():
            entry = self._read(program_key)
            if entry is None:
                entry = ProgramProfile(name=report.name)
            self._invalidate_stale(entry, fresh_methods)
            previous = entry.inputs.get(input_key)
            provenance = PROVENANCE_COLD
            if (previous is not None
                    and previous.confidence >= self.min_confidence
                    and sorted(previous.plan_sites) == fresh.plan_sites):
                provenance = PROVENANCE_CONFIRMED
            if previous is None:
                entry.inputs[input_key] = fresh
            else:
                merge_input_profile(previous, fresh, decay=self.decay)
            entry.name = report.name
            entry.runs += 1
            entry.updated = now
            evicted = self._trim_inputs(entry)
            self._write(program_key, entry)
            evicted += self._evict_programs()
        self._count_evictions(evicted)
        _profdb_counter("jrpm_profdb_records",
                        "Cold-run folds into the consensus DB",
                        provenance=provenance)
        _profdb_counter("jrpm_profdb_merges",
                        "Consensus merges (existing input re-observed)",
                        amount=1 if previous is not None else 0)
        return provenance

    def record_warm(self, program, report, input_key):
        """Book-keep a warm-start hit under the :meth:`input_key` its
        :meth:`warm_entry` lookup used: bump counters and speculative
        buffer high-water marks only — the merged statistics are left
        untouched so warm runs never perturb the consensus they were
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

    def warm_entry(self, program, name, input_key, force=False):
        """The stored :class:`InputProfile` under *input_key* (see
        :meth:`input_key`) usable for a warm start, or ``None`` (unknown
        program/input, stale method fingerprints, or consensus below the
        confidence gate unless *force*)."""
        entry = self._read(self.program_key(program, name))
        if entry is None:
            return None
        if entry.methods != method_fingerprints(program):
            return None
        input_entry = entry.inputs.get(input_key)
        if (input_entry is None or input_entry.sequential is None
                or input_entry.profiling is None):
            return None
        if not force and input_entry.confidence < self.min_confidence:
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
            "confident_inputs": sum(
                1 for entry in inputs
                if entry.confidence >= self.min_confidence),
            "per_program": sorted(
                ({"name": program.name, "runs": program.runs,
                  "inputs": len(program.inputs),
                  "updated": program.updated}
                 for program in data.values()),
                key=lambda row: row["name"]),
        }
