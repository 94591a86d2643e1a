"""Persistent profile-and-decision repository (the profile DB).

Jrpm pays a full annotated sequential execution (the TEST profile)
before any loop can be selected, and the reproduction re-paid that cost
on every cold run: the service's artifact store only memoizes
*identical* requests, and the adapt controller's decommit/escalation
outcomes died with the process.  This package persists what profiling
learned:

* :mod:`repro.profdb.records` — typed per-(program, input, loop site)
  entries carrying dependence-arc statistics, thread sizes, speculative
  buffer high-water marks, the selector's Prediction and adaptation
  outcomes, with lossless round-trips and a ``validate_profdb_dict``
  schema gate;
* :mod:`repro.profdb.db` — :class:`ProfileDb`, the file-locked,
  corrupt-tolerant, size-bounded JSON store (a directory with one
  shard per program) shared by concurrent writers (CLI runs and the
  ``jrpm serve`` daemon).  It keeps one exact record per (program,
  args, options) input: a cold run replaces its input's record,
  carrying forward only the run counts, the adaptation outcome sums
  and the buffer high-water marks;
* :mod:`repro.profdb.warmstart` — the warm-start path: when the DB
  holds a record for the exact input, ``Jrpm.run`` skips the
  sequential baseline *and* the TEST profiling run entirely and feeds
  the stored statistics straight into the selector.  The simulator is
  deterministic, so a warm run is plan-equivalent to a cold one (the
  ``slow`` differential sweep in ``tests/test_profdb_sweep.py`` proves
  it over all 26 registry workloads).

See ``docs/profdb.md`` for the record model and the amortization
numbers.
"""

from .db import ProfileDb, default_profdb_path
from .records import (InputProfile, LoopProfile, PROFDB_SCHEMA_VERSION,
                      PROVENANCE_COLD, PROVENANCE_CONFIRMED,
                      PROVENANCE_WARM, PROVENANCES, ProgramProfile,
                      site_key, split_site_key, validate_profdb_dict)
from .warmstart import StoredProfiler, rejoin_stats, warm_report

__all__ = ["ProfileDb", "default_profdb_path",
           "PROFDB_SCHEMA_VERSION", "PROVENANCES", "PROVENANCE_COLD",
           "PROVENANCE_WARM", "PROVENANCE_CONFIRMED",
           "LoopProfile", "InputProfile", "ProgramProfile",
           "site_key", "split_site_key", "validate_profdb_dict",
           "StoredProfiler", "rejoin_stats", "warm_report"]
