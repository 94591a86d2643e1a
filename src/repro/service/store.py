"""Shared artifact store: the daemon's warm state.

One store instance is shared by every connection and every scheduler
batch of a daemon (and by every run of one ``jrpm suite``).  It
memoizes finished job results — compiled-baseline measurements, TEST
profiles, STL plan sets, full reports — keyed by
:func:`~repro.service.jobs.job_fingerprint`, so a second identical
request is served in microseconds without recompiling anything.

Two tiers:

* an in-memory dict (bounded, LRU eviction) serves the hot path;
* optionally, a persistent :class:`~repro.runner.cache.ReportCache`
  underneath (``disk_cache``; ``None`` = no disk tier) makes
  ``run``/``run_adaptive`` results survive daemon restarts.  The daemon
  and ``jrpm suite`` key it the same way and this class is its only
  writer, so a report cached by one is a hit for the other.

Thread-safe: the scheduler thread writes while asyncio handlers read.
"""

import threading
from collections import OrderedDict

from ..metrics import get_registry
from ..runner.cache import code_fingerprint
from .jobs import job_fingerprint

#: verbs whose results carry a full JrpmReport dict and therefore may
#: ride the persistent on-disk report cache
PERSISTENT_VERBS = ("run", "run_adaptive")


class ArtifactStore:
    """Fingerprint-keyed memo of job results with per-verb counters."""

    def __init__(self, max_entries=512, disk_cache=None):
        self.max_entries = max_entries
        self.disk_cache = disk_cache       # ReportCache, or None
        self._entries = OrderedDict()      # fingerprint -> result dict
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.hits_by_verb = {}
        self.misses_by_verb = {}
        self._salt = None

    def salt(self):
        """The code-version salt, computed once per daemon."""
        if self._salt is None:
            self._salt = code_fingerprint()
        return self._salt

    def key_of(self, spec):
        """Content-addressed store key for one job spec."""
        return job_fingerprint(spec, salt=self.salt())

    # -- lookup / insert ---------------------------------------------------
    def get(self, spec, count=True):
        """Memoized result for *spec*, or ``None``.  Counts the verb's
        hit/miss unless ``count=False`` (the scheduler's in-batch
        re-check, which would double-book the submit-time miss).

        Jobs with a profile DB attached always miss: their result
        depends on the DB's mutable cross-run state (a warm report must
        never be replayed to a plain run, and the second run of a
        workload must actually execute to exercise the warm path)."""
        if getattr(spec.options, "profile_db", None):
            if count:
                with self._lock:
                    self._count(spec.verb, hit=False)
            return None
        key = self.key_of(spec)
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                if count:
                    self._count(spec.verb, hit=True)
                return result
        if self.disk_cache is not None and spec.verb in PERSISTENT_VERBS:
            payload = self.disk_cache.get(key)
            if payload is not None and "report" in payload:
                result = {"report": payload["report"],
                          "wall_time": payload.get("wall_time", 0.0)}
                with self._lock:
                    self._remember(key, result)
                    if count:
                        self._count(spec.verb, hit=True)
                return result
        with self._lock:
            if count:
                self._count(spec.verb, hit=False)
        return None

    def put(self, spec, result):
        """Memoize a finished job's result under its fingerprint.
        Profile-DB-backed jobs are not memoized (see :meth:`get`)."""
        if getattr(spec.options, "profile_db", None):
            return
        key = self.key_of(spec)
        with self._lock:
            self._remember(key, result)
        if self.disk_cache is not None and spec.verb in PERSISTENT_VERBS \
                and "report" in result:
            self.disk_cache.put(key, {
                "name": spec.name,
                "verb": spec.verb,
                "wall_time": result.get("wall_time", 0.0),
                "report": result["report"],
            })

    def _remember(self, key, result):
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _count(self, verb, hit):
        if hit:
            self.hits += 1
            self.hits_by_verb[verb] = self.hits_by_verb.get(verb, 0) + 1
        else:
            self.misses += 1
            self.misses_by_verb[verb] = \
                self.misses_by_verb.get(verb, 0) + 1
        get_registry().counter(
            "jrpm_store_lookups", "Artifact-store lookups by outcome",
            labels=("verb", "outcome")).labels(
                verb=verb, outcome="hit" if hit else "miss").inc()
        get_registry().gauge(
            "jrpm_store_entries", "Artifact-store resident entries").set(
                len(self._entries))

    # -- introspection -----------------------------------------------------
    @property
    def hit_rate(self):
        """Fraction of lookups served from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def stats_dict(self):
        """JSON-safe snapshot of entry/hit/miss counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "hits_by_verb": dict(self.hits_by_verb),
                "misses_by_verb": dict(self.misses_by_verb),
                "persistent": self.disk_cache is not None,
            }
