"""Set-associative cache models for latency accounting.

The caches model *timing only* — data always comes from the flat
:class:`Memory` (or a speculative store buffer).  Each CPU has a private
L1 data cache; all CPUs share the on-chip L2 (paper Fig. 2).  Writes are
write-through with a write buffer, so stores cost one cycle and
allocate/update the line in both levels (the paper's write-through bus
keeps L1s coherent; we model coherence by invalidating peer L1 lines on
remote writes).
"""

from .config import CACHE_LINE_SHIFT

#: stand-in for a set no line was ever filled into: membership tests
#: read it like an empty set, and :meth:`SetAssociativeCache.fill`
#: swaps in a real dict at the first fill
_UNTOUCHED = frozenset()


class SetAssociativeCache:
    """LRU set-associative cache tracking which line addresses are present."""

    def __init__(self, size_bytes, assoc, line_bytes=32):
        self.num_sets = max(1, size_bytes // (line_bytes * assoc))
        self.assoc = assoc
        # Each set is a dict line_addr -> last-use tick (LRU via counter),
        # allocated at its first fill: most of the L2's 8,192 sets are
        # never touched by a run.
        self.sets = [_UNTOUCHED] * self.num_sets
        self.tick = 0
        self.hits = 0
        self.misses = 0

    def _set_for(self, line):
        return self.sets[line % self.num_sets]

    def lookup(self, line):
        """Returns True on hit (and touches the line)."""
        self.tick += 1
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = self.tick
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line):
        """Insert the line, evicting LRU if needed."""
        self.tick += 1
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = self.tick
            return
        if cache_set is _UNTOUCHED:
            cache_set = self.sets[line % self.num_sets] = {}
        elif len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line] = self.tick

    def invalidate(self, line):
        cache_set = self._set_for(line)
        if line in cache_set:
            del cache_set[line]

    def flush(self):
        self.sets = [_UNTOUCHED] * self.num_sets


class MemoryHierarchy:
    """Per-CPU L1s over a shared L2 over main memory; returns latencies.

    Consecutive-access memoization: simulated code touches the same
    cache line in runs (walking an array, spilling/reloading the same
    stack slot), so the hierarchy remembers the last ``(cpu, line,
    kind)`` access and answers an identical follow-up without the
    set-dict probe.  The fast paths are *counter-exact*: ``tick``,
    ``hits`` and ``misses`` advance exactly as the slow path would.
    Skipping the LRU tick rewrite is order-preserving — during a
    memoized run no other line in any set is touched (any other access
    resets the memo), so the memoized line stays the set's
    most-recently-used whether its stored tick is the run's first or
    last value.  Every observable (latency, counters, later eviction
    decisions) is bit-identical with memoization on.
    """

    def __init__(self, config):
        self.config = config
        self.l1 = [SetAssociativeCache(config.l1_size_bytes, config.l1_assoc,
                                       config.line_bytes)
                   for __ in range(config.num_cpus)]
        self.l2 = SetAssociativeCache(config.l2_size_bytes, config.l2_assoc,
                                      config.line_bytes)
        #: last access: (cpu, line, kind) — invalidated by any
        #: non-matching access and by :meth:`flush_l1`.  Enabled only
        #: for the fast engine (kept ``None`` forever otherwise) so the
        #: reference engine really is the unmodified reference path.
        self._memo = None
        self._memo_enabled = config.engine == "fast"

    def load_latency(self, cpu, addr):
        line = addr >> CACHE_LINE_SHIFT
        l1 = self.l1[cpu]
        # Field-wise memo compare (no tuple allocation on the hot path).
        memo = self._memo
        if memo is not None and memo[1] == line and memo[0] == cpu \
                and memo[2] == "load":
            # Repeat same-line load by the same CPU: guaranteed L1 hit.
            l1.tick += 1
            l1.hits += 1
            return self.config.l1_hit_cycles
        if self._memo_enabled:
            self._memo = (cpu, line, "load")
        config = self.config
        # L1 probe, inlined from SetAssociativeCache.lookup — loads
        # dominate the hierarchy traffic and mostly hit here.
        tick = l1.tick + 1
        l1.tick = tick
        cache_set = l1.sets[line % l1.num_sets]
        if line in cache_set:
            cache_set[line] = tick
            l1.hits += 1
            return config.l1_hit_cycles
        l1.misses += 1
        if self.l2.lookup(line):
            l1.fill(line)
            return config.l2_hit_cycles
        self.l2.fill(line)
        l1.fill(line)
        return config.memory_cycles

    def store_latency(self, cpu, addr):
        """Write-through with write buffering: one cycle from the CPU's
        point of view; the line is updated in this L1 and L2, and peer
        L1 copies are invalidated (write-bus coherence)."""
        line = addr >> CACHE_LINE_SHIFT
        if self._memo == (cpu, line, "store"):
            # Repeat same-line store: both fills would only rewrite the
            # LRU tick, and peer L1s already lost the line.
            self.l1[cpu].tick += 1
            self.l2.tick += 1
            return 1
        if self._memo_enabled:
            self._memo = (cpu, line, "store")
        self.l1[cpu].fill(line)
        self.l2.fill(line)
        for other, l1 in enumerate(self.l1):
            if other != cpu:
                l1.invalidate(line)
        return 1

    def flush_l1(self, cpu):
        self.l1[cpu].flush()
        self._memo = None

    def counters(self):
        """Cumulative hit/miss counters across all L1s plus the shared
        L2 — harvested by the trace layer (``repro.trace``) into
        counter tracks and :class:`~repro.trace.TraceAggregates`, so
        cache observability costs nothing on the per-access path."""
        return {
            "l1_hits": sum(l1.hits for l1 in self.l1),
            "l1_misses": sum(l1.misses for l1 in self.l1),
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
        }
