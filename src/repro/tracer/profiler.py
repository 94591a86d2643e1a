"""TEST: Tracer for Extracting Speculative Threads (paper §3, [9]).

A software model of the TEST hardware: timestamp tables held in the
(otherwise idle) speculative store buffers, and an array of comparator
banks that analyze the event stream of a *sequential annotated* run.

Events arrive from the Hydra machine:

* ``on_sloop/on_eoi/on_eloop`` — loop entry / thread boundary / exit,
* ``on_load/on_store`` — every memory access (heap, statics, allocator),
* ``on_lwl/on_swl`` — annotated loop-carried local variable accesses.

Two analyses run per bank exactly as §3.1 describes: the *load
dependency analysis* (compare prior store timestamps against thread
start timestamps, track the critical arc) and the *speculative state
overflow analysis* (count new cache lines / store-buffer entries per
thread against the hardware limits).

The hooks run once per simulated access, so they are written for the
common case: the innermost activation of a loop is found through a
per-loop stack rather than a scan, and a load whose prior store cannot
form an arc for a bank (it predates the loop, or it happened in the
current thread) is rejected inline before any call.  None of this
changes what the banks compute.
"""

from collections import deque

from ..hydra.config import ALLOCATOR_BASE, CACHE_LINE_SHIFT, HEAP_BASE
from .stats import LoopStats


def _site_key(site):
    """Stable identity for a load/store instruction across compiles."""
    if site is None:
        return None
    frame_name, instr = site
    return (frame_name, instr.line, int(instr.op), instr.imm)


class ComparatorBank:
    """Tracks statistics for one active loop instance (paper Fig. 2)."""

    __slots__ = ("instance", "starts", "thread_start", "entry_ts",
                 "load_lines", "store_lines", "critical", "critical_arc",
                 "thread_index", "history")

    def __init__(self, instance, now, history):
        self.instance = instance
        self.history = history
        #: start timestamps of the previous *history* threads, oldest
        #: first (the bank's history ring)
        self.starts = deque(maxlen=history)
        self.thread_start = now
        self.entry_ts = now
        self.thread_index = 0
        self.load_lines = set()
        self.store_lines = set()
        self.critical = 0.0
        self.critical_arc = None    # (store_site, load_site, length, dist)

    def boundary(self, now):
        """End the current thread at time *now*; returns per-thread facts."""
        facts = (now - self.thread_start, len(self.load_lines),
                 len(self.store_lines), self.critical, self.critical_arc)
        self.starts.append(self.thread_start)
        self.thread_start = now
        self.thread_index += 1
        self.load_lines.clear()
        self.store_lines.clear()
        self.critical = 0.0
        self.critical_arc = None
        return facts

    def arc_distance(self, store_ts):
        """How many thread boundaries back the store happened (>=1), or
        None if it predates the bank's history ring."""
        if store_ts >= self.thread_start:
            return 0                # intra-thread
        distance = 0
        for start in reversed(self.starts):
            distance += 1
            if store_ts >= start:
                return distance
        return None

    def producer_start(self, distance):
        return self.starts[-distance]


class ActiveLoop:
    """One dynamic activation of a prospective STL."""

    __slots__ = ("loop_id", "bank", "stats", "local_ts", "shadowed")

    def __init__(self, loop_id, bank, stats=None, shadowed=None):
        self.loop_id = loop_id
        self.bank = bank
        self.stats = stats
        #: carried-local slot -> timestamp of its last SWL in this
        #: activation
        self.local_ts = {}
        #: the enclosing activation of the same loop (recursive
        #: re-entry), which becomes innermost again when this one exits
        self.shadowed = shadowed


class TestProfiler:
    """The profiler attached to a Machine during the annotated run."""

    #: not a pytest test class, despite the paper's naming of TEST
    __test__ = False

    def __init__(self, config, loop_table=None, trace=None):
        self.config = config
        self.loop_table = loop_table or {}
        #: optional repro.trace.TraceCollector — records profile-phase
        #: loop activations and comparator-bank pressure on the "TEST
        #: profile" track of the exported Chrome trace
        self.trace = trace
        self.stats = {}               # loop_id -> LoopStats
        self.active = []              # stack of ActiveLoop
        #: loop_id -> its innermost ActiveLoop, the top of a per-loop
        #: stack linked through ActiveLoop.shadowed: recursive re-entry
        #: resolves to the nearest activation in O(1)
        self._innermost = {}
        #: banks of :attr:`active` that are not None, in the same order
        self._banks = []
        self.banks_in_use = 0
        self.store_ts = {}            # word addr -> (ts, site_key)
        self.line_ts = {}             # line -> ts
        self._site_keys = {}          # site -> _site_key(site)
        self.events = 0
        self.bank_steals = 0
        self.missed_allocations = 0
        #: (outer loop_id, inner loop_id) pairs observed at runtime —
        #: includes nesting through method calls, which static loop
        #: structure cannot see.
        self.dynamic_nesting = set()
        self.max_dynamic_depth = 0

    # -- bookkeeping ------------------------------------------------------
    def stats_for(self, loop_id):
        stats = self.stats.get(loop_id)
        if stats is None:
            stats = self.stats[loop_id] = LoopStats(loop_id)
        return stats

    def _site_key(self, site):
        """:func:`_site_key`, memoized per site."""
        key = self._site_keys.get(site)
        if key is None and site is not None:
            key = self._site_keys[site] = _site_key(site)
        return key

    def _allocate_bank(self, instance, now):
        if self.banks_in_use < self.config.comparator_banks:
            self.banks_in_use += 1
            return ComparatorBank(instance, now, self.config.bank_history)
        # Bank-stealing policy (paper §6.1): outer loops predicted to
        # consistently overflow release their banks to inner loops.
        for active in self.active:
            if active.bank is None:
                continue
            stats = active.stats
            if stats.threads >= 3 and stats.overflow_frequency > 0.9:
                active.bank = None
                self.bank_steals += 1
                if self.trace is not None:
                    self.trace.bank(now, active.loop_id, "steal")
                return ComparatorBank(instance, now, self.config.bank_history)
        self.missed_allocations += 1
        if self.trace is not None:
            self.trace.bank(now, instance.loop_id, "missed")
        return None

    def _sync_banks(self):
        self._banks = [active.bank for active in self.active
                       if active.bank is not None]

    # -- loop events ----------------------------------------------------------
    def on_sloop(self, loop_id, nslots, now):
        self.events += 1
        for outer in self.active:
            self.dynamic_nesting.add((outer.loop_id, loop_id))
        if len(self.active) + 1 > self.max_dynamic_depth:
            self.max_dynamic_depth = len(self.active) + 1
        stats = self.stats_for(loop_id)
        active = ActiveLoop(loop_id, None, stats,
                            self._innermost.get(loop_id))
        active.bank = self._allocate_bank(active, now)
        self.active.append(active)
        self._innermost[loop_id] = active
        self._sync_banks()
        if self.trace is not None:
            self.trace.profile_loop(now, loop_id, "enter")
        stats.entries += 1
        if active.bank is not None:
            stats.profiled_entries += 1
        else:
            stats.unprofiled_entries += 1

    def on_eoi(self, loop_id, now):
        self.events += 1
        active = self._innermost.get(loop_id)
        if active is None:
            return
        stats = active.stats
        stats.total_iterations += 1
        bank = active.bank
        if bank is None:
            return
        self._finish_thread(stats, bank, now)

    def on_eloop(self, loop_id, now):
        self.events += 1
        active = self._innermost.get(loop_id)
        if active is None:
            return
        if active.shadowed is None:
            del self._innermost[loop_id]
        else:
            self._innermost[loop_id] = active.shadowed
        # Count the final (possibly partial) thread.
        if active.bank is not None:
            stats = active.stats
            stats.total_iterations += 1
            self._finish_thread(stats, active.bank, now)
            self.banks_in_use -= 1
        if self.trace is not None:
            self.trace.profile_loop(now, loop_id, "exit")
        self.active.remove(active)
        self._sync_banks()

    def _finish_thread(self, stats, bank, now):
        size, loads, stores, critical, critical_arc = bank.boundary(now)
        stats.threads += 1
        stats.total_thread_cycles += size
        stats.sum_load_lines += loads
        stats.sum_store_lines += stores
        if loads > stats.max_load_lines:
            stats.max_load_lines = loads
        if stores > stats.max_store_lines:
            stats.max_store_lines = stores
        config = self.config
        if (loads > config.load_buffer_lines
                or stores > config.store_buffer_lines):
            stats.overflow_threads += 1
        if critical > 0.0:
            stats.arc_threads += 1
            stats.sum_critical_constraint += critical
            if critical_arc is not None:
                (store_site, load_site, length, distance,
                 is_allocator, store_offset) = critical_arc
                stats.arc_for(store_site, load_site).record(
                    critical, length, distance, allocator=is_allocator,
                    store_offset=store_offset)

    # -- memory events -----------------------------------------------------------
    def on_load(self, addr, now, site):
        self.events += 1
        if not self.active:
            return
        line = addr >> CACHE_LINE_SHIFT
        line_time = self.line_ts.get(line)
        entry = self.store_ts.get(addr)
        if entry is None:
            for bank in self._banks:
                if line_time is None or line_time < bank.thread_start:
                    bank.load_lines.add(line)
        else:
            store_ts = entry[0]
            key = None
            for bank in self._banks:
                thread_start = bank.thread_start
                if line_time is None or line_time < thread_start:
                    bank.load_lines.add(line)
                # An arc needs a store inside this loop activation but
                # before the current thread (see _check_dependency).
                if bank.entry_ts <= store_ts < thread_start:
                    if key is None:
                        key = self._site_key(site)
                    self._check_dependency(bank, entry, now, key,
                                           addr=addr)
        self.line_ts[line] = now

    def on_store(self, addr, now, site):
        self.events += 1
        if self.active:
            line = addr >> CACHE_LINE_SHIFT
            line_time = self.line_ts.get(line)
            for bank in self._banks:
                if line_time is None or line_time < bank.thread_start:
                    bank.store_lines.add(line)
            self.line_ts[line] = now
        self.store_ts[addr] = (now, self._site_key(site))

    def _check_dependency(self, bank, entry, now, load_site_key,
                          addr=None):
        """Record a cross-thread arc from the store in *entry* to a load
        at *now*.  Callers have already checked ``bank.entry_ts <=
        store_ts < bank.thread_start``: the store is carried by this
        loop activation and did not happen in the current thread."""
        store_ts, store_site = entry
        distance = bank.arc_distance(store_ts)
        if distance is None:
            return                       # older than the history ring
        producer_start = bank.producer_start(distance)
        d_store = store_ts - producer_start
        d_load = now - bank.thread_start
        constraint = (d_store - d_load
                      + self.config.interprocessor_cycles) / distance
        if constraint > bank.critical:
            is_allocator = (addr is not None
                            and ALLOCATOR_BASE <= addr < HEAP_BASE)
            bank.critical = constraint
            bank.critical_arc = (store_site, load_site_key,
                                 d_store - d_load, distance, is_allocator,
                                 d_store)

    # -- local variable events --------------------------------------------------
    # Carried locals are identified by (loop, slot), which the STL
    # recompiler can map straight back to the communicated variable.
    def on_swl(self, loop_id, slot, now, site):
        self.events += 1
        active = self._innermost.get(loop_id)
        if active is not None:
            active.local_ts[slot] = now

    def on_lwl(self, loop_id, slot, now, site):
        self.events += 1
        active = self._innermost.get(loop_id)
        if active is None:
            return
        bank = active.bank
        if bank is None:
            return
        store_ts = active.local_ts.get(slot)
        # Most reads follow a write in the same thread: test that first.
        if (store_ts is None or store_ts >= bank.thread_start
                or store_ts < bank.entry_ts):
            return
        key = ("local", loop_id, slot)
        self._check_dependency(bank, (store_ts, key), now, key)
