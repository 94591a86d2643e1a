"""Speculative memory state: store buffers, read sets, forwarding.

Models Hydra's TLS data path (paper §2):

* speculative stores are buffered per thread (never touch memory until
  the thread commits in order),
* loads forward from the nearest less-speculative thread's store buffer
  (interprocessor latency), else read committed memory through the
  cache hierarchy,
* every speculative load is tagged with the *version* it consumed so a
  later store by an earlier thread triggers a RAW violation exactly
  when the consumed value is stale,
* per-thread speculative state is bounded by the L1 (512 read lines)
  and the store buffers (64 written lines); exceeding either stalls the
  thread until it becomes the head (paper §3).
"""

from ..hydra.config import CACHE_LINE_SHIFT
from ..jit.ir import IROp


class SpecThreadState:
    """Speculative state of one thread attempt on one CPU."""

    __slots__ = ("cpu_id", "iteration", "store_buffer", "store_lines",
                 "read_versions", "read_lines", "read_sites", "state",
                 "exit_id", "fp_addr", "overflowed", "request_reset",
                 "pending_exception", "acc_compute", "acc_wait",
                 "acc_overhead", "start_time", "pending_resets",
                 "pending_output", "block_time")

    RUNNING = "running"
    WAIT_HEAD = "wait_head"       # finished EOI, waiting to commit
    EXITED = "exited"             # took a loop exit, waiting to be head
    STALLED = "stalled"           # buffer overflow, waiting to be head
    WAIT_LOCK = "wait_lock"       # spinning on a synchronizing lock
    EXCEPTION = "exception"       # guest exception, waiting to be head

    def __init__(self, cpu_id, iteration, fp_addr):
        self.cpu_id = cpu_id
        self.iteration = iteration
        self.fp_addr = fp_addr
        self.store_buffer = {}        # addr -> value
        self.store_lines = set()
        self.read_versions = {}       # addr -> version iteration (-1 = mem)
        self.read_lines = set()
        self.read_sites = {}          # addr -> load site (tracing only)
        self.state = self.RUNNING
        self.exit_id = None
        self.overflowed = False
        self.request_reset = False
        self.pending_exception = None
        self.acc_compute = 0.0
        self.acc_wait = 0.0
        self.acc_overhead = 0.0
        self.start_time = 0.0
        self.pending_resets = []
        self.pending_output = []
        self.block_time = 0.0

    def reset_speculative_state(self, iteration=None):
        if iteration is not None:
            self.iteration = iteration
        self.store_buffer.clear()
        self.store_lines.clear()
        self.read_versions.clear()
        self.read_lines.clear()
        if self.read_sites:
            self.read_sites.clear()
        self.state = self.RUNNING
        self.exit_id = None
        self.overflowed = False
        self.request_reset = False
        self.pending_exception = None
        self.pending_resets = []
        # Cleared in place: the CPU's ``output_buffer`` aliases this
        # list for the whole STL entry (a callee's prints land there).
        self.pending_output.clear()


class SpecMemoryInterface:
    """Memory interface installed on a CPU while it runs a speculative
    thread.  Implements forwarding, read tagging and overflow checks.

    It is the reference for the fused thread-code handlers below
    (:func:`fuse_thread_memory_ops`), and what they call for the rare
    cases."""

    __slots__ = ("ctx", "machine", "runtime", "config", "trace", "stored",
                 "words", "hierarchy", "l1", "l1_hit_cycles",
                 "load_buffer_lines", "store_buffer_lines")

    def __init__(self, ctx, runtime):
        self.ctx = ctx
        self.machine = ctx.machine
        self.runtime = runtime
        self.config = ctx.machine.config
        # Trace collector (or None).  Cached here so the per-first-read
        # guard below is one attribute load, not a machine lookup.
        self.trace = getattr(ctx.machine, "trace", None)
        #: every word any thread of this STL entry has buffered (never
        #: shrinks): a word outside it is in no store buffer, so the
        #: load skips the version search — most speculative loads do
        self.stored = runtime.stored
        #: what the fused handlers read per access, one load away
        self.words = ctx.machine.memory.words
        self.hierarchy = ctx.machine.hierarchy
        self.l1 = self.hierarchy.l1[ctx.cpu_id]
        self.l1_hit_cycles = self.config.l1_hit_cycles
        self.load_buffer_lines = self.config.load_buffer_lines
        self.store_buffer_lines = self.config.store_buffer_lines

    # -- lookups --------------------------------------------------------------
    def _find_version(self, addr):
        """Value + version for *addr*: own buffer, then less-speculative
        buffers (nearest first), then committed memory.

        Wild addresses (computed from stale speculative data) read as
        zero instead of faulting — the hardware would likewise return
        garbage, and the thread is doomed to restart anyway.
        """
        if addr in self.stored:
            my = self.ctx.spec
            if addr in my.store_buffer:
                return my.store_buffer[addr], my.iteration, "own"
            # Nearest less-speculative forwarder == the highest
            # iteration below ours holding the word: one pass over the
            # (few) threads instead of sorting them per load.
            my_iteration = my.iteration
            source = None
            source_iteration = -1
            for thread in self.runtime.threads:
                iteration = thread.iteration
                if iteration < my_iteration \
                        and iteration > source_iteration \
                        and addr in thread.store_buffer:
                    source = thread
                    source_iteration = iteration
            if source is not None:
                return source.store_buffer[addr], source_iteration, \
                    "forward"
        if addr <= 0 or addr & 3:
            return 0, -1, "memory"
        return self.machine.memory.words.get(addr, 0), -1, "memory"

    def load(self, addr):
        ctx = self.ctx
        my = ctx.spec
        if addr in self.stored:
            value, __, source = self._find_version(addr)
        else:
            # The hot path: a word no thread has buffered is read from
            # committed memory (wild addresses read as zero).
            source = None
            value = 0 if addr <= 0 or addr & 3 else \
                self.machine.memory.words.get(addr, 0)
        own = source == "own"
        if own:
            latency = 1
        elif source == "forward":
            latency = self.config.interprocessor_cycles
        elif addr <= 0:
            latency = 1
        else:
            latency = self.machine.hierarchy.load_latency(ctx.cpu_id, addr)
        # Set the speculative-read tag.  Hydra's L1 tag bits cannot tell
        # *which* version a read consumed, so any later store by a
        # less-speculative thread to a tagged address violates — except
        # when the thread wrote the word itself before reading (the
        # store buffer renames it; True means "vulnerable").
        if addr not in my.read_versions:
            my.read_versions[addr] = not own
            if self.trace is not None:
                # Remember *which load* consumed the value so a later
                # violation can report the arc's sink PC (paper Fig. 10
                # wants arcs, not just counts).  Tracing-only: costs one
                # dict store per first-read of an address.
                my.read_sites[addr] = ctx.current_site
            line = addr >> CACHE_LINE_SHIFT
            my.read_lines.add(line)
            if (len(my.read_lines) > self.config.load_buffer_lines
                    and not self.runtime.is_head(my)):
                self.runtime.flag_overflow(my)
        return value, latency

    def lwnv(self, addr):
        """Non-violating load (paper's lwnv): sees speculative values but
        sets no read tag, so it can never cause a violation."""
        value, __, source = self._find_version(addr)
        if source == "own" or addr <= 0:
            latency = 1
        elif source == "forward":
            latency = self.config.interprocessor_cycles
        else:
            latency = self.machine.hierarchy.load_latency(
                self.ctx.cpu_id, addr)
        return value, latency

    def store(self, addr, value):
        my = self.ctx.spec
        my.store_buffer[addr] = value
        self.stored.add(addr)
        line = addr >> CACHE_LINE_SHIFT
        my.store_lines.add(line)
        if (len(my.store_lines) > self.config.store_buffer_lines
                and not self.runtime.is_head(my)):
            self.runtime.flag_overflow(my)
        self.runtime.notify_store(my, addr)
        return 1


# ---------------------------------------------------------------------------
# fused thread-code handlers
# ---------------------------------------------------------------------------

def fuse_thread_memory_ops(table, code, unit_name):
    """Swap the ``LW``/``SW`` entries of a TLS thread-code unit's
    dispatch *table* for fused handlers, in place.

    Thread code only ever runs speculatively, under a
    :class:`SpecMemoryInterface`, so each handler inlines that
    interface's common case into one Python frame: for ``LW`` the
    value (committed memory, or the version search of
    :meth:`SpecMemoryInterface._find_version` for a word some thread
    buffered), the L1 probe (memo repeat or L1 hit, as
    :meth:`~repro.hydra.cache.MemoryHierarchy.load_latency` does it),
    the read tag and ``read_sites`` (when tracing) and the load-buffer
    overflow check; for ``SW`` the store-buffer write, the overflow
    check and a scan for a vulnerable read tag.  Rare cases call the
    interface's own methods: an L1 miss (``load_latency``) and a RAW
    violation (``notify_store``).  Every observable — value, latency,
    clocks, tags, cache counters and memo — equals the generic
    handler's (``tests/test_tls_buffers.py``).

    The ``LW`` handler also has a *commuting* mode: it runs only a
    load that commutes with younger CPUs' events and refuses any other
    before a side effect.  The event scheduler runs such loads inside
    a CPU's run-ahead (``repro.tls.runtime``).
    """
    for pc, instr in enumerate(code):
        if instr.op == IROp.LW:
            table[pc] = _thread_lw(instr, pc, unit_name)
        elif instr.op == IROp.SW:
            table[pc] = _thread_sw(instr, pc, unit_name)


def _thread_lw(instr, pc, unit_name):
    dst, a, imm = instr.dst, instr.a, instr.imm
    site = (unit_name, instr)
    next_pc = pc + 1

    def lw(ctx, frame, commute=False):
        """The load; with *commute* set, only if it commutes with every
        more-speculative CPU's pending events (``repro.tls.runtime``):
        it touches no shared cache state (an L1 hit or no cache access
        at all) and cannot overflow the load buffer.  A load that does
        not commute is refused before any side effect, returning True;
        one that runs returns None, as in the plain mode."""
        regs = frame.regs
        addr = imm if a is None else regs[a] + imm
        mem = ctx.mem
        my = ctx.spec
        read_versions = my.read_versions
        tagged = addr in read_versions
        if commute and not tagged:
            read_lines = my.read_lines
            if len(read_lines) >= mem.load_buffer_lines \
                    and addr >> CACHE_LINE_SHIFT not in read_lines:
                return True          # a new line might overflow
        vulnerable = True
        latency = None               # None: committed memory, via the L1
        if addr in mem.stored:
            # Some thread buffered the word: own, forwarded or memory.
            value, __, source = mem._find_version(addr)
            if source == "own":
                latency = 1
                vulnerable = False   # renamed by our own store
            elif source == "forward":
                latency = mem.config.interprocessor_cycles
            elif addr <= 0:
                latency = 1
        elif addr <= 0:
            value = 0
            latency = 1
        else:
            value = 0 if addr & 3 else mem.words.get(addr, 0)
        if latency is None:
            line = addr >> CACHE_LINE_SHIFT
            cpu = ctx.cpu_id
            hierarchy = mem.hierarchy
            memo = hierarchy._memo
            l1 = mem.l1
            if memo is not None and memo[1] == line \
                    and memo[0] == cpu and memo[2] == "load":
                l1.tick += 1
                l1.hits += 1
                latency = mem.l1_hit_cycles
            else:
                cache_set = l1.sets[line % l1.num_sets]
                if line in cache_set:
                    if hierarchy._memo_enabled:
                        hierarchy._memo = (cpu, line, "load")
                    tick = l1.tick + 1
                    l1.tick = tick
                    cache_set[line] = tick
                    l1.hits += 1
                    latency = mem.l1_hit_cycles
                elif commute:
                    return True      # an L1 miss touches the shared L2
                else:
                    latency = hierarchy.load_latency(cpu, addr)
        frame.pc = next_pc
        ctx.instret += 1
        ctx.current_site = site
        if not tagged:
            read_versions[addr] = vulnerable
            if mem.trace is not None:
                my.read_sites[addr] = site
            read_lines = my.read_lines
            read_lines.add(addr >> CACHE_LINE_SHIFT)
            if len(read_lines) > mem.load_buffer_lines:
                runtime = mem.runtime
                if my.iteration != runtime.head_iteration:
                    runtime.flag_overflow(my)
        regs[dst] = value
        ctx.time += latency
        return None
    return lw


def _thread_sw(instr, pc, unit_name):
    src, b, imm = instr.a, instr.b, instr.imm
    site = (unit_name, instr)
    next_pc = pc + 1

    def sw(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        ctx.current_site = site
        regs = frame.regs
        addr = imm if b is None else regs[b] + imm
        mem = ctx.mem
        my = ctx.spec
        my.store_buffer[addr] = regs[src]
        mem.stored.add(addr)
        store_lines = my.store_lines
        store_lines.add(addr >> CACHE_LINE_SHIFT)
        runtime = mem.runtime
        iteration = my.iteration
        if len(store_lines) > mem.store_buffer_lines \
                and iteration != runtime.head_iteration:
            runtime.flag_overflow(my)
        for thread in runtime.threads:
            if thread.iteration > iteration \
                    and thread.read_versions.get(addr):
                runtime.notify_store(my, addr)
                break
        ctx.time += 1
        return None
    return sw
