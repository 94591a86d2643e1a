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

class SpecThreadState:
    """Speculative state of one thread attempt on one CPU."""

    __slots__ = ("cpu_id", "iteration", "store_buffer", "store_lines",
                 "read_versions", "read_lines", "read_sites", "state",
                 "exit_id", "fp_addr", "violated", "overflowed",
                 "request_reset", "pending_exception", "acc_compute",
                 "acc_wait", "acc_overhead", "start_time",
                 "switch_request", "pending_resets", "pending_output",
                 "block_time")

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
        self.violated = False
        self.overflowed = False
        self.request_reset = False
        self.pending_exception = None
        self.switch_request = None
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
        self.violated = False
        self.overflowed = False
        self.request_reset = False
        self.pending_exception = None
        self.switch_request = None
        self.pending_resets = []
        # Cleared in place: the CPU's ``output_buffer`` aliases this
        # list for the whole STL entry (a callee's prints land there).
        self.pending_output.clear()


class SpecMemoryInterface:
    """Memory interface installed on a CPU while it runs a speculative
    thread.  Implements forwarding, read tagging and overflow checks."""

    __slots__ = ("ctx", "machine", "runtime", "config", "trace", "stored")

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
