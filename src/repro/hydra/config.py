"""Hydra CMP configuration — the constants of paper Figure 2 / Table 1.

Everything tunable about the simulated hardware and runtime lives here
so experiments can sweep it (the paper's "retargetability" argument:
different decompositions for CMPs with more CPUs or larger buffers).
"""

from dataclasses import asdict, dataclass, field

# ---------------------------------------------------------------------------
# memory map of the simulated machine (word-addressed, byte addresses)
# ---------------------------------------------------------------------------

#: Static fields and per-class lock words live here.
STATICS_BASE = 0x0000_8000
#: Runtime stack area used for STL local-variable communication ($fp slots).
STACK_BASE = 0x0010_0000
#: Allocator metadata (free-list heads, bump pointer) — real memory so that
#: allocation inside speculative threads creates real dependencies (§5.2).
ALLOCATOR_BASE = 0x0020_0000
#: Guest heap.
HEAP_BASE = 0x0040_0000
HEAP_LIMIT = 0x4000_0000

CACHE_LINE_BYTES = 32
CACHE_LINE_SHIFT = 5

#: Values of :attr:`HydraConfig.engine`.
ENGINES = ("fast", "reference")


def check_engine(engine):
    """Raise ``ValueError`` unless *engine* is one of :data:`ENGINES`
    (a mistyped engine must not yield a report)."""
    if engine not in ENGINES:
        raise ValueError("unknown engine %r (known: %s)"
                         % (engine, ", ".join(ENGINES)))


@dataclass
class SpeculationOverheads:
    """Software handler overheads in cycles (paper Table 1): build one
    with :meth:`new_handlers` or :meth:`old_handlers`, the table's two
    columns."""

    startup: int
    shutdown: int
    eoi: int
    restart: int

    @staticmethod
    def new_handlers():
        return SpeculationOverheads(23, 16, 5, 6)

    @staticmethod
    def old_handlers():
        return SpeculationOverheads(41, 46, 14, 13)

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(data):
        return SpeculationOverheads(**data)


@dataclass
class HydraConfig:
    """Simulated hardware and runtime-system parameters."""

    # -- CPUs ---------------------------------------------------------------
    num_cpus: int = 4

    # -- execution engine ---------------------------------------------------
    #: How the machine executes (one of :data:`ENGINES`, CLI
    #: ``--engine``).  ``"fast"`` runs predecoded handler tables with
    #: fused superinstruction blocks (repro.engine), the memory
    #: hierarchy's consecutive-access memo and the event-driven TLS
    #: scheduler.  ``"reference"`` runs the if/elif ``step_legacy``
    #: dispatcher and the stepwise smallest-clock TLS scheduler: the
    #: cycle-accounting and TLS event-order references.  The two are
    #: cycle-exact (tests/test_engine_differential.py and the golden
    #: report digests, one per workload for both engines).
    engine: str = "fast"

    # -- memory hierarchy (paper Fig. 2) ---------------------------------------
    l1_size_bytes: int = 16 * 1024
    l1_assoc: int = 4
    l2_size_bytes: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    line_bytes: int = CACHE_LINE_BYTES
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 5
    interprocessor_cycles: int = 10     # speculative forwarding latency
    memory_cycles: int = 50

    # -- speculative buffers (paper Fig. 2, per-thread limits) -------------------
    load_buffer_lines: int = 512        # 16kB of speculatively-read lines
    store_buffer_lines: int = 64        # 2kB speculative store buffer

    # -- TLS software handlers (paper Table 1) -------------------------------------
    overheads: SpeculationOverheads = field(
        default_factory=SpeculationOverheads.new_handlers)
    #: Cycles saved per entry by hoisted startup/shutdown (§4.2.7): the
    #: "wake up slave CPUs + init hardware" half of the handlers.
    hoisted_startup_cycles: int = 8
    hoisted_shutdown_cycles: int = 6

    # -- TEST profiler (paper §3.2) ---------------------------------------------
    comparator_banks: int = 8
    #: The paper recompiles after ~1000 profiled iterations.  Our data
    #: sets run ~100x shorter than the paper's, so the default target is
    #: scaled likewise to keep Figure 9's profiling slice proportional;
    #: set 1000 to reproduce the paper's literal heuristic.
    profile_iteration_target: int = 100
    #: Ring of recent thread-start timestamps per bank; arcs farther back
    #: than this appear as distance >= num_cpus and never constrain.
    bank_history: int = 8

    # -- selection heuristics (paper §3.1) ------------------------------------------
    min_predicted_speedup: float = 1.2
    min_iterations_per_entry: float = 3.0
    max_overflow_frequency: float = 0.1
    #: Sync-lock insertion: dependency arc frequency > 80% and arc length
    #: much shorter than the thread.
    sync_lock_arc_frequency: float = 0.8
    sync_lock_arc_ratio: float = 0.5
    #: Multilevel STL: inner-loop entries much rarer than outer iterations.
    multilevel_entry_ratio: float = 0.25

    # -- dynamic compiler cost model ----------------------------------------------
    #: microJIT compile cost per bytecode (it is a fast single-pass
    #: dataflow compiler; paper §4.1).  The paper's benchmarks run
    #: ~100x longer than our scaled data sets, so the per-bytecode cost
    #: is scaled down by the same factor to preserve the Figure 9 shape
    #: (compile time is a small slice of total execution).
    compile_cycles_per_bytecode: int = 30
    recompile_cycles_per_bytecode: int = 50

    # -- VM services ------------------------------------------------------------
    gc_threshold_bytes: int = 1 << 20
    gc_cycles_per_object: int = 12

    # -- call / misc cost model ------------------------------------------------
    call_overhead_cycles: int = 4
    virtual_dispatch_cycles: int = 2    # on top of the meta-word load
    alloc_service_cycles: int = 6
    lock_acquire_cycles: int = 3

    def __post_init__(self):
        check_engine(self.engine)

    def lines_of(self, size_bytes):
        return size_bytes // self.line_bytes

    def line_of(self, addr):
        return addr >> CACHE_LINE_SHIFT

    def to_dict(self):
        """Flat JSON-safe dict (nested overheads included) — also the
        canonical fingerprint input for the runner's report cache."""
        return asdict(self)

    @staticmethod
    def from_dict(data):
        data = dict(data)
        overheads = data.pop("overheads", None)
        config = HydraConfig(**data)
        if overheads is not None:
            config.overheads = SpeculationOverheads.from_dict(overheads)
        return config


DEFAULT_CONFIG = HydraConfig()
