"""Unit tests for the speculative memory data path (forwarding, read
tags, buffer-limit flagging) with a stubbed runtime."""

import pytest

from repro.hydra.config import HydraConfig
from repro.hydra.machine import CpuContext, Machine
from repro.jit.compiler import compile_program
from repro.minijava import compile_source
from repro.tls.buffers import SpecMemoryInterface, SpecThreadState

from conftest import wrap_main


class _StubExecution:
    """Minimal speculation-services provider for the interface."""

    def __init__(self, threads):
        self.threads = threads
        self.stored = set()
        self.overflowed = []
        self.stores = []
        self.head_iteration = min(t.iteration for t in threads)

    def is_head(self, spec):
        return spec.iteration == self.head_iteration

    def flag_overflow(self, spec):
        self.overflowed.append(spec.iteration)
        spec.overflowed = True

    def notify_store(self, storer, addr):
        self.stores.append((storer.iteration, addr))


def make_world(num_threads=3, config=None):
    config = config or HydraConfig()
    program = compile_source(wrap_main("return 0;"))
    compiled = compile_program(program, config)
    machine = Machine(compiled, config)
    ctxs = []
    threads = []
    for iteration in range(num_threads):
        ctx = CpuContext(machine, iteration % config.num_cpus)
        thread = SpecThreadState(ctx.cpu_id, iteration, 0x100000)
        ctx.spec = thread
        threads.append(thread)
        ctxs.append(ctx)
    execution = _StubExecution(threads)
    for ctx in ctxs:
        ctx.mem = SpecMemoryInterface(ctx, execution)
    return machine, ctxs, threads, execution


ADDR = 0x40_0000


def test_load_from_committed_memory():
    machine, ctxs, threads, __ = make_world()
    machine.memory.store(ADDR, 77)
    value, latency = ctxs[0].mem.load(ADDR)
    assert value == 77
    assert latency >= 1


def test_store_is_buffered_not_committed():
    machine, ctxs, threads, __ = make_world()
    ctxs[1].mem.store(ADDR, 5)
    assert threads[1].store_buffer[ADDR] == 5
    assert machine.memory.load(ADDR) == 0


def test_forwarding_from_less_speculative_buffer():
    machine, ctxs, threads, __ = make_world()
    machine.memory.store(ADDR, 1)
    ctxs[0].mem.store(ADDR, 42)
    value, latency = ctxs[2].mem.load(ADDR)
    assert value == 42
    assert latency == machine.config.interprocessor_cycles


def test_forwarding_prefers_nearest_producer():
    machine, ctxs, threads, __ = make_world()
    ctxs[0].mem.store(ADDR, 10)
    ctxs[1].mem.store(ADDR, 20)
    value, __lat = ctxs[2].mem.load(ADDR)
    assert value == 20


def test_own_buffer_wins_and_protects():
    machine, ctxs, threads, __ = make_world()
    ctxs[1].mem.store(ADDR, 9)
    value, latency = ctxs[1].mem.load(ADDR)
    assert value == 9 and latency == 1
    # Read-after-own-write must not be vulnerable to earlier stores.
    assert threads[1].read_versions[ADDR] is False


def test_external_read_is_vulnerable():
    machine, ctxs, threads, __ = make_world()
    ctxs[1].mem.load(ADDR)
    assert threads[1].read_versions[ADDR] is True


def test_lwnv_sets_no_read_tag():
    machine, ctxs, threads, __ = make_world()
    ctxs[0].mem.store(ADDR, 3)
    value, __lat = ctxs[1].mem.lwnv(ADDR)
    assert value == 3
    assert ADDR not in threads[1].read_versions


def test_store_notifies_runtime():
    machine, ctxs, threads, execution = make_world()
    ctxs[0].mem.store(ADDR, 1)
    assert execution.stores == [(0, ADDR)]


def test_wild_address_reads_zero():
    machine, ctxs, threads, __ = make_world()
    value, latency = ctxs[1].mem.load(-4)
    assert value == 0 and latency == 1


def test_read_line_overflow_flagged():
    config = HydraConfig(load_buffer_lines=2)
    machine, ctxs, threads, execution = make_world(config=config)
    for k in range(3):
        ctxs[1].mem.load(ADDR + 32 * k)
    assert threads[1].overflowed
    assert execution.overflowed == [1]


def test_store_line_overflow_flagged():
    config = HydraConfig(store_buffer_lines=2)
    machine, ctxs, threads, execution = make_world(config=config)
    for k in range(3):
        ctxs[1].mem.store(ADDR + 32 * k, k)
    assert threads[1].overflowed


def test_head_thread_never_flags_overflow():
    config = HydraConfig(load_buffer_lines=1)
    machine, ctxs, threads, execution = make_world(config=config)
    for k in range(4):
        ctxs[0].mem.load(ADDR + 32 * k)      # iteration 0 == head
    assert not threads[0].overflowed


def test_reset_clears_speculative_state():
    machine, ctxs, threads, __ = make_world()
    ctxs[1].mem.store(ADDR, 1)
    ctxs[1].mem.load(ADDR + 64)
    threads[1].reset_speculative_state(iteration=5)
    assert not threads[1].store_buffer
    assert not threads[1].read_versions
    assert threads[1].iteration == 5
    assert threads[1].state == SpecThreadState.RUNNING


def test_same_line_reads_count_one_line():
    config = HydraConfig(load_buffer_lines=1)
    machine, ctxs, threads, execution = make_world(config=config)
    ctxs[1].mem.load(ADDR)
    ctxs[1].mem.load(ADDR + 4)
    ctxs[1].mem.load(ADDR + 28)
    assert len(threads[1].read_lines) == 1
    assert not threads[1].overflowed


# -- fused thread-code handlers vs SpecMemoryInterface ------------------------

class _DiffExecution(_StubExecution):
    """Stub runtime whose ``notify_store`` records only what the real
    one acts on: a store that finds a vulnerable read tag above it."""

    def notify_store(self, storer, addr):
        victims = [thread.iteration for thread in self.threads
                   if thread.iteration > storer.iteration
                   and thread.read_versions.get(addr)]
        if victims:
            self.stores.append((storer.iteration, addr, min(victims)))


class _Frame:
    def __init__(self):
        self.pc = 0
        self.regs = [0] * 8


def _diff_world(config, trace):
    config = config or HydraConfig()
    program = compile_source(wrap_main("return 0;"))
    machine = Machine(compile_program(program, config), config)
    machine.trace = object() if trace else None
    # committed words, and words only a wild address would reach
    machine.memory.words.update({
        BASE: 5, BASE + 8 * LINE: 11, BASE + 8 * LINE + 4: 12,
        BASE + 60 * LINE: 13, BASE + 2: 99, -4: 98})
    ctxs, threads = [], []
    for iteration in range(config.num_cpus):
        ctx = CpuContext(machine, iteration)
        thread = SpecThreadState(iteration, iteration, 0x100000)
        ctx.spec = thread
        ctx.time = 0
        ctxs.append(ctx)
        threads.append(thread)
    execution = _DiffExecution(threads)
    for ctx in ctxs:
        ctx.mem = SpecMemoryInterface(ctx, execution)
    return machine, ctxs, threads, execution, [_Frame() for __ in ctxs]


def _sets(cache):
    return {index: dict(lines) for index, lines in enumerate(cache.sets)
            if lines}


def _observe(world):
    machine, ctxs, threads, execution, frames = world
    hierarchy = machine.hierarchy
    return {
        "ctx": [(ctx.time, ctx.instret, ctx.compute_cycles,
                 ctx.current_site) for ctx in ctxs],
        "frames": [(frame.pc, list(frame.regs)) for frame in frames],
        "threads": [(dict(t.read_versions), set(t.read_lines),
                     dict(t.read_sites), dict(t.store_buffer),
                     set(t.store_lines), t.overflowed) for t in threads],
        "runtime": (set(execution.stored), list(execution.overflowed),
                    list(execution.stores)),
        "l1": [(c.tick, c.hits, c.misses, _sets(c))
               for c in hierarchy.l1],
        "l2": (hierarchy.l2.tick, hierarchy.l2.hits, hierarchy.l2.misses,
               _sets(hierarchy.l2)),
        "memo": hierarchy._memo,
    }


BASE = 0x40_0000
LINE = 32

#: (cpu, op, base register value); op names an instruction below
_DIFF_SCRIPT = [
    (1, "sw", BASE),               # buffered by thread 1
    (1, "lw", BASE),               # own buffer: renamed, latency 1
    (2, "lw", BASE),               # forwarded from thread 1
    (2, "lw", BASE),               # ... repeated read
    (0, "lw", BASE + 8 * LINE),    # memory miss (L1 and L2)
    (0, "lw", BASE + 8 * LINE + 4),  # memo repeat, first read of word
    (0, "lw", BASE + 8 * LINE + 4),  # memo repeat, repeated read
    (0, "lw", BASE + 9 * LINE),    # another miss: resets the memo
    (0, "lw", BASE + 8 * LINE),    # L1 hit (not memo)
    (3, "lw", BASE + 8 * LINE),    # L1 miss, L2 hit
    (3, "lw_abs", 0),              # absolute address, memory miss
    (1, "lw", -4),                 # wild: negative
    (1, "lw", 0),                  # wild: zero
    (1, "lw", BASE + 2),           # wild: misaligned
    (1, "lw", BASE + 20 * LINE),   # non-head: third line overflows
    (2, "lw", BASE + 21 * LINE),
    (2, "lw", BASE + 22 * LINE),
    (2, "lw", BASE + 23 * LINE),   # non-head overflow
    (0, "lw", BASE + 30 * LINE),   # head: never overflows
    (0, "lw", BASE + 31 * LINE),
    (3, "sw", BASE + 40 * LINE),   # store-buffer overflow (non-head)
    (3, "sw", BASE + 41 * LINE),
    (3, "sw_abs", 0),
    (3, "lw", BASE + 40 * LINE),   # own buffer
    (2, "sw", BASE + 21 * LINE),   # thread 2 read it itself: no victim
    (0, "sw", BASE + 21 * LINE),   # RAW: thread 2 read it first
    (0, "sw", BASE + 50 * LINE),   # nobody read it
    (0, "sw_abs", 0),              # thread 3 read it: violation
    (3, "lw", BASE),               # forwarded from thread 1 (nearest)
]


def _diff_instrs():
    from repro.jit.ir import IRInstr, IROp
    return {
        "lw": IRInstr(IROp.LW, dst=2, a=1, imm=0),
        "lw_abs": IRInstr(IROp.LW, dst=3, imm=BASE + 60 * LINE),
        "sw": IRInstr(IROp.SW, a=4, b=1, imm=0),
        "sw_abs": IRInstr(IROp.SW, a=4, imm=BASE + 60 * LINE),
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_fused_thread_handlers_match_the_interface(trace):
    """The fused ``LW``/``SW`` handlers of thread code and the generic
    handlers over :class:`SpecMemoryInterface` leave every observable
    equal after every step: value, latency and clocks, read tags,
    lines and sites, store buffers, overflow flags, violations, cache
    ticks, hits, misses, lines and the hierarchy memo."""
    from repro.engine import ir_engine
    from repro.tls import buffers

    config = HydraConfig(load_buffer_lines=2, store_buffer_lines=2)
    instrs = _diff_instrs()
    generic = {"lw": ir_engine._make_lw, "sw": ir_engine._make_sw}
    fused = {"lw": buffers._thread_lw, "sw": buffers._thread_sw}
    reference = _diff_world(config, trace)
    candidate = _diff_world(config, trace)
    handlers = []
    for world, makers in ((reference, generic), (candidate, fused)):
        handlers.append({name: makers[name[:2]](instr, 0, "T$stl0")
                         for name, instr in instrs.items()})
    # different lines in L1 sets pre-filled identically
    for world in (reference, candidate):
        world[1][0].mem.load(BASE + 9 * LINE)
    assert _observe(reference) == _observe(candidate)
    for step, (cpu, name, base) in enumerate(_DIFF_SCRIPT):
        for world, table in zip((reference, candidate), handlers):
            machine, ctxs, threads, execution, frames = world
            frame = frames[cpu]
            frame.regs[1] = base
            frame.regs[4] = 100 + step
            assert table[name](ctxs[cpu], frame) is None
        assert _observe(reference) == _observe(candidate), \
            (step, cpu, name, base)
    # the script reached every case it names
    state = _observe(candidate)
    assert [t.overflowed for t in candidate[2]] \
        == [False, True, True, True]
    assert [stores[2] for stores in state["runtime"][2]] == [2, 3]
    assert state["l1"][3][2] >= 2 and state["l2"][1] >= 1
    if trace:
        assert candidate[2][1].read_sites[BASE] == \
            ("T$stl0", instrs["lw"])


def test_thread_code_units_take_the_fused_handlers():
    """After a TLS run, every ``LW``/``SW`` of a thread-code unit is a
    fused handler, and no ``CompiledMethod`` table (the master's or a
    callee's) holds one."""
    from repro import Jrpm
    from repro.jit.ir import IROp
    from repro.workloads import lookup

    # its speculated loops call a method that loads from memory
    source = lookup("NumHeapSort").source("small")
    jrpm = Jrpm()
    program = compile_source(source)
    plans = jrpm.select(jrpm.profile(program))
    recompiled = jrpm.recompile(program, plans)
    jrpm.execute_tls(recompiled, plans)

    def kinds(unit):
        return {handler.__qualname__.split(".")[0]
                for instr, handler in zip(unit.code, unit._dispatch)
                if instr.op in (IROp.LW, IROp.SW)}

    units = [unit for per_overhead in recompiled.tls_units.values()
             for unit in per_overhead.values()]
    assert units
    for unit in units:
        assert kinds(unit) <= {"_thread_lw", "_thread_sw"}
    assert set().union(*map(kinds, units)) == {"_thread_lw", "_thread_sw"}
    methods = [method for method in recompiled.methods.values()
               if method._dispatch is not None]
    assert len(methods) > 1
    assert any(kinds(method) for method in methods)
    for method in methods:
        assert kinds(method) <= {"_make_lw", "_make_sw"}
