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
