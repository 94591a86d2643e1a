"""The Hydra machine: simulated CPUs executing microJIT IR.

Execution advances per-CPU clocks.  Sequential runs drive one
:class:`CpuContext` to completion through batched superinstruction
blocks; the TLS runtime drives four of them under a scheduler that
totally orders memory/sync/commit events on the simulated clock, which
makes violation detection exact.  ``HydraConfig.engine`` picks one of
two cycle-exact ways to do both (docs/performance.md): ``"fast"`` runs
predecoded handler tables (:mod:`repro.engine.ir_engine`) under the
event-driven TLS scheduler, which batches the straight-line work
between events and charges the identical cycles at event boundaries;
``"reference"`` runs :meth:`CpuContext.step_legacy`, the if/elif
dispatcher, under the stepwise scheduler, which always steps the
smallest-clock CPU one instruction at a time.
"""

import math

from ..bytecode.instructions import f2i, i32, idiv, irem, u32
from ..bytecode.module import WORD
from ..engine.ir_engine import dispatch_table
from ..errors import (ArithmeticException, ArrayIndexException,
                      GuestException, NullPointerException, VMError)
from ..jit.ir import ANNOTATION_IR_OPS, ANNOTATION_STUB, IROp
from ..vm import intrinsics
from ..vm.gc import GarbageCollector
from ..vm.heap import Allocator
from ..vm.locks import LockManager
from .cache import MemoryHierarchy
from .config import STACK_BASE
from .memory import Memory

# step() signals returned to whoever drives the context
SIG_DONE = "done"
SIG_EOI = "eoi"
SIG_EXIT = "exit"
SIG_WAIT = "wait"
SIG_SWITCH = "switch"


class Frame:
    __slots__ = ("code", "pc", "regs", "ret_reg", "name", "compiled",
                 "handlers")

    def __init__(self, compiled, args, ret_reg=None):
        self.compiled = compiled
        self.code = compiled.code
        #: predecoded dispatch table (built once per code unit, cached
        #: on it) — the fast engine indexes this by pc instead of
        #: walking the if/elif chain in :meth:`CpuContext.step_legacy`
        self.handlers = dispatch_table(compiled)
        self.pc = 0
        self.regs = [0] * compiled.nregs
        for index, value in enumerate(args, start=1):
            self.regs[index] = value
        self.ret_reg = ret_reg
        self.name = compiled.name


class PlainMemoryInterface:
    """Direct memory access with cache-latency accounting (no speculation)."""

    __slots__ = ("ctx", "machine")

    def __init__(self, ctx):
        self.ctx = ctx
        self.machine = ctx.machine

    def load(self, addr):
        machine = self.machine
        latency = machine.hierarchy.load_latency(self.ctx.cpu_id, addr)
        return machine.memory.load(addr), latency

    def store(self, addr, value):
        machine = self.machine
        latency = machine.hierarchy.store_latency(self.ctx.cpu_id, addr)
        machine.memory.store(addr, value)
        return latency

    def lwnv(self, addr):
        return self.load(addr)


class ProfiledMemoryInterface(PlainMemoryInterface):
    """:class:`PlainMemoryInterface` that also reports every access to
    the machine's TEST profiler — the interface :class:`CpuContext`
    gets when ``Machine.profiler`` is set, so the unprofiled runs pay
    no per-access profiler test."""

    __slots__ = ("on_load", "on_store")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.on_load = self.machine.profiler.on_load
        self.on_store = self.machine.profiler.on_store

    # The plain bodies are repeated, not called: this is the profiled
    # run's hottest path.
    def load(self, addr):
        machine = self.machine
        ctx = self.ctx
        latency = machine.hierarchy.load_latency(ctx.cpu_id, addr)
        value = machine.memory.load(addr)
        self.on_load(addr, ctx.time, ctx.current_site)
        return value, latency

    def store(self, addr, value):
        machine = self.machine
        ctx = self.ctx
        latency = machine.hierarchy.store_latency(ctx.cpu_id, addr)
        machine.memory.store(addr, value)
        self.on_store(addr, ctx.time, ctx.current_site)
        return latency


class CpuContext:
    """One simulated CPU: a frame stack, a clock and a memory interface."""

    __slots__ = ("machine", "cpu_id", "time", "frames", "mem", "status",
                 "return_value", "spec", "output_buffer", "instret",
                 "annotation_instret", "current_site", "fast")

    def __init__(self, machine, cpu_id):
        self.machine = machine
        self.cpu_id = cpu_id
        self.fast = machine.config.engine == "fast"
        self.time = 0
        self.frames = []
        self.mem = (PlainMemoryInterface if machine.profiler is None
                    else ProfiledMemoryInterface)(self)
        self.status = "idle"
        self.return_value = None
        self.spec = None               # SpecThreadState while speculating
        self.output_buffer = None      # buffered prints during speculation
        self.instret = 0
        #: annotation-only instructions retired (annotation ops and
        #: stub jumps, :data:`~repro.jit.ir.ANNOTATION_STUB`), 1 cycle
        #: each: ``instret``/``time`` minus this is the plain run's
        self.annotation_instret = 0
        self.current_site = None

    # -- frame management ---------------------------------------------------
    def push_entry(self, compiled, args):
        self.frames = [Frame(compiled, args)]
        self.status = "running"
        self.return_value = None

    def reset_for_thread(self, compiled, fp_reg, fp_addr, iter_reg,
                         iteration, seed_regs=None):
        """Arrange the context to run one speculative thread iteration."""
        frame = Frame(compiled, [])
        if seed_regs is not None:
            regs = frame.regs
            for reg, value in seed_regs.items():
                regs[reg] = value
        frame.regs[fp_reg] = fp_addr
        frame.regs[iter_reg] = iteration
        self.frames = [frame]
        self.status = "running"

    # -- the interpreter ------------------------------------------------------
    def step_legacy(self):
        """Execute one instruction through the if/elif chain: the
        reference engine's dispatcher and the cycle-accounting oracle
        the predecoded tables must match; returns a signal or None."""
        frame = self.frames[-1]
        code = frame.code
        instr = code[frame.pc]
        frame.pc += 1
        self.instret += 1
        regs = frame.regs
        op = instr.op
        cost = 1

        if op == IROp.LI:
            regs[instr.dst] = instr.imm
        elif op == IROp.MOV:
            regs[instr.dst] = regs[instr.a]
        elif op == IROp.ADD:
            regs[instr.dst] = i32(regs[instr.a] + regs[instr.b])
        elif op == IROp.ADDI:
            regs[instr.dst] = i32(regs[instr.a] + instr.imm)
        elif op == IROp.SUB:
            regs[instr.dst] = i32(regs[instr.a] - regs[instr.b])
        elif op == IROp.MUL:
            regs[instr.dst] = i32(regs[instr.a] * regs[instr.b])
            cost = 2
        elif op == IROp.DIV:
            divisor = regs[instr.b]
            if divisor == 0:
                raise ArithmeticException("/ by zero")
            regs[instr.dst] = idiv(regs[instr.a], divisor)
            cost = 12
        elif op == IROp.REM:
            divisor = regs[instr.b]
            if divisor == 0:
                raise ArithmeticException("% by zero")
            regs[instr.dst] = irem(regs[instr.a], divisor)
            cost = 12
        elif op == IROp.NEG:
            regs[instr.dst] = i32(-regs[instr.a])
        elif op == IROp.AND:
            regs[instr.dst] = i32(regs[instr.a] & regs[instr.b])
        elif op == IROp.OR:
            regs[instr.dst] = i32(regs[instr.a] | regs[instr.b])
        elif op == IROp.XOR:
            regs[instr.dst] = i32(regs[instr.a] ^ regs[instr.b])
        elif op == IROp.SHL:
            regs[instr.dst] = i32(regs[instr.a] << (regs[instr.b] & 31))
        elif op == IROp.SHR:
            regs[instr.dst] = i32(regs[instr.a] >> (regs[instr.b] & 31))
        elif op == IROp.USHR:
            regs[instr.dst] = i32(u32(regs[instr.a]) >> (regs[instr.b] & 31))
        elif op == IROp.SLLI:
            regs[instr.dst] = i32(regs[instr.a] << (instr.imm & 31))
        elif op == IROp.FADD:
            regs[instr.dst] = regs[instr.a] + regs[instr.b]
        elif op == IROp.FSUB:
            regs[instr.dst] = regs[instr.a] - regs[instr.b]
        elif op == IROp.FMUL:
            regs[instr.dst] = regs[instr.a] * regs[instr.b]
            cost = 3
        elif op == IROp.FDIV:
            divisor = regs[instr.b]
            numerator = regs[instr.a]
            if divisor == 0.0:
                regs[instr.dst] = (float("nan") if numerator == 0.0 else
                                   (float("inf") if numerator > 0.0
                                    else float("-inf")))
            else:
                regs[instr.dst] = numerator / divisor
            cost = 12
        elif op == IROp.FNEG:
            regs[instr.dst] = -regs[instr.a]
        elif op == IROp.FREM:
            divisor = regs[instr.b]
            regs[instr.dst] = (math.fmod(regs[instr.a], divisor)
                               if divisor != 0.0 else float("nan"))
            cost = 12
        elif op == IROp.SEQ:
            regs[instr.dst] = int(regs[instr.a] == regs[instr.b])
        elif op == IROp.SNE:
            regs[instr.dst] = int(regs[instr.a] != regs[instr.b])
        elif op == IROp.SLT:
            regs[instr.dst] = int(regs[instr.a] < regs[instr.b])
        elif op == IROp.SLE:
            regs[instr.dst] = int(regs[instr.a] <= regs[instr.b])
        elif op == IROp.SGT:
            regs[instr.dst] = int(regs[instr.a] > regs[instr.b])
        elif op == IROp.SGE:
            regs[instr.dst] = int(regs[instr.a] >= regs[instr.b])
        elif op == IROp.FCMP:
            a = regs[instr.a]
            b = regs[instr.b]
            if a != a or b != b:
                regs[instr.dst] = -1
            else:
                regs[instr.dst] = (a > b) - (a < b)
        elif op == IROp.I2F:
            regs[instr.dst] = float(regs[instr.a])
        elif op == IROp.F2I:
            regs[instr.dst] = f2i(regs[instr.a])
        elif op == IROp.J:
            frame.pc = instr.target
            if instr.aux == ANNOTATION_STUB:
                self.annotation_instret += 1
        elif op == IROp.BEQ:
            if regs[instr.a] == regs[instr.b]:
                frame.pc = instr.target
        elif op == IROp.BNE:
            if regs[instr.a] != regs[instr.b]:
                frame.pc = instr.target
        elif op == IROp.BLT:
            if regs[instr.a] < regs[instr.b]:
                frame.pc = instr.target
        elif op == IROp.BGE:
            if regs[instr.a] >= regs[instr.b]:
                frame.pc = instr.target
        elif op == IROp.BGT:
            if regs[instr.a] > regs[instr.b]:
                frame.pc = instr.target
        elif op == IROp.BLE:
            if regs[instr.a] <= regs[instr.b]:
                frame.pc = instr.target
        elif op == IROp.BEQZ:
            if regs[instr.a] == 0:
                frame.pc = instr.target
        elif op == IROp.BNEZ:
            if regs[instr.a] != 0:
                frame.pc = instr.target
        elif op == IROp.LW:
            self.current_site = (frame.name, instr)
            base = regs[instr.a] if instr.a is not None else 0
            value, latency = self.mem.load(base + instr.imm)
            regs[instr.dst] = value
            cost = latency
        elif op == IROp.SW:
            self.current_site = (frame.name, instr)
            base = regs[instr.b] if instr.b is not None else 0
            cost = self.mem.store(base + instr.imm, regs[instr.a])
        elif op == IROp.LWNV:
            self.current_site = (frame.name, instr)
            base = regs[instr.a] if instr.a is not None else 0
            value, latency = self.mem.lwnv(base + instr.imm)
            regs[instr.dst] = value
            cost = latency
        elif op == IROp.NULLCHK:
            if regs[instr.a] == 0:
                raise NullPointerException(frame.name)
        elif op == IROp.BOUNDCHK:
            index = regs[instr.a]
            if index < 0 or index >= regs[instr.b]:
                raise ArrayIndexException(
                    "index %d, length %d" % (index, regs[instr.b]))
        elif op == IROp.ALLOC:
            self.current_site = (frame.name, instr)
            size = regs[instr.a] if instr.a is not None else instr.imm
            cost = self._do_alloc(instr, size)
        elif op == IROp.CALL:
            compiled = self.machine.compiled.resolve(*instr.aux)
            args = [regs[reg] for reg in instr.args]
            self.frames.append(Frame(compiled, args, instr.dst))
            cost = self.machine.config.call_overhead_cycles + len(args)
        elif op == IROp.CALLV:
            cost = self._do_callv(instr, regs)
        elif op == IROp.RET:
            value = regs[instr.a] if instr.a is not None else None
            popped = self.frames.pop()
            if not self.frames:
                self.status = "done"
                self.return_value = value
                self.time += cost
                return SIG_DONE
            if popped.ret_reg is not None and value is not None:
                self.frames[-1].regs[popped.ret_reg] = value
            cost = 2
        elif op == IROp.INTRIN:
            cost = self._do_intrinsic(instr, regs)
        elif op == IROp.MONENTER:
            self.current_site = (frame.name, instr)
            addr = regs[instr.a] if instr.a is not None else instr.imm
            if instr.a is not None and addr == 0:
                raise NullPointerException("monitorenter")
            cost = self.machine.locks.enter(self.mem, addr,
                                            self.spec is not None)
        elif op == IROp.MONEXIT:
            self.current_site = (frame.name, instr)
            addr = regs[instr.a] if instr.a is not None else instr.imm
            cost = self.machine.locks.leave(self.mem, addr,
                                            self.spec is not None)
        elif op == IROp.TRAP:
            raise GuestException(instr.aux or "Trap")
        elif op in ANNOTATION_IR_OPS:
            self.annotation_instret += 1
            profiler = self.machine.profiler
            if profiler is None:
                pass
            elif op == IROp.SLOOP:
                profiler.on_sloop(instr.aux, instr.imm, self.time)
            elif op == IROp.EOI:
                profiler.on_eoi(instr.aux, self.time)
            elif op == IROp.ELOOP:
                profiler.on_eloop(instr.aux, self.time)
            elif op == IROp.LWL:
                profiler.on_lwl(instr.aux, instr.imm, self.time, instr)
            else:
                profiler.on_swl(instr.aux, instr.imm, self.time, instr)
        elif op == IROp.STL_RUN:
            # Delegate the whole speculative region to the TLS runtime.
            exit_id = self.machine.tls_runtime.run_stl(self, instr.aux)
            regs[instr.dst] = exit_id
            cost = 0
        elif op == IROp.STL_EOI_END:
            self.time += cost
            return SIG_EOI
        elif op == IROp.STL_EXIT:
            self.time += cost
            return SIG_EXIT
        elif op == IROp.WAITLOCK:
            return SIG_WAIT      # TLS runtime resolves; pc already advanced
        elif op == IROp.SIGNAL:
            cost = self._do_signal(instr, regs)
        elif op == IROp.FORCE_RESET:
            cost = self._do_force_reset(instr, regs)
        else:
            raise VMError("unhandled IR op %s" % op)

        self.time += cost
        return None

    # -- helpers ----------------------------------------------------------------
    def _do_alloc(self, instr, size):
        machine = self.machine
        if self.spec is None and machine.gc is not None \
                and machine.gc.should_collect():
            roots = []
            for frame in self.frames:
                roots.extend(frame.regs)
            gc_cycles = machine.gc.collect(roots)
            if machine.trace is not None:
                machine.trace.gc(self.time, self.cpu_id, gc_cycles)
            self.time += gc_cycles
            machine.gc_cycles += gc_cycles
        addr, latency = machine.allocator.allocate(
            self.mem, self.cpu_id if self.spec is not None else None,
            size, instr.aux)
        self.frames[-1].regs[instr.dst] = addr
        return latency

    def _do_callv(self, instr, regs):
        machine = self.machine
        receiver = regs[instr.args[0]]
        # Virtual dispatch: read the class id from the object header.
        class_id, latency = self.mem.load(receiver + WORD)
        compiled = machine.compiled.dispatch(class_id, instr.aux[1])
        args = [regs[reg] for reg in instr.args]
        self.frames.append(Frame(compiled, args, instr.dst))
        return (machine.config.call_overhead_cycles
                + machine.config.virtual_dispatch_cycles
                + latency + len(args))

    def _do_intrinsic(self, instr, regs):
        intrinsic = intrinsics.lookup(instr.aux)
        args = [regs[reg] for reg in instr.args]
        if intrinsic.is_output:
            if self.output_buffer is not None:
                self.output_buffer.append(args[0])
            else:
                self.machine.output.append(args[0])
        else:
            result = intrinsic.fn(*args)
            if instr.dst is not None:
                regs[instr.dst] = result
        return intrinsic.cycles

    def _do_signal(self, instr, regs):
        spec = self.spec
        if spec is None:
            return 1
        addr = spec.fp_addr + instr.imm
        return self.mem.store(addr, spec.iteration + 1)

    def _do_force_reset(self, instr, regs):
        """Reset-able inductor written unpredictably (paper §4.2.3).

        Marks the thread: at its EOI the TLS runtime publishes the new
        start-of-next-iteration value and forces later threads to
        restart so their cold init recomputes from it.  Outside
        speculation this is a no-op.
        """
        spec = self.spec
        if spec is not None:
            spec.request_reset = True
            spec.pending_resets.append(instr.aux)   # ResetableSpec
        return 1

class RunResult:
    def __init__(self, machine, ctx, guest_exception=None):
        self.cycles = ctx.time
        self.instructions = ctx.instret
        #: see :attr:`CpuContext.annotation_instret`
        self.annotation_instructions = ctx.annotation_instret
        self.output = list(machine.output)
        self.return_value = ctx.return_value
        self.gc_cycles = machine.gc_cycles
        self.guest_exception = guest_exception


class Machine:
    """Owns the simulated hardware + VM services and runs programs."""

    def __init__(self, compiled, config, profiler=None,
                 parallel_allocator=False, speculation_aware_locks=True,
                 trace=None):
        self.compiled = compiled
        self.config = config
        self.memory = Memory()
        self.hierarchy = MemoryHierarchy(config)
        self.allocator = Allocator(self.memory, config, config.num_cpus)
        self.allocator.parallel_mode = parallel_allocator
        self.locks = LockManager(config, speculation_aware_locks)
        self.gc = GarbageCollector(compiled.program, compiled.layout,
                                   self.memory, self.allocator, config)
        self.profiler = profiler
        #: Optional :class:`repro.trace.TraceCollector`; ``None`` (the
        #: default) keeps every instrumentation site on the same
        #: is-None guard the profiler hooks use — near-zero cost.
        self.trace = trace
        self.tls_runtime = None
        self.output = []
        self.gc_cycles = 0
        self.stack_ptr = STACK_BASE
        self._init_statics()

    def _init_statics(self):
        # Static fields default to zero; floats to 0.0.
        layout = self.compiled.layout
        program = self.compiled.program
        for key, addr in layout.field_addr.items():
            field = program.resolve_field(*key)
            self.memory.store(addr, 0.0 if field.type.is_float() else 0)

    # -- stack slots for STL local-variable communication -------------------------
    def stack_alloc(self, nbytes):
        addr = self.stack_ptr
        self.stack_ptr += (nbytes + 7) & ~7
        return addr

    def stack_release(self, addr):
        self.stack_ptr = addr

    # -- running ---------------------------------------------------------------
    def run(self, *args, max_instructions=500_000_000):
        entry = self.compiled.entry()
        ctx = CpuContext(self, 0)
        ctx.push_entry(entry, list(args))
        guest_exception = None
        try:
            if ctx.fast:
                # Inlined dispatch: one list index + closure call per
                # step, no intermediate ``step()`` frame.
                frames = ctx.frames
                while True:
                    frame = frames[-1]
                    signal = frame.handlers[frame.pc](ctx, frame)
                    if signal is not None and signal == SIG_DONE:
                        break
                    if ctx.instret > max_instructions:
                        raise VMError("instruction budget exceeded")
            else:
                while True:
                    signal = ctx.step_legacy()
                    if signal == SIG_DONE:
                        break
                    if ctx.instret > max_instructions:
                        raise VMError("instruction budget exceeded")
        except GuestException as exc:
            guest_exception = exc
            ctx.status = "done"
        return RunResult(self, ctx, guest_exception)
