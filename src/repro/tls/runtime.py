"""The TLS runtime: drives speculative loop execution (paper §2, Fig. 4).

``run_stl`` simulates one STL region: the master CPU executes the
STL_STARTUP handler (saving initialization values to the runtime
stack), four speculative CPUs run loop iterations round-robin, commits
happen in order, RAW violations restart the violated thread and every
more-speculative thread, and the exiting thread — once it is the head —
runs STL_SHUTDOWN and hands control back to the master.

Two observationally-identical schedulers drive the speculative CPUs,
one per ``HydraConfig.engine``:

* **stepwise** (``engine = "reference"``) — the original loop: always
  advance the runnable CPU with the smallest local clock by *one
  instruction* of ``step_legacy``, so memory events are totally ordered
  on the simulated clock and violation detection is exact.  It is the
  TLS event-order reference.
* **event-driven** (``engine = "fast"``, the default) — each CPU
  *runs ahead* through its straight-line local work (ALU blocks,
  branches, calls — the fused superinstructions
  :mod:`repro.engine.ir_engine` builds) and *parks* at its next
  scheduler event: any memory/sync/TLS op that can observe or mutate
  cross-CPU state.  The scheduler ranks the parks and executes events
  in the same lexicographic ``(clock, cpu-index)`` order the stepwise
  loop would, so every cross-CPU observable — violation arcs, commits,
  forwarding, lock acquires, cache counters, trace events — is
  bit-identical.  The earliest CPU runs an *event chain*: its event,
  then its run-ahead to the next one, which it executes at once while
  it still precedes the runner-up; once overtaken it parks and hands
  the chain straight to the runner-up (nothing else moved, so no
  re-ranking and no head service is due).  Run-ahead is speculative
  *simulator* state only: when an earlier event restarts/squashes/reads
  a CPU that ran ahead, the scheduler rewinds it to its segment
  snapshot and replays per-instruction up to the cut, reproducing the
  exact stepwise architectural state (registers, clock, instret,
  pending output).  Local ops never touch memory, caches, buffers or
  the profiler, so phantom run-ahead work leaks nothing observable.

Each STL gets one thread-code unit, kept on the recompiled program
(per CALL overhead), so every dynamic entry — and every later run of a
program the service's compile cache kept — reuses its predecoded
tables.

The equivalence is enforced end-to-end by
``tests/test_scheduler_differential.py`` (byte-identical reports and
trace streams) and by the golden report digests, one per workload for
both engines.
"""

from ..engine.ir_engine import dispatch_table, tls_cost_map, tls_event_map
from ..errors import GuestException, VMError
from ..jit.ir import IROp
from ..jit.patterns import merge_reduction
from .buffers import (SpecMemoryInterface, SpecThreadState,
                      fuse_thread_memory_ops)
from .stats import StlRunStats, TlsStateBreakdown

_RUN = SpecThreadState.RUNNING
_WAIT_HEAD = SpecThreadState.WAIT_HEAD
_EXITED = SpecThreadState.EXITED
_STALLED = SpecThreadState.STALLED
_WAIT_LOCK = SpecThreadState.WAIT_LOCK
_EXCEPTION = SpecThreadState.EXCEPTION
_SWITCH = "switch"

_LOCK_POLL_CYCLES = 3
_NEG_INF = float("-inf")
#: event scheduler's run-ahead chunk: dispatches under a snapshot before
#: yielding back, so a wild (doomed-to-restart) thread spinning in a
#: pure-ALU loop cannot starve the event loop or the step budget
_CHUNK = 4096


class _ThreadCodeUnit:
    """Adapts an StlDescriptor to the Frame interface (code/nregs/name).

    One unit per descriptor and CALL overhead, kept on the recompiled
    program: every dynamic entry into the STL reuses it, so its handler
    tables are predecoded once per program, not once per entry.  Its
    dispatch table is built by the one ``dispatch_table`` call every
    code unit gets, then takes the fused speculative ``LW``/``SW``
    handlers (thread code never runs unspeculated; callee frames keep
    the generic ones)."""

    __slots__ = ("code", "nregs", "name", "stls", "_dispatch",
                 "_tls_events", "_tls_costs", "warm_entries")

    def __init__(self, descriptor):
        self.code = descriptor.thread_code
        self.nregs = descriptor.nregs
        self.name = "%s$stl%d" % (descriptor.method_name, descriptor.stl_id)
        self.stls = {}
        #: predecoded handler table caches (repro.engine.ir_engine):
        #: the block-fused run-ahead table, the scheduler-event map and
        #: the run-ahead cost bounds (which fold in the machine's call
        #: overhead, so a unit is never shared across call overheads)
        self._dispatch = None
        self._tls_events = None
        self._tls_costs = None
        #: every commit re-enters the thread code at warm_entry, so the
        #: predecoder must treat it as a block leader of its own
        self.warm_entries = (descriptor.warm_entry,)
        fuse_thread_memory_ops(dispatch_table(self), self.code, self.name)


class TlsRuntime:
    """Owns cross-STL state: statistics, the hoisting warm flag and the
    thread-code units (one per descriptor, shared by every entry and
    kept on the recompiled program for this machine's call overhead)."""

    def __init__(self, machine):
        self.machine = machine
        self.config = machine.config
        self.breakdown = TlsStateBreakdown()
        self.stl_stats = {}
        self.last_descriptor = None     # for hoisted startup/shutdown
        self.units = machine.compiled.tls_units.setdefault(
            self.config.call_overhead_cycles, {})   # StlDescriptor -> unit
        machine.tls_runtime = self

    def stats_for(self, loop_id):
        stats = self.stl_stats.get(loop_id)
        if stats is None:
            stats = self.stl_stats[loop_id] = StlRunStats(loop_id)
        return stats

    def run_stl(self, master_ctx, descriptor):
        execution = _StlExecution(self, master_ctx, descriptor)
        return execution.run()


class _StlExecution:
    """One dynamic entry into one STL."""

    def __init__(self, runtime, master_ctx, descriptor):
        self.runtime = runtime
        self.machine = runtime.machine
        self.config = runtime.config
        self.breakdown = runtime.breakdown
        #: trace collector (or None) — every emission site below is
        #: guarded so disabled tracing costs one is-None check on
        #: control events only (see repro.trace)
        self.trace = runtime.machine.trace
        self.master = master_ctx
        self.desc = descriptor
        self.n = self.config.num_cpus
        self.head_iteration = 0
        self.last_commit_time = 0.0
        self.ctxs = []
        self.threads = []
        self.thread_frames = []
        self.fp_addr = None
        self.entry_reductions = {}
        #: every word a thread of this entry has buffered
        #: (SpecMemoryInterface's forwarding filter)
        self.stored = set()
        unit = runtime.units.get(descriptor)
        if unit is None:
            unit = runtime.units[descriptor] = _ThreadCodeUnit(descriptor)
        self.unit = unit
        self.stats = None                # StlRunStats, bound at startup
        #: runaway guard: *simulated instructions* executed inside this
        #: STL entry (not scheduler iterations), so the budget fires at
        #: the same point under both schedulers — commits, polls and
        #: restarts don't consume it, instructions (including raising
        #: ones) do.  The stepwise loop counts them here; the event
        #: loop as the sum of its per-CPU watermarks (``_counted``).
        self.steps = 0
        self.max_steps = 200_000_000
        # -- event-driven scheduler state (None => stepwise mode) ------
        #: per-CPU segment snapshot for run-ahead truncation:
        #: (time, instret, compute_cycles, acc_compute, pending-output
        #: length, [(frame, pc, regs-copy), ...])
        self._seg = None
        self._park_kind = None       # "op" | "run" | "poll" | "stl" | "exc"
        self._park_time = None
        self._park_payload = None
        self._counted = None         # instret watermark per CPU
        #: position (time, cpu-index) of the event being executed — the
        #: truncation cut: stepwise would have executed exactly the
        #: instructions lexicographically before it
        self._cut_t = 0.0
        self._cut_i = -1
        #: bumped whenever an event mutates another CPU's schedule
        #: (restart/squash) — invalidates the event loop's ranking of
        #: the parks, ending the current event chain
        self._gen = 0
        #: master clock at STL entry — _shutdown charges the elapsed
        #: wall cycles to StlRunStats.wall_cycles (realized-speedup
        #: denominator for the adapt controller)
        self.entry_master_time = 0.0

    # ------------------------------------------------------------------
    # speculation services used by SpecMemoryInterface
    # ------------------------------------------------------------------
    def is_head(self, spec):
        return spec.iteration == self.head_iteration

    def flag_overflow(self, spec):
        spec.overflowed = True

    def notify_store(self, storer, addr):
        """RAW violation check: any more-speculative thread whose
        speculative-read tag for *addr* is vulnerable must restart — and
        (Hydra protocol, Fig. 4) so must everything above it."""
        min_violated = None
        victim = None
        for thread in self.threads:
            if thread.iteration <= storer.iteration:
                continue
            if thread.read_versions.get(addr):
                if min_violated is None or \
                        thread.iteration < min_violated:
                    min_violated = thread.iteration
                    victim = thread
        if min_violated is not None:
            now = self.ctxs[storer.cpu_id].time
            if self.trace is not None:
                # The RAW arc: the storer's current instruction is the
                # source; the victim's tagged first-read of addr is the
                # sink (recorded by SpecMemoryInterface while tracing).
                self.trace.violation(
                    now, storer.cpu_id, self.desc.stl_id,
                    storer.iteration, min_violated, addr,
                    self.ctxs[storer.cpu_id].current_site,
                    victim.read_sites.get(addr))
            self.restart_from(min_violated, now, cause="violation")

    def restart_from(self, first_iteration, now, cause):
        for cpu, thread in enumerate(self.threads):
            if thread.iteration >= first_iteration:
                self._restart_thread(cpu, now,
                                     primary=(thread.iteration
                                              == first_iteration),
                                     cause=cause)

    def _restart_thread(self, cpu, now, primary, cause):
        if self._seg is not None:
            # Event mode: the victim may have run ahead of the cut —
            # rewind to the exact stepwise state before reading its
            # clock/accounting below.
            self._truncate(cpu)
            self._park_kind[cpu] = None
            self._gen += 1
        thread = self.threads[cpu]
        ctx = self.ctxs[cpu]
        # Account the discarded attempt.
        wait_extra = 0.0
        if thread.state not in (_RUN,):
            wait_extra = max(0.0, now - thread.block_time)
        self.breakdown.run_violated += thread.acc_compute
        self.breakdown.wait_violated += thread.acc_wait + wait_extra
        self.breakdown.overhead += thread.acc_overhead
        stats = self.stats
        stats.restarts += 1
        if primary and cause == "violation":
            self.breakdown.violations += 1
            stats.violations += 1
        else:
            self.breakdown.squashes += 1
        # Reset: same iteration, cold entry, registers persist.
        thread.reset_speculative_state()
        frame = self.thread_frames[cpu]
        frame.pc = 0
        ctx.frames = [frame]
        restart = self.config.overheads.restart
        if self.trace is not None:
            self.trace.thread_span(
                thread.start_time, now, cpu, self.desc.stl_id,
                thread.iteration, "restart" if primary else "squash")
            self.trace.restart(now, cpu, self.desc.stl_id,
                               thread.iteration, cause, primary)
            self.trace.handler(max(ctx.time, now), cpu,
                               self.desc.stl_id, "restart", restart)
        ctx.time = max(ctx.time, now) + restart
        ctx.status = "running"
        thread.acc_compute = 0.0
        thread.acc_wait = 0.0
        thread.acc_overhead = restart
        thread.start_time = ctx.time

    # ------------------------------------------------------------------
    def run(self):
        """Simulate this STL entry with the configured engine's
        scheduler: event-driven for ``"fast"``, stepwise for
        ``"reference"``."""
        if self.config.engine == "fast":
            return self._run_event()
        return self._run_stepwise()

    def _run_stepwise(self):
        self._startup()
        threads = self.threads
        ctxs = self.ctxs
        while True:
            head = threads[self.head_iteration % self.n]
            state = head.state
            if state == _WAIT_HEAD:
                self._commit(head)
                continue
            if state == _STALLED:
                self._resume_blocked(head)
                continue
            if state == _EXITED:
                return self._shutdown(head)
            if state == _EXCEPTION:
                self._shutdown_exception(head)
            if state == _SWITCH:
                self._do_switch(head)
                continue

            ctx = None
            best = None
            for candidate in ctxs:
                spec = candidate.spec
                if spec.state in (_RUN, _WAIT_LOCK):
                    if best is None or candidate.time < best:
                        best = candidate.time
                        ctx = candidate
            if ctx is None:
                raise VMError("TLS deadlock in STL %d" % self.desc.stl_id)

            spec = ctx.spec
            if spec.state == _WAIT_LOCK:
                self._poll_lock(ctx)
                continue

            frame = ctx.frames[-1]
            if frame.code[frame.pc].op == IROp.STL_RUN:
                # Nested STL while speculating: multilevel switch.
                spec.state = _SWITCH
                spec.block_time = ctx.time
                continue

            before = ctx.time
            try:
                signal = ctx.step_legacy()
            except GuestException as exc:
                spec.acc_compute += ctx.time - before
                self.steps += 1          # the raising instruction counts
                spec.state = _EXCEPTION
                spec.pending_exception = exc
                spec.block_time = ctx.time
                continue
            except VMError as exc:
                # Wild speculative execution; real only if it reaches
                # the head.
                spec.acc_compute += ctx.time - before
                self.steps += 1
                spec.state = _EXCEPTION
                spec.pending_exception = exc
                spec.block_time = ctx.time
                continue
            spec.acc_compute += ctx.time - before
            self.steps += 1
            if self.steps > self.max_steps:
                raise VMError("STL %d exceeded step budget"
                              % self.desc.stl_id)

            if spec.overflowed and not self.is_head(spec) \
                    and spec.state == _RUN:
                self._stall(ctx)
                continue
            if signal is not None:
                self._signal(ctx, frame, signal)

    def _stall(self, ctx):
        """A non-head thread overflowed its speculative buffers: stall
        it until it becomes the head (paper §3)."""
        spec = ctx.spec
        spec.state = _STALLED
        spec.block_time = ctx.time
        self.breakdown.overflow_stalls += 1
        self.stats.overflow_stalls += 1
        if self.trace is not None:
            load_lines = len(spec.read_lines)
            if load_lines > self.config.load_buffer_lines:
                buffer, lines = "load", load_lines
            else:
                buffer, lines = "store", len(spec.store_lines)
            self.trace.overflow(ctx.time, spec.cpu_id, self.desc.stl_id,
                                spec.iteration, buffer, lines)

    def _signal(self, ctx, frame, signal):
        """Act on a thread-code signal raised by the instruction that
        just ran in *frame*: end of iteration, loop exit or lock wait."""
        spec = ctx.spec
        if signal == "eoi":
            overhead = self.config.overheads.eoi
            ctx.time += overhead
            spec.acc_overhead += overhead
            spec.acc_compute -= 1  # STL_EOI_END's cycle is overhead
            spec.acc_overhead += 1
            if self.trace is not None:
                self.trace.handler(ctx.time - overhead - 1,
                                   spec.cpu_id, self.desc.stl_id,
                                   "eoi", overhead + 1)
            spec.state = _WAIT_HEAD
            spec.block_time = ctx.time
        elif signal == "exit":
            exit_instr = frame.code[frame.pc - 1]
            spec.exit_id = exit_instr.aux
            spec.state = _EXITED
            spec.block_time = ctx.time
        elif signal == "wait":
            self._begin_lock_wait(ctx)
        elif signal == "done":
            raise VMError("thread code returned unexpectedly")

    # ------------------------------------------------------------------
    # event-driven scheduler
    # ------------------------------------------------------------------
    def _run_event(self):
        """Event-driven main loop: rank every active CPU by its park
        position and execute the earliest in stepwise ``(clock,
        cpu-index)`` order.  Head-of-queue services (commit, resume,
        shutdown, switch) run before each ranking, exactly where the
        stepwise loop re-checks them.

        A CPU's park is its next scheduler position: ``"op"`` (an event
        instruction), ``"run"`` (pending local work — a lower bound on
        its next event), ``"poll"`` (a lock spin), ``"stl"`` (a nested
        STL_RUN) or ``"exc"`` (a raise found during run-ahead).  Running
        CPUs are parked lazily: the ranking parks an unparked one as
        ``"run"`` at its current clock, and only the earliest CPU runs.

        The earliest CPU executes an *event chain*: its event (mirroring
        the stepwise loop body statement for statement), then a merged
        run-ahead through its local instructions — unprotected while
        every dispatch provably completes below the runner-up, under a
        segment snapshot once one might cross it — into its next event,
        which runs at once if it still precedes the runner-up.  When the
        runner-up overtakes a clean chain, nothing but this CPU's park
        moved (no restart, no state change), so the head needs no
        service and the chain hands off to the runner-up without a new
        ranking.  The whole chain is inlined here: it is the per-event
        hot path."""
        self._startup()
        n = self.n
        self._seg = seg = [None] * n
        self._park_kind = park_kind = [None] * n
        self._park_time = park_time = [0.0] * n
        self._park_payload = [None] * n
        self._counted = counted = [0] * n
        threads = self.threads
        ctxs = self.ctxs
        max_steps = self.max_steps
        call_pad = self.config.call_overhead_cycles
        tls_event_map(self.unit)
        tls_cost_map(self.unit, call_pad)
        while True:
            head = threads[self.head_iteration % n]
            hstate = head.state
            if hstate is not _RUN:       # state strings are interned
                if hstate is _WAIT_HEAD:
                    self._commit(head)
                    continue
                if hstate is _STALLED:
                    self._resume_blocked(head)
                    continue
                if hstate is _EXITED:
                    return self._shutdown(head)
                if hstate is _EXCEPTION:
                    self._shutdown_exception(head)
                if hstate is _SWITCH:
                    self._do_switch(head)
                    continue
                # _WAIT_LOCK head falls through to the ranking.

            # Rank the active CPUs by park position: the earliest runs,
            # bounded by the runner-up.  Every active CPU is parked
            # after this loop (a parked CPU is always active).
            order = []
            for cpu in range(n):
                if park_kind[cpu] is None:
                    if threads[cpu].state is not _RUN:
                        continue
                    park_kind[cpu] = "run"
                    t = park_time[cpu] = ctxs[cpu].time
                else:
                    t = park_time[cpu]
                order.append((t, cpu))
            if not order:
                raise VMError("TLS deadlock in STL %d" % self.desc.stl_id)
            order.sort()
            best_t, best = order[0]
            if len(order) > 1:
                second_t, second = order[1]
            else:
                second = -1              # sole active CPU: run chunked
                second_t = _NEG_INF

            kind = park_kind[best]
            while kind == "op" or kind == "run":
                # -- one CPU's event chain ------------------------------
                ctx = ctxs[best]
                spec = ctx.spec
                gen = self._gen
                # The handler/event/cost tables are hoisted across the
                # chain: event handlers never touch the frame stack
                # except CALLV, and local CALL/RET refresh them below.
                # (A parked CPU's frame already has its maps: the thread
                # unit's are built up front, a callee's on entry.)
                frames = ctx.frames
                frame = frames[-1]
                unit = frame.compiled
                events = unit._tls_events
                costs = unit._tls_costs
                handlers = frame.handlers
                # Consume the park.  Every instruction this CPU ran
                # before it orders before any later cut, so its segment
                # snapshot becomes history.
                at_event = kind == "op"
                park_kind[best] = None
                seg[best] = None
                kind = None              # set by a hand-off only
                while True:
                    if at_event:
                        # -- one instruction-event (stepwise body) -----
                        # (never STL_RUN: the event map classifies those
                        # separately, see the run-ahead below.)
                        before = self._cut_t = ctx.time
                        self._cut_i = best
                        try:
                            signal = handlers[frame.pc](ctx, frame)
                        except (GuestException, VMError) as exc:
                            # Wild speculative execution; real only if
                            # it reaches the head.
                            spec.acc_compute += ctx.time - before
                            self._account(best)
                            spec.state = _EXCEPTION
                            spec.pending_exception = exc
                            spec.block_time = ctx.time
                            break
                        if signal is None and self._gen == gen \
                                and not spec.overflowed:
                            # Clean completion, nothing else moved: the
                            # run-ahead below settles this event's
                            # compute cycles together with its own.
                            t0 = before
                        else:
                            spec.acc_compute += ctx.time - before
                            if spec.overflowed \
                                    and not self.is_head(spec) \
                                    and spec.state is _RUN:
                                self._stall(ctx)
                                break
                            if signal is not None:
                                self._signal(ctx, frame, signal)
                                if spec.state is _WAIT_LOCK:
                                    park_kind[best] = "poll"
                                    park_time[best] = ctx.time
                                break
                            if self._gen != gen:
                                break    # a restart moved other CPUs
                            t0 = ctx.time
                        if frames[-1] is not frame:
                            # CALLV is an event *and* pushes a frame.
                            frame = frames[-1]
                            unit = frame.compiled
                            events = unit._tls_events
                            if events is None:
                                events = tls_event_map(unit)
                            costs = unit._tls_costs
                            if costs is None:
                                costs = tls_cost_map(unit, call_pad)
                            handlers = frame.handlers
                    else:
                        t0 = ctx.time

                    # -- merged run-ahead to the next event -------------
                    # While every dispatch provably completes below the
                    # runner-up park, each instruction this CPU executes
                    # is immediately the global minimum: no future cut
                    # can order before it, so it runs with no snapshot.
                    # The first dispatch that *might* cross the runner-up
                    # takes the snapshot; from there the CPU runs under
                    # rewind protection, at most _CHUNK dispatches (a
                    # wild thread spinning in a pure-ALU loop must not
                    # starve the event loop or the step budget).  An
                    # event still ahead of the runner-up runs next (the
                    # snapshot, if any, becomes history); a later one
                    # parks the CPU.
                    acc0 = spec.acc_compute
                    cur_seg = None
                    # exit_kind: 0 = left the chain (transitioned, or
                    # parked off an event), 1 = run the event now,
                    # 2 = raised ahead of every CPU, 3 = parked at an
                    # event behind the runner-up
                    while True:
                        pc = frame.pc
                        ev = events[pc]
                        if ev:
                            t = ctx.time
                            if t < second_t \
                                    or (t == second_t and best < second):
                                if cur_seg is not None:
                                    seg[best] = None     # now history
                                if ev == 1:
                                    exit_kind = 1
                                    break
                                # STL_RUN ahead of every other CPU:
                                # transition to the multilevel switch
                                # immediately.
                                self._cut_t = t
                                self._cut_i = best
                                spec.state = _SWITCH
                                spec.block_time = t
                                exit_kind = 0
                                break
                            if ev == 1:
                                exit_kind = 3
                            else:
                                park_kind[best] = "stl"
                                park_time[best] = t
                                exit_kind = 0
                            break
                        if cur_seg is None:
                            if ctx.time + costs[pc] > second_t:
                                # This dispatch may cross the runner-up:
                                # snapshot, then continue protected.
                                if len(frames) == 1:
                                    cur_seg = (
                                        ctx.time, ctx.instret,
                                        ctx.compute_cycles, acc0
                                        + (ctx.time - t0),
                                        len(spec.pending_output),
                                        frame, pc, frame.regs[:])
                                else:
                                    cur_seg = (
                                        ctx.time, ctx.instret,
                                        ctx.compute_cycles, acc0
                                        + (ctx.time - t0),
                                        len(spec.pending_output),
                                        [(f, f.pc, f.regs[:])
                                         for f in frames])
                                seg[best] = cur_seg
                                budget = _CHUNK
                        else:
                            budget -= 1
                            if budget == 0:
                                park_kind[best] = "run"
                                park_time[best] = ctx.time
                                exit_kind = 0
                                break
                        try:
                            signal = handlers[pc](ctx, frame)
                        except (GuestException, VMError) as exc:
                            if cur_seg is None:
                                # Raise-flush left ctx.time at the
                                # raising instruction's pre-step clock
                                # — provably ahead of every other CPU,
                                # so transition immediately.
                                pending = exc
                                exit_kind = 2
                            else:
                                self._park_payload[best] = exc
                                park_kind[best] = "exc"
                                park_time[best] = ctx.time
                                exit_kind = 0
                            break
                        if signal is not None:
                            # RET drained the frame stack.
                            if cur_seg is None:
                                # Nothing can precede it: raise at
                                # once, exactly like stepwise.
                                raise VMError(
                                    "thread code returned unexpectedly")
                            # Under the snapshot an earlier event may
                            # legitimately restart this thread first:
                            # undo the step and park *before* it.
                            frame.pc = pc
                            frames.append(frame)
                            ctx.status = "running"
                            ctx.return_value = None
                            ctx.time -= 1
                            ctx.instret -= 1
                            ctx.compute_cycles -= 1
                            t = ctx.time
                            if t < second_t \
                                    or (t == second_t and best < second):
                                seg[best] = None
                                exit_kind = 1    # raises at once
                            else:
                                exit_kind = 3
                            break
                        if frames[-1] is not frame:  # CALL/RET
                            frame = frames[-1]
                            unit = frame.compiled
                            events = unit._tls_events
                            if events is None:
                                events = tls_event_map(unit)
                            costs = unit._tls_costs
                            if costs is None:
                                costs = tls_cost_map(unit, call_pad)
                            handlers = frame.handlers
                    spec.acc_compute = acc0 + (ctx.time - t0)
                    counted[best] = ctx.instret  # _account, inlined
                    if sum(counted) > max_steps:
                        self._budget_exceeded()
                    if exit_kind == 3:
                        if second >= 0:
                            # Overtaken: re-rank this CPU's new park (the
                            # other parks did not move) and hand off to
                            # the runner-up.
                            t = park_time[best] = ctx.time
                            park_kind[best] = "op"
                            order[0] = (t, best)
                            order.sort()
                            best_t, best = order[0]
                            second_t, second = order[1]
                            kind = park_kind[best]
                            break
                        seg[best] = None  # sole active CPU: always next
                        at_event = True
                        continue
                    if exit_kind == 1:
                        at_event = True
                        continue         # chain: this event is next too
                    if exit_kind == 2:
                        self._cut_t = ctx.time
                        self._cut_i = best
                        spec.state = _EXCEPTION
                        spec.pending_exception = pending
                        spec.block_time = ctx.time
                    break

            if kind is None:
                continue                 # the chain ended: re-rank
            if kind == "poll":
                self._poll_event(best)
            elif kind == "stl":
                # Nested STL_RUN while speculating: multilevel switch.
                self._cut_t = best_t
                self._cut_i = best
                spec = threads[best]
                spec.state = _SWITCH
                spec.block_time = ctxs[best].time
                park_kind[best] = None
                seg[best] = None
            else:                        # "exc": parked guest/VM error
                self._cut_t = best_t
                self._cut_i = best
                spec = threads[best]
                spec.state = _EXCEPTION
                spec.pending_exception = self._park_payload[best]
                spec.block_time = ctxs[best].time
                self._park_payload[best] = None
                park_kind[best] = None
                seg[best] = None

    def _account(self, cpu):
        """Fold the CPU's instructions into the step budget: the
        budget counts each CPU's instructions up to its watermark, so
        this is idempotent and truncation-aware."""
        self._counted[cpu] = self.ctxs[cpu].instret
        if sum(self._counted) > self.max_steps:
            self._budget_exceeded()

    def _budget_exceeded(self):
        raise VMError("STL %d exceeded step budget" % self.desc.stl_id)

    def _poll_event(self, cpu):
        """One lock poll at its stepwise position, plus wake-at-release
        fast-forward: the lock word can only change at a scheduler
        event (stores publish at events; forwarding sources mutate at
        events), so every further poll scheduled before the earliest
        other pending position must also fail — charge those polls in
        bulk without re-entering the scheduler.  Cycle charges and
        cache counters stay identical to the polled model: in the
        skipped window only this CPU touches the hierarchy, so each
        elided ``lwnv`` is a memoized repeat same-line load
        (tick/hits advance by exactly one — see
        :class:`repro.hydra.cache.MemoryHierarchy`)."""
        ctx = self.ctxs[cpu]
        spec = ctx.spec
        frame = ctx.frames[-1]
        instr = frame.code[frame.pc]
        addr = self.fp_addr + instr.imm
        value, __ = ctx.mem.lwnv(addr)
        if value == spec.iteration:
            spec.acc_wait += max(0.0, ctx.time - spec.block_time)
            spec.state = _RUN
            frame.pc += 1               # consume the WAITLOCK
            ctx.time += 1
            self._park_kind[cpu] = None
            return
        ctx.time += _LOCK_POLL_CYCLES

        # earliest possible position of any other CPU's next event
        # (every active CPU is parked while an event executes)
        bound_t = None
        bound_i = -1
        park_kind = self._park_kind
        for other in range(self.n):
            if other != cpu and park_kind[other] is not None:
                t = self._park_time[other]
                if bound_t is None or t < bound_t:
                    bound_t = t
                    bound_i = other
        if bound_t is not None:
            extra = 0
            t = ctx.time
            while t < bound_t or (t == bound_t and cpu < bound_i):
                extra += 1
                t += _LOCK_POLL_CYCLES
            if extra:
                __, __, source = ctx.mem._find_version(addr)
                if source == "memory" and addr > 0:
                    l1 = self.machine.hierarchy.l1[cpu]
                    l1.tick += extra
                    l1.hits += extra
                ctx.time = t
        self._park_kind[cpu] = "poll"
        self._park_time[cpu] = ctx.time

    def _truncate(self, cpu):
        """Rewind a run-ahead CPU to the stepwise cut: restore the
        segment snapshot, then replay per-instruction every local op
        whose pre-step clock orders before ``self._cut``.  Replay only
        re-executes deterministic register-local work, so the resulting
        architectural state is bit-identical to the stepwise
        scheduler's at this point.  It runs through ``step_legacy``,
        the cycle-accounting reference: replays are short and rare, so
        the event scheduler builds no single-instruction tables."""
        seg = self._seg[cpu]
        if seg is None:
            return
        ctx = self.ctxs[cpu]
        spec = ctx.spec
        if len(seg) == 8:                # flat single-frame snapshot
            t0, i0, c0, acc0, out0, f, pc, regs = seg
            f.pc = pc
            f.regs[:] = regs
            ctx.frames = [f]
        else:
            t0, i0, c0, acc0, out0, frames0 = seg
            restored = []
            for f, pc, regs in frames0:
                f.pc = pc
                f.regs[:] = regs
                restored.append(f)
            ctx.frames = restored
        ctx.status = "running"
        ctx.time = t0
        ctx.instret = i0
        ctx.compute_cycles = c0
        del spec.pending_output[out0:]
        cut_t = self._cut_t
        cut_i = self._cut_i
        while ctx.time < cut_t or (ctx.time == cut_t and cpu < cut_i):
            ctx.step_legacy()
        spec.acc_compute = acc0 + (ctx.time - t0)
        self._seg[cpu] = None
        self._account(cpu)

    # ------------------------------------------------------------------
    def _startup(self):
        config = self.config
        machine = self.machine
        master = self.master
        desc = self.desc
        overheads = config.overheads
        self.entry_master_time = master.time

        startup_cost = overheads.startup
        if desc.hoist and self.runtime.last_descriptor is desc:
            startup_cost = max(1, startup_cost
                               - config.hoisted_startup_cycles)
        self.runtime.last_descriptor = desc
        master.time += startup_cost
        self.breakdown.overhead += startup_cost
        self.breakdown.stl_entries += 1
        self.stats = stats = self.runtime.stats_for(desc.stl_id)
        stats.entries += 1
        if self.trace is not None:
            self.trace.stl(master.time - startup_cost, master.cpu_id,
                           desc.stl_id, "enter", stats.entries)
            self.trace.handler(master.time - startup_cost,
                               master.cpu_id, desc.stl_id, "startup",
                               startup_cost)
            self.trace.cache_snapshot(master.time, machine.hierarchy,
                                      force=True)

        self.fp_addr = machine.stack_alloc(max(desc.frame_words, 1) * 4)
        master_regs = master.frames[-1].regs
        for off, reg in desc.init_values:
            machine.memory.store(self.fp_addr + off, master_regs[reg])
            machine.hierarchy.store_latency(master.cpu_id,
                                            self.fp_addr + off)
            master.time += 1
        for off, const in desc.init_consts:
            machine.memory.store(self.fp_addr + off, const)
            machine.hierarchy.store_latency(master.cpu_id,
                                            self.fp_addr + off)
            master.time += 1
        for spec in desc.reductions:
            self.entry_reductions[spec.acc_reg] = master_regs[spec.acc_reg]

        from ..hydra.machine import CpuContext, Frame
        start_time = master.time
        for cpu in range(self.n):
            ctx = CpuContext(machine, cpu)
            thread = SpecThreadState(cpu, cpu, self.fp_addr)
            ctx.spec = thread
            ctx.mem = SpecMemoryInterface(ctx, self)
            ctx.output_buffer = thread.pending_output
            frame = Frame(self.unit, [])
            frame.regs[desc.fp_reg] = self.fp_addr
            frame.regs[desc.iter_reg] = cpu
            for rspec in desc.reductions:
                frame.regs[rspec.acc_reg] = rspec.identity
            ctx.frames = [frame]
            ctx.status = "running"
            ctx.time = start_time
            thread.start_time = start_time
            self.ctxs.append(ctx)
            self.threads.append(thread)
            self.thread_frames.append(frame)
        self.last_commit_time = start_time

    # ------------------------------------------------------------------
    def _commit(self, thread):
        """The head thread finished its iteration: commit in order."""
        cpu = thread.cpu_id
        ctx = self.ctxs[cpu]
        now = max(ctx.time, self.last_commit_time)
        wait = max(0.0, now - thread.block_time)
        thread.acc_wait += wait
        ctx.time = now
        frame = self.thread_frames[cpu]

        # Reset-able inductors that were written unpredictably publish
        # the corrected value and squash every later thread (§4.2.3).
        if thread.request_reset:
            from ..bytecode.instructions import i32
            for rspec in thread.pending_resets:
                # The EOI handler already advanced the register by
                # step*(num_cpus-1) for this CPU's *own* next thread;
                # undo that to get the start-of-next-iteration value.
                value = i32(frame.regs[rspec.reg]
                            - rspec.step * (self.n - 1))
                self.machine.memory.store(self.fp_addr + rspec.slot_value,
                                          value)
                self.machine.memory.store(self.fp_addr + rspec.slot_iter,
                                          thread.iteration + 1)
            self.restart_from(thread.iteration + 1, now, cause="reset")

        self._drain_store_buffer(thread)
        if thread.pending_output:
            self.machine.output.extend(thread.pending_output)
            thread.pending_output.clear()
        for spec in self.desc.reductions:
            frame.regs[spec.acc_reg] = merge_reduction(
                spec.op_name, frame.regs[spec.acc_reg],
                frame.regs[spec.tmp_reg], spec.mask)

        # Accounting.
        self.breakdown.run_used += thread.acc_compute
        self.breakdown.wait_used += thread.acc_wait
        self.breakdown.overhead += thread.acc_overhead
        self.breakdown.commits += 1
        load_lines = len(thread.read_lines)
        store_lines = len(thread.store_lines)
        stats = self.stats
        stats.threads_committed += 1
        stats.cycles_total += thread.acc_compute
        stats.sum_load_lines += load_lines
        stats.sum_store_lines += store_lines
        if load_lines > stats.max_load_lines:
            stats.max_load_lines = load_lines
        if store_lines > stats.max_store_lines:
            stats.max_store_lines = store_lines
        if self.trace is not None:
            self.trace.thread_span(thread.start_time, now, cpu,
                                   self.desc.stl_id, thread.iteration,
                                   "commit")
            self.trace.buffers(self.desc.stl_id, load_lines, store_lines)
            self.trace.cache_snapshot(now, self.machine.hierarchy)

        self.last_commit_time = now
        self.head_iteration += 1

        # Start this CPU's next thread (round robin: +num_cpus).
        thread.reset_speculative_state(thread.iteration + self.n)
        thread.acc_compute = 0.0
        thread.acc_wait = 0.0
        thread.acc_overhead = 0.0
        thread.start_time = ctx.time
        # Advance the hardware iteration register (paper Fig. 5: "set to
        # zero on STL startup, incremented on every thread commit") so a
        # cold restart recomputes inductors for the right iteration.
        frame.regs[self.desc.iter_reg] = thread.iteration
        frame.pc = self.desc.warm_entry
        ctx.frames = [frame]

    def _drain_store_buffer(self, thread):
        memory = self.machine.memory
        hierarchy = self.machine.hierarchy
        cpu = thread.cpu_id
        for addr, value in thread.store_buffer.items():
            memory.store(addr, value)
            hierarchy.store_latency(cpu, addr)

    def _resume_blocked(self, thread):
        """A stalled (overflowed) thread became the head: resume it."""
        ctx = self.ctxs[thread.cpu_id]
        now = max(ctx.time, self.last_commit_time)
        thread.acc_wait += max(0.0, now - thread.block_time)
        ctx.time = now
        thread.state = _RUN

    # ------------------------------------------------------------------
    def _begin_lock_wait(self, ctx):
        """WAITLOCK executed: spin until the lock equals our iteration."""
        spec = ctx.spec
        frame = ctx.frames[-1]
        instr = frame.code[frame.pc - 1]
        value, latency = ctx.mem.lwnv(self.fp_addr + instr.imm)
        ctx.time += latency
        if value == spec.iteration:
            return                      # lock already ours
        frame.pc -= 1                   # re-execute WAITLOCK when woken
        spec.state = _WAIT_LOCK
        spec.block_time = ctx.time
        self.breakdown.lock_waits += 1

    def _poll_lock(self, ctx):
        spec = ctx.spec
        frame = ctx.frames[-1]
        instr = frame.code[frame.pc]
        value, __ = ctx.mem.lwnv(self.fp_addr + instr.imm)
        if value == spec.iteration:
            spec.acc_wait += max(0.0, ctx.time - spec.block_time)
            spec.state = _RUN
            frame.pc += 1               # consume the WAITLOCK
            ctx.time += 1
        else:
            ctx.time += _LOCK_POLL_CYCLES

    # ------------------------------------------------------------------
    def _shutdown(self, thread):
        """The exiting thread is the head: end speculation (Fig. 4 #3)."""
        if self._seg is not None:
            # Event mode: the squash accounting and instret attribution
            # below read every CPU — rewind run-ahead work past the
            # exit event's position first.
            for other_cpu in range(self.n):
                if other_cpu != thread.cpu_id:
                    self._truncate(other_cpu)
        config = self.config
        ctx = self.ctxs[thread.cpu_id]
        now = max(ctx.time, self.last_commit_time)
        thread.acc_wait += max(0.0, now - thread.block_time)
        self._drain_store_buffer(thread)
        if thread.pending_output:
            self.machine.output.extend(thread.pending_output)
            thread.pending_output.clear()

        # The exiting iteration's committed work counts as used.
        self.breakdown.run_used += thread.acc_compute
        self.breakdown.wait_used += thread.acc_wait
        self.breakdown.overhead += thread.acc_overhead
        if self.trace is not None:
            self.trace.thread_span(thread.start_time, now,
                                   thread.cpu_id, self.desc.stl_id,
                                   thread.iteration, "exit")

        # Squash every other in-flight thread.
        for other_cpu, other in enumerate(self.threads):
            if other is thread:
                continue
            wait_extra = 0.0
            if other.state != _RUN:
                wait_extra = max(0.0, now - other.block_time)
            self.breakdown.run_violated += other.acc_compute
            self.breakdown.wait_violated += other.acc_wait + wait_extra
            self.breakdown.overhead += other.acc_overhead
            self.breakdown.squashes += 1
            if self.trace is not None:
                self.trace.thread_span(other.start_time, now, other_cpu,
                                       self.desc.stl_id, other.iteration,
                                       "squash")

        shutdown_cost = config.overheads.shutdown
        if self.desc.hoist:
            shutdown_cost = max(1, shutdown_cost
                                - config.hoisted_shutdown_cycles)
        now += shutdown_cost
        self.breakdown.overhead += shutdown_cost
        if self.trace is not None:
            self.trace.handler(now - shutdown_cost, thread.cpu_id,
                               self.desc.stl_id, "shutdown",
                               shutdown_cost)
            self.trace.stl(now, thread.cpu_id, self.desc.stl_id, "exit")
            self.trace.cache_snapshot(now, self.machine.hierarchy,
                                      force=True)

        # Copy communicated values back into the master's registers.
        master = self.master
        master_regs = master.frames[-1].regs
        master.time = now
        exit_frame = self.thread_frames[thread.cpu_id]
        for reg, source in self.desc.exit_values:
            kind, payload = source
            if kind == "slot":
                value = self.machine.memory.load(self.fp_addr + payload)
                latency = self.machine.hierarchy.load_latency(
                    master.cpu_id, self.fp_addr + payload)
                master.time += latency
            else:
                # Locally-computed value (inductor / reset-able): read
                # straight from the exiting thread's register file.
                value = exit_frame.regs[payload]
                master.time += 1
            master_regs[reg] = value
        for spec in self.desc.reductions:
            final = self.entry_reductions[spec.acc_reg]
            for cpu in range(self.n):
                final = merge_reduction(
                    spec.op_name, final,
                    self.thread_frames[cpu].regs[spec.acc_reg], spec.mask)
            final = merge_reduction(spec.op_name, final,
                                    exit_frame.regs[spec.tmp_reg], spec.mask)
            master_regs[spec.acc_reg] = final

        # Attribute the workers' executed instructions to the master so
        # RunResult.instructions covers the whole simulation.
        master.instret += sum(ctx.instret for ctx in self.ctxs)
        self.stats.wall_cycles += master.time - self.entry_master_time
        self.machine.stack_release(self.fp_addr)
        return thread.exit_id

    def _shutdown_exception(self, thread):
        """A guest exception became real (the thread is the head)."""
        ctx = self.ctxs[thread.cpu_id]
        now = max(ctx.time, self.last_commit_time)
        self._drain_store_buffer(thread)
        self.master.time = now + self.config.overheads.shutdown
        self.stats.wall_cycles += self.master.time - self.entry_master_time
        self.machine.stack_release(self.fp_addr)
        raise thread.pending_exception

    # ------------------------------------------------------------------
    def _do_switch(self, thread):
        """Multilevel STL decomposition (paper §4.2.6, Fig. 7): the head
        thread switches speculation to an inner STL, runs it, then outer
        speculation resumes."""
        cpu = thread.cpu_id
        ctx = self.ctxs[cpu]
        now = max(ctx.time, self.last_commit_time)
        thread.acc_wait += max(0.0, now - thread.block_time)
        ctx.time = now
        thread.state = _RUN
        if self._seg is not None:
            # Event mode: the squash accounting below reads the
            # more-speculative CPUs — rewind their run-ahead work to
            # the STL_RUN event's position first.  Their parks become
            # stale here (the restart loop at the bottom resets them to
            # pc 0), so drop those too.
            for other_cpu, other in enumerate(self.threads):
                if other.iteration > thread.iteration:
                    self._truncate(other_cpu)
                    self._park_kind[other_cpu] = None

        # As the head our buffered work is correct: commit it so the
        # inner STL (running non-speculatively under us) sees it.
        self._drain_store_buffer(thread)
        thread.store_buffer.clear()
        thread.store_lines.clear()
        thread.read_versions.clear()
        thread.read_lines.clear()
        if thread.pending_output:
            self.machine.output.extend(thread.pending_output)
            thread.pending_output.clear()

        # Squash the more-speculative outer threads; they restart after
        # the inner loop completes.
        for other in self.threads:
            if other.iteration > thread.iteration:
                self.breakdown.run_violated += other.acc_compute
                self.breakdown.wait_violated += other.acc_wait
                self.breakdown.overhead += other.acc_overhead
                self.breakdown.squashes += 1
                self.stats.restarts += 1
                if self.trace is not None:
                    self.trace.thread_span(other.start_time, now,
                                           other.cpu_id,
                                           self.desc.stl_id,
                                           other.iteration, "squash")
                    self.trace.restart(now, other.cpu_id,
                                       self.desc.stl_id,
                                       other.iteration, "switch", False)

        frame = ctx.frames[-1]
        inner_desc = frame.code[frame.pc].aux
        saved_spec = ctx.spec
        saved_mem = ctx.mem
        saved_out = ctx.output_buffer
        ctx.spec = None
        from ..hydra.machine import PlainMemoryInterface
        ctx.mem = PlainMemoryInterface(ctx)
        ctx.output_buffer = None
        try:
            exit_id = self.runtime.run_stl(ctx, inner_desc)
        finally:
            ctx.spec = saved_spec
            ctx.mem = saved_mem
            ctx.output_buffer = saved_out
        stl_run = frame.code[frame.pc]
        if stl_run.dst is not None:
            frame.regs[stl_run.dst] = exit_id
        frame.pc += 1

        # Restart the squashed successors after the inner loop.
        after = ctx.time
        restart = self.config.overheads.restart
        for other_cpu, other in enumerate(self.threads):
            if other.iteration > thread.iteration:
                other.reset_speculative_state()
                other_frame = self.thread_frames[other_cpu]
                other_frame.pc = 0
                other_ctx = self.ctxs[other_cpu]
                other_ctx.frames = [other_frame]
                other_ctx.time = after + restart
                other.acc_compute = 0.0
                other.acc_wait = 0.0
                other.acc_overhead = restart
                other.start_time = other_ctx.time
