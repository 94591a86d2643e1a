"""Predecoded dispatch tables for the Hydra IR machine.

:func:`dispatch_table` turns one code unit (a
:class:`~repro.jit.compiler.CompiledMethod` or a TLS thread-code unit)
into a list indexed by pc whose entries are handler closures
``handler(ctx, frame) -> signal-or-None``.  Three handler species:

* **block functions** — ``exec``-generated Python functions covering a
  maximal straight-line run of *batchable* instructions (pure
  register/ALU work: no memory access, no signals, no runtime
  services).  One dispatch executes the whole run and, when the run
  ends in a branch, the branch is absorbed ("fused") into the same
  function — the hot ``ADDI+BLT`` / ``SLT+BNEZ`` inductor idioms the
  codegen emits constantly execute without re-entering the dispatch
  loop.  Adjacent integer-compare + ``BEQZ/BNEZ`` pairs additionally
  fuse into a single Python comparison.  In sequential tables the TEST
  annotation ops (``SLOOP/EOI/ELOOP/LWL/SWL``) join the run too: each
  becomes an inline profiler hook call at the clock the legacy arm
  would pass, plus its 1 cycle in the block's static cost.  A block
  also adds its static count of annotation-only instructions (those
  ops and an absorbed annotation-stub ``J``) to
  ``ctx.annotation_instret``, as it does ``instret``.
* **specialised singletons** — hand-written closures for the hot
  non-batchable ops (``LW/SW/LWNV``, ``CALL``, ``RET``, ``INTRIN``,
  and the per-iteration TLS ops ``STL_EOI_END/STL_EXIT/WAITLOCK/SIGNAL``)
  with operands pre-bound, so the per-step work is exactly the semantic
  action plus cycle accounting.
* **legacy fallback** — everything rare (ALLOC, CALLV, monitors, the
  remaining TLS pseudo-ops, …) delegates to ``CpuContext.step_legacy``,
  the original ``if/elif`` interpreter, which stays the single source
  of truth for those semantics.

Cycle exactness
---------------
Every handler reproduces the legacy ``step()`` observable effects
bit-for-bit: ``frame.pc`` and ``ctx.instret`` are incremented *before*
the instruction's effect (so a raising instruction is counted, exactly
as the legacy dispatcher counts it), per-op cycle costs come from the
same cost model, ``ctx.time`` for a raising instruction's
*predecessors* is flushed before the raise, and
``ctx.current_site`` / profiler hook arguments are bound to
content-identical ``(unit_name, instr)`` tuples.

One table granularity exists per code unit, :func:`dispatch_table`'s
fully batched blocks.  It serves ``Machine.run``'s sequential loop,
where a single simulated CPU runs alone and executing a straight-line
run atomically cannot change any observable (memory accesses and
signals are always step boundaries, so they occur at identical clock
values either way), and the event-driven TLS scheduler's run-ahead
between scheduler events, whose truncations replay through
``step_legacy`` (see ``repro.tls.runtime``).  The reference engine (``HydraConfig.engine = "reference"``) dispatches
through no table: it steps ``step_legacy`` one instruction at a time.
"""

import math

from ..bytecode.instructions import f2i, i32, idiv, irem, u32
from ..errors import (ArithmeticException, ArrayIndexException,
                      NullPointerException)
from ..jit.ir import (ANNOTATION_IR_OPS, ANNOTATION_STUB, BRANCH_IR_OPS,
                      IROp)

#: Ops a block function may contain in every table: pure register/ALU
#: work with no memory traffic, no signals, no runtime services and no
#: profiler hooks.  Raising ops (DIV/REM/NULLCHK/BOUNDCHK) are
#: included — their raise paths flush pc/instret/time before raising
#: (see module doc).
BATCHABLE_IR_OPS = frozenset({
    IROp.LI, IROp.MOV, IROp.ADD, IROp.ADDI, IROp.SUB, IROp.MUL, IROp.DIV,
    IROp.REM, IROp.NEG, IROp.AND, IROp.OR, IROp.XOR, IROp.SHL, IROp.SHR,
    IROp.USHR, IROp.SLLI, IROp.FADD, IROp.FSUB, IROp.FMUL, IROp.FDIV,
    IROp.FNEG, IROp.FREM, IROp.SEQ, IROp.SNE, IROp.SLT, IROp.SLE,
    IROp.SGT, IROp.SGE, IROp.FCMP, IROp.I2F, IROp.F2I, IROp.NULLCHK,
    IROp.BOUNDCHK,
})

#: Per-op cycle costs diverging from the default 1 (mirror of the
#: legacy ``step()`` cost model — keep in sync).
_COSTS = {
    IROp.MUL: 2, IROp.FMUL: 3,
    IROp.DIV: 12, IROp.REM: 12, IROp.FDIV: 12, IROp.FREM: 12,
}

#: TLS thread-code ops every speculative iteration executes (one
#: end-of-iteration or exit, plus a WAITLOCK/SIGNAL pair in a
#: sync-locked loop): specialised singletons, not legacy fallbacks
_THREAD_SIGNAL_OPS = frozenset({IROp.STL_EOI_END, IROp.STL_EXIT,
                                IROp.WAITLOCK, IROp.SIGNAL})

#: Ops a block of a *sequential* table may contain: the batchable ops
#: plus the TEST annotation ops (Table 2).  An annotation op touches
#: only the machine's profiler and its own 1 cycle, so the block calls
#: the hook inline at the exact clock the legacy arm would pass;
#: annotated code never runs under TLS.
SEQUENTIAL_BLOCK_IR_OPS = BATCHABLE_IR_OPS | ANNOTATION_IR_OPS

#: Ops the event-driven TLS scheduler may execute during *run-ahead*
#: (see ``repro.tls.runtime``): instructions whose effects are confined
#: to the executing CPU's architectural state (registers, frame stack,
#: clock, instret, its own pending-output list) and are deterministic
#: given that state.  Everything else — memory traffic, locks, TLS
#: pseudo-ops, allocation, annotation/profiler hooks, TRAP — is a
#: *scheduler event*: it can observe or mutate cross-CPU state, so it
#: must execute in global smallest-clock order.  Branches and fused
#: blocks are local; CALL/RET only touch the private frame stack;
#: INTRIN either computes a pure function or appends to the thread's
#: private output buffer (both replayable on truncation).
TLS_LOCAL_IR_OPS = (BATCHABLE_IR_OPS | BRANCH_IR_OPS
                    | frozenset({IROp.CALL, IROp.RET, IROp.INTRIN}))

_INT_CMP_PY = {IROp.SEQ: "==", IROp.SNE: "!=", IROp.SLT: "<",
               IROp.SLE: "<=", IROp.SGT: ">", IROp.SGE: ">="}

_COND_BR_PY = {IROp.BEQ: "regs[%(a)d] == regs[%(b)d]",
               IROp.BNE: "regs[%(a)d] != regs[%(b)d]",
               IROp.BLT: "regs[%(a)d] < regs[%(b)d]",
               IROp.BGE: "regs[%(a)d] >= regs[%(b)d]",
               IROp.BGT: "regs[%(a)d] > regs[%(b)d]",
               IROp.BLE: "regs[%(a)d] <= regs[%(b)d]",
               IROp.BEQZ: "regs[%(a)d] == 0",
               IROp.BNEZ: "regs[%(a)d] != 0"}


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def dispatch_table(unit):
    """Predecoded handler table for *unit*, cached on the unit.

    *unit* is anything with ``code`` (finalized IR list) and ``name``;
    an optional ``warm_entries`` attribute lists extra block-leader pcs
    (TLS thread code re-enters at ``StlDescriptor.warm_entry`` on every
    commit, so that pc must start a block of its own).
    """
    table = getattr(unit, "_dispatch", None)
    if table is None:
        table = build_table(unit.code, unit.name,
                            getattr(unit, "warm_entries", ()))
        try:
            unit._dispatch = table
        except (AttributeError, TypeError):
            pass                        # uncacheable unit: rebuild per frame
    return table


def tls_event_map(unit):
    """Per-pc event map for the event-driven TLS scheduler, cached on
    the unit: ``map[pc]`` is 0 when ``code[pc]`` is *local* (in
    :data:`TLS_LOCAL_IR_OPS` — safe to execute during run-ahead), 1
    when it is a *scheduler event* (the CPU must park and yield to the
    global event loop before executing it), and 2 for ``STL_RUN``
    specifically (an event the scheduler must never dispatch through a
    handler: it transitions the thread to the multilevel-switch state
    instead).  A TLS thread-code unit then marks its ``LW`` pcs 3
    (``repro.tls.runtime``: loads that may run inside the run-ahead)."""
    events = getattr(unit, "_tls_events", None)
    if events is None:
        local = TLS_LOCAL_IR_OPS
        stl_run = IROp.STL_RUN
        events = [0 if instr.op in local else (2 if instr.op is stl_run
                                               else 1)
                  for instr in unit.code]
        try:
            unit._tls_events = events
        except (AttributeError, TypeError):
            pass                        # uncacheable unit: rebuild per use
    return events


def tls_cost_map(unit, call_overhead_cycles):
    """Per-pc upper bound on the cycle cost of a *single local
    dispatch* at that pc, cached on the unit.  The event scheduler uses
    it to run a CPU ahead without segment snapshots while every
    dispatch provably completes below the runner-up CPU's position
    (see ``repro.tls.runtime``).

    Bounds are conservative: a batchable pc is costed to the end of its
    maximal batchable run plus one cycle for a fused branch, even
    though the built block may stop earlier at an interior leader.
    Event pcs keep cost 0 — the scheduler checks the event map first
    and never dispatches them from the run-ahead window.  The CALL
    overhead is config-dependent; a unit only ever executes on one
    machine, so folding the caller's value into the cache is safe."""
    costs = getattr(unit, "_tls_costs", None)
    if costs is None:
        from ..vm import intrinsics
        code = unit.code
        n = len(code)
        costs = [0] * n
        run = 0
        for pc in range(n - 1, -1, -1):
            instr = code[pc]
            op = instr.op
            if op in BATCHABLE_IR_OPS:
                run += _COSTS.get(op, 1)
                costs[pc] = run + 1     # +1: possible fused branch
                continue
            run = 0
            if op in BRANCH_IR_OPS:
                costs[pc] = 1
            elif op is IROp.CALL:
                costs[pc] = call_overhead_cycles + len(instr.args or ())
            elif op is IROp.RET:
                costs[pc] = 2
            elif op is IROp.INTRIN:
                costs[pc] = intrinsics.lookup(instr.aux).cycles
        try:
            unit._tls_costs = costs
        except (AttributeError, TypeError):
            pass
    return costs


# ``stepwise`` (one block per pc) has no caller here; it stays because
# perfbench/sweep_pass.py wraps this function and forwards it.
def build_table(code, unit_name, extra_leaders=(), stepwise=False):
    """Predecode *code* into a pc-indexed list of handler closures."""
    n = len(code)
    if stepwise:
        block_ops = BATCHABLE_IR_OPS
        leaders = set(range(n))
    else:
        block_ops = SEQUENTIAL_BLOCK_IR_OPS
        leaders = {0}
        for pc, instr in enumerate(code):
            op = instr.op
            if op in BRANCH_IR_OPS:
                if isinstance(instr.target, int):
                    leaders.add(instr.target)
                leaders.add(pc + 1)
            elif op not in block_ops:
                leaders.add(pc + 1)
        for pc in extra_leaders:
            if pc is not None:
                leaders.add(pc)
        leaders = {pc for pc in leaders if 0 <= pc < n}

    consts = []
    sources = []
    block_names = {}
    for pc in sorted(leaders):
        op = code[pc].op
        if op in block_ops or op in BRANCH_IR_OPS:
            name, lines = _gen_block(code, pc, leaders, consts, block_ops)
            block_names[pc] = name
            sources.append("\n".join(lines))

    ns = {
        "i32": i32, "u32": u32, "idiv": idiv, "irem": irem, "f2i": f2i,
        "fmod": math.fmod,
        "ArithmeticException": ArithmeticException,
        "ArrayIndexException": ArrayIndexException,
        "NullPointerException": NullPointerException,
        "_NAN": float("nan"), "_INF": float("inf"),
        "_NINF": float("-inf"),
        "UNIT_NAME": unit_name,
    }
    for index, value in enumerate(consts):
        ns["K%d" % index] = value
    if sources:
        exec(compile("\n\n".join(sources),
                     "<ir-engine:%s>" % unit_name, "exec"), ns)

    table = [None] * n
    for pc, instr in enumerate(code):
        name = block_names.get(pc)
        if name is not None:
            table[pc] = ns[name]
            continue
        op = instr.op
        if op == IROp.LW:
            table[pc] = _make_lw(instr, pc, unit_name)
        elif op == IROp.LWNV:
            table[pc] = _make_lwnv(instr, pc, unit_name)
        elif op == IROp.SW:
            table[pc] = _make_sw(instr, pc, unit_name)
        elif op == IROp.CALL:
            table[pc] = _make_call(instr, pc)
        elif op == IROp.RET:
            table[pc] = _make_ret(instr, pc)
        elif op == IROp.INTRIN:
            table[pc] = _make_intrin(instr, pc)
        elif op in _THREAD_SIGNAL_OPS:
            table[pc] = _make_thread_signal(instr, pc)
        else:
            # Rare runtime-service / TLS ops, plus the (normally
            # unreachable) interiors of batched blocks: delegate to the
            # legacy if/elif dispatcher, the source of truth.
            table[pc] = _legacy
    return table


def _legacy(ctx, frame):
    return ctx.step_legacy()


# ---------------------------------------------------------------------------
# block (superinstruction) code generation
# ---------------------------------------------------------------------------

def _block_span(code, start, leaders, block_ops):
    """Consecutive pcs from *start* whose ops are in *block_ops*, plus
    an absorbed branch pc (or None).  A leader interior to the scan
    ends the block before it — some other block jumps there, so it
    needs its own entry."""
    pcs = []
    i = start
    n = len(code)
    while i < n:
        if i > start and i in leaders:
            return pcs, None
        op = code[i].op
        if op in BRANCH_IR_OPS:
            return pcs, i
        if op not in block_ops:
            return pcs, None
        pcs.append(i)
        i += 1
    return pcs, None


def _const(value, consts):
    """Inline ints; pool everything else — floats (repr can't express
    nan/inf exactly) and objects such as a hook's site instruction."""
    if type(value) is int:
        return repr(value)
    consts.append(value)
    return "K%d" % (len(consts) - 1)


def _wrap(expr):
    """Inline Java 32-bit signed wrap of *expr* — the call-free form of
    :func:`~repro.bytecode.instructions.i32`: for any int ``x``,
    ``(x + 2**31) % 2**32 - 2**31`` equals ``i32(x)``.  Saves one
    Python call per ALU op inside generated blocks (the hottest
    generated code in both the sequential and event-driven TLS paths).
    ``&`` binds looser than ``+``, so no inner parens are needed."""
    return "(%s + 0x80000000 & 0xFFFFFFFF) - 0x80000000" % expr


def _gen_block(code, start, leaders, consts, block_ops):
    """Generate one block function's source.  Returns (name, lines)."""
    pcs, branch_pc = _block_span(code, start, leaders, block_ops)
    name = "_b%d" % start
    lines = ["def %s(ctx, frame):" % name,
             "    regs = frame.regs"]
    if any(code[pc].op in ANNOTATION_IR_OPS for pc in pcs):
        lines.append("    prof = ctx.machine.profiler")
    temp = [0]

    def fresh():
        temp[0] += 1
        return "_t%d" % temp[0]

    cost_done = 0                       # cycles of fully-executed instrs
    annotations_done = 0                # annotation ops among them
    for pc in pcs:
        instr = code[pc]
        op = instr.op
        d, a, b = instr.dst, instr.a, instr.b
        if op == IROp.LI:
            lines.append("    regs[%d] = %s" % (d, _const(instr.imm,
                                                          consts)))
        elif op == IROp.MOV:
            lines.append("    regs[%d] = regs[%d]" % (d, a))
        elif op == IROp.ADD:
            lines.append("    regs[%d] = %s"
                         % (d, _wrap("regs[%d] + regs[%d]" % (a, b))))
        elif op == IROp.ADDI:
            # The +0x80000000 bias of the wrap folds into the constant.
            lines.append("    regs[%d] = (regs[%d] + %d & 0xFFFFFFFF)"
                         " - 0x80000000"
                         % (d, a, instr.imm + 0x80000000))
        elif op == IROp.SUB:
            lines.append("    regs[%d] = %s"
                         % (d, _wrap("regs[%d] - regs[%d]" % (a, b))))
        elif op == IROp.MUL:
            lines.append("    regs[%d] = %s"
                         % (d, _wrap("regs[%d] * regs[%d]" % (a, b))))
        elif op in (IROp.DIV, IROp.REM):
            t = fresh()
            fn, msg = (("idiv", "/ by zero") if op == IROp.DIV
                       else ("irem", "% by zero"))
            lines.append("    %s = regs[%d]" % (t, b))
            lines.append("    if %s == 0:" % t)
            lines.extend(_raise_flush(start, pc, cost_done,
                                      annotations_done))
            lines.append("        raise ArithmeticException(%r)" % msg)
            lines.append("    regs[%d] = %s(regs[%d], %s)"
                         % (d, fn, a, t))
        elif op == IROp.NEG:
            lines.append("    regs[%d] = %s"
                         % (d, _wrap("-regs[%d]" % a)))
        elif op == IROp.AND:
            # &, | and ^ of two in-range i32 values are closed under
            # two's-complement sign extension — no wrap needed.
            lines.append("    regs[%d] = regs[%d] & regs[%d]"
                         % (d, a, b))
        elif op == IROp.OR:
            lines.append("    regs[%d] = regs[%d] | regs[%d]"
                         % (d, a, b))
        elif op == IROp.XOR:
            lines.append("    regs[%d] = regs[%d] ^ regs[%d]"
                         % (d, a, b))
        elif op == IROp.SHL:
            lines.append("    regs[%d] = %s"
                         % (d, _wrap("(regs[%d] << (regs[%d] & 31))"
                                     % (a, b))))
        elif op == IROp.SHR:
            # Arithmetic right shift of an in-range value stays in
            # range — no wrap needed.
            lines.append("    regs[%d] = regs[%d] >> (regs[%d] & 31)"
                         % (d, a, b))
        elif op == IROp.USHR:
            lines.append(
                "    regs[%d] = %s"
                % (d, _wrap("((regs[%d] & 0xFFFFFFFF) >> (regs[%d] & 31))"
                            % (a, b))))
        elif op == IROp.SLLI:
            lines.append("    regs[%d] = %s"
                         % (d, _wrap("(regs[%d] << %d)"
                                     % (a, instr.imm & 31))))
        elif op == IROp.FADD:
            lines.append("    regs[%d] = regs[%d] + regs[%d]" % (d, a, b))
        elif op == IROp.FSUB:
            lines.append("    regs[%d] = regs[%d] - regs[%d]" % (d, a, b))
        elif op == IROp.FMUL:
            lines.append("    regs[%d] = regs[%d] * regs[%d]" % (d, a, b))
        elif op == IROp.FDIV:
            td, tn = fresh(), fresh()
            lines.append("    %s = regs[%d]" % (td, b))
            lines.append("    %s = regs[%d]" % (tn, a))
            lines.append("    if %s == 0.0:" % td)
            lines.append("        regs[%d] = (_NAN if %s == 0.0 else"
                         " (_INF if %s > 0.0 else _NINF))" % (d, tn, tn))
            lines.append("    else:")
            lines.append("        regs[%d] = %s / %s" % (d, tn, td))
        elif op == IROp.FNEG:
            lines.append("    regs[%d] = -regs[%d]" % (d, a))
        elif op == IROp.FREM:
            t = fresh()
            lines.append("    %s = regs[%d]" % (t, b))
            lines.append("    regs[%d] = (fmod(regs[%d], %s)"
                         " if %s != 0.0 else _NAN)" % (d, a, t, t))
        elif op in _INT_CMP_PY:
            lines.append("    regs[%d] = int(regs[%d] %s regs[%d])"
                         % (d, a, _INT_CMP_PY[op], b))
        elif op == IROp.FCMP:
            ta, tb = fresh(), fresh()
            lines.append("    %s = regs[%d]" % (ta, a))
            lines.append("    %s = regs[%d]" % (tb, b))
            lines.append("    if %s != %s or %s != %s:"
                         % (ta, ta, tb, tb))
            lines.append("        regs[%d] = -1" % d)
            lines.append("    else:")
            lines.append("        regs[%d] = (%s > %s) - (%s < %s)"
                         % (d, ta, tb, ta, tb))
        elif op == IROp.I2F:
            lines.append("    regs[%d] = float(regs[%d])" % (d, a))
        elif op == IROp.F2I:
            lines.append("    regs[%d] = f2i(regs[%d])" % (d, a))
        elif op == IROp.NULLCHK:
            lines.append("    if regs[%d] == 0:" % a)
            lines.extend(_raise_flush(start, pc, cost_done,
                                      annotations_done))
            lines.append("        raise NullPointerException(UNIT_NAME)")
        elif op == IROp.BOUNDCHK:
            ti, tn = fresh(), fresh()
            lines.append("    %s = regs[%d]" % (ti, a))
            lines.append("    %s = regs[%d]" % (tn, b))
            lines.append("    if %s < 0 or %s >= %s:" % (ti, ti, tn))
            lines.extend(_raise_flush(start, pc, cost_done,
                                      annotations_done))
            lines.append("        raise ArrayIndexException("
                         "'index %%d, length %%d' %% (%s, %s))" % (ti, tn))
        elif op in ANNOTATION_IR_OPS:
            annotations_done += 1
            # TEST hook at the clock the legacy arm passes: after the
            # block's earlier instructions, before this op's own cycle.
            now = "ctx.time + %d" % cost_done if cost_done else "ctx.time"
            aux = _const(instr.aux, consts)
            if op == IROp.SLOOP:
                call = "prof.on_sloop(%s, %s, %s)" % (
                    aux, _const(instr.imm, consts), now)
            elif op == IROp.EOI:
                call = "prof.on_eoi(%s, %s)" % (aux, now)
            elif op == IROp.ELOOP:
                call = "prof.on_eloop(%s, %s)" % (aux, now)
            else:
                call = "prof.on_%s(%s, %s, %s, %s)" % (
                    "lwl" if op == IROp.LWL else "swl", aux,
                    _const(instr.imm, consts), now, _const(instr, consts))
            lines.append("    if prof is not None:")
            lines.append("        " + call)
        else:                            # pragma: no cover - guarded above
            raise AssertionError("non-batchable op in block: %s" % op)
        cost_done += _COSTS.get(op, 1)

    if branch_pc is None:
        count = len(pcs)
        end_pc = start + count
        lines.append("    frame.pc = %d" % end_pc)
        lines.append("    ctx.instret += %d" % count)
        if annotations_done:
            lines.append("    ctx.annotation_instret += %d"
                         % annotations_done)
        lines.append("    ctx.time += %d" % cost_done)
        lines.append("    return None")
        return name, lines

    # Absorb the terminating branch (cost 1, like every branch).
    branch = code[branch_pc]
    count = branch_pc - start + 1
    total = cost_done + 1
    if branch.op == IROp.J and branch.aux == ANNOTATION_STUB:
        annotations_done += 1
    lines.append("    ctx.instret += %d" % count)
    if annotations_done:
        lines.append("    ctx.annotation_instret += %d" % annotations_done)
    lines.append("    ctx.time += %d" % total)
    if branch.op == IROp.J:
        lines.append("    frame.pc = %d" % branch.target)
    else:
        cond = _branch_condition(code, branch_pc, pcs)
        lines.append("    if %s:" % cond)
        lines.append("        frame.pc = %d" % branch.target)
        lines.append("    else:")
        lines.append("        frame.pc = %d" % (branch_pc + 1))
    lines.append("    return None")
    return name, lines


def _raise_flush(start, pc, cost_done, annotations_done):
    """Flush lines (8-space indent) before a raise at *pc*: the legacy
    dispatcher increments pc/instret before executing, so the raising
    instruction is counted, while its cycle cost is not yet added."""
    out = ["        frame.pc = %d" % (pc + 1),
           "        ctx.instret += %d" % (pc - start + 1)]
    if annotations_done:
        out.append("        ctx.annotation_instret += %d"
                   % annotations_done)
    if cost_done:
        out.append("        ctx.time += %d" % cost_done)
    return out


def _branch_condition(code, branch_pc, pcs):
    """Python condition for a conditional branch; fuses an adjacent
    integer-compare + BEQZ/BNEZ pair into one comparison when the
    compare's operands are untouched by its own destination write."""
    branch = code[branch_pc]
    op = branch.op
    if op in (IROp.BEQZ, IROp.BNEZ) and pcs and pcs[-1] == branch_pc - 1:
        cmp_instr = code[branch_pc - 1]
        if (cmp_instr.op in _INT_CMP_PY
                and cmp_instr.dst == branch.a
                and cmp_instr.dst != cmp_instr.a
                and cmp_instr.dst != cmp_instr.b):
            expr = "regs[%d] %s regs[%d]" % (
                cmp_instr.a, _INT_CMP_PY[cmp_instr.op], cmp_instr.b)
            if op == IROp.BNEZ:
                return expr
            return "not (%s)" % expr
    return _COND_BR_PY[op] % {"a": branch.a, "b": branch.b}


# ---------------------------------------------------------------------------
# specialised singleton handlers
# ---------------------------------------------------------------------------

def _make_lw(instr, pc, unit_name):
    dst, a, imm = instr.dst, instr.a, instr.imm
    site = (unit_name, instr)
    next_pc = pc + 1
    if a is None:
        def lw_abs(ctx, frame):
            frame.pc = next_pc
            ctx.instret += 1
            ctx.current_site = site
            value, latency = ctx.mem.load(imm)
            frame.regs[dst] = value
            ctx.time += latency
            return None
        return lw_abs

    def lw(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        ctx.current_site = site
        regs = frame.regs
        value, latency = ctx.mem.load(regs[a] + imm)
        regs[dst] = value
        ctx.time += latency
        return None
    return lw


def _make_lwnv(instr, pc, unit_name):
    dst, a, imm = instr.dst, instr.a, instr.imm
    site = (unit_name, instr)
    next_pc = pc + 1
    if a is None:
        def lwnv_abs(ctx, frame):
            frame.pc = next_pc
            ctx.instret += 1
            ctx.current_site = site
            value, latency = ctx.mem.lwnv(imm)
            frame.regs[dst] = value
            ctx.time += latency
            return None
        return lwnv_abs

    def lwnv(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        ctx.current_site = site
        regs = frame.regs
        value, latency = ctx.mem.lwnv(regs[a] + imm)
        regs[dst] = value
        ctx.time += latency
        return None
    return lwnv


def _make_sw(instr, pc, unit_name):
    src, b, imm = instr.a, instr.b, instr.imm
    site = (unit_name, instr)
    next_pc = pc + 1
    if b is None:
        def sw_abs(ctx, frame):
            frame.pc = next_pc
            ctx.instret += 1
            ctx.current_site = site
            cost = ctx.mem.store(imm, frame.regs[src])
            ctx.time += cost
            return None
        return sw_abs

    def sw(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        ctx.current_site = site
        regs = frame.regs
        cost = ctx.mem.store(regs[b] + imm, regs[src])
        ctx.time += cost
        return None
    return sw


def _make_call(instr, pc):
    from ..hydra.machine import Frame
    aux = instr.aux
    arg_regs = tuple(instr.args or ())
    dst = instr.dst
    nargs = len(arg_regs)
    next_pc = pc + 1

    def call(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        regs = frame.regs
        machine = ctx.machine
        compiled = machine.compiled.resolve(*aux)
        args = [regs[reg] for reg in arg_regs]
        ctx.frames.append(Frame(compiled, args, dst))
        cost = machine.config.call_overhead_cycles + nargs
        ctx.time += cost
        return None
    return call


def _make_ret(instr, pc):
    a = instr.a
    next_pc = pc + 1

    def ret(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        value = frame.regs[a] if a is not None else None
        frames = ctx.frames
        popped = frames.pop()
        if not frames:
            ctx.status = "done"
            ctx.return_value = value
            ctx.time += 1
            return "done"                      # SIG_DONE
        if popped.ret_reg is not None and value is not None:
            frames[-1].regs[popped.ret_reg] = value
        ctx.time += 2
        return None
    return ret


def _make_thread_signal(instr, pc):
    """STL_EOI_END / STL_EXIT / WAITLOCK / SIGNAL: the per-iteration
    TLS thread-code ops, mirroring their ``step_legacy`` arms (the
    SIGNAL store goes through the same ``CpuContext._do_signal``)."""
    from ..hydra.machine import SIG_EOI, SIG_EXIT, SIG_WAIT
    op = instr.op
    next_pc = pc + 1
    if op is IROp.WAITLOCK:
        def waitlock(ctx, frame):
            frame.pc = next_pc
            ctx.instret += 1
            return SIG_WAIT      # the TLS runtime resolves the lock
        return waitlock
    if op is IROp.SIGNAL:
        def signal(ctx, frame):
            frame.pc = next_pc
            ctx.instret += 1
            cost = ctx._do_signal(instr, frame.regs)
            ctx.time += cost
            return None
        return signal
    sig = SIG_EOI if op is IROp.STL_EOI_END else SIG_EXIT

    def thread_end(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        ctx.time += 1
        return sig
    return thread_end


def _make_intrin(instr, pc):
    from ..vm import intrinsics
    intrinsic = intrinsics.lookup(instr.aux)
    fn = intrinsic.fn
    is_output = intrinsic.is_output
    cycles = intrinsic.cycles
    arg_regs = tuple(instr.args or ())
    dst = instr.dst
    next_pc = pc + 1

    def intrin(ctx, frame):
        frame.pc = next_pc
        ctx.instret += 1
        regs = frame.regs
        args = [regs[reg] for reg in arg_regs]
        if is_output:
            buffer = ctx.output_buffer
            if buffer is not None:
                buffer.append(args[0])
            else:
                ctx.machine.output.append(args[0])
        else:
            result = fn(*args)
            if dst is not None:
                regs[dst] = result
        ctx.time += cycles
        return None
    return intrin
