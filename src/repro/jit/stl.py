"""STL recompilation: transform selected loops into speculative threads.

For every loop the selector chose, this pass (paper §4, Figure 4/5/6):

* extracts one loop iteration into *thread code* with a cold entry
  (invariant loads + inductor recompute after startup/violation) and a
  warm entry (communicated-local loads only),
* communicates general carried locals through $fp-relative stack slots,
* applies the §4.2 optimizations — loop-invariant register allocation,
  non-communicating (and reset-able) loop inductors, private reductions
  merged at commit, thread synchronizing locks,
* rewrites the host method so the loop entry jumps to an ``STL_RUN``
  pseudo-instruction followed by an exit-id dispatch.

Which optimizations apply is controlled by :class:`StlOptions` so the
benchmark harness can regenerate the paper's ablation columns.
"""

from dataclasses import dataclass

from ..bytecode.module import WORD
from ..errors import JitError
from .annotate import identify_loops
from .cfg import build_cfg, find_natural_loops
from .ir import (IRInstr, IROp, Label, finalize_with_positions, label_instr)
from .optimize import liveness
from .patterns import (KIND_GENERAL, KIND_INDUCTOR, KIND_REDUCTION,
                       KIND_RESETABLE, classify_carried_locals)


@dataclass
class StlOptions:
    """Which §4.2 optimizations the recompiler may apply."""

    invariant_regalloc: bool = True       # §4.2.1
    noncomm_inductors: bool = True        # §4.2.2
    resetable_inductors: bool = True      # §4.2.3
    sync_locks: bool = True               # §4.2.4
    reductions: bool = True               # §4.2.5
    multilevel: bool = True               # §4.2.6
    hoisting: bool = True                 # §4.2.7

    def to_dict(self):
        from dataclasses import asdict
        return asdict(self)

    @staticmethod
    def from_dict(data):
        return StlOptions(**data)


class ReductionSpec:
    __slots__ = ("acc_reg", "tmp_reg", "op_name", "identity", "is_float",
                 "mask")

    def __init__(self, acc_reg, tmp_reg, op_name, identity, is_float,
                 mask=None):
        self.acc_reg = acc_reg
        self.tmp_reg = tmp_reg
        self.op_name = op_name
        self.identity = identity
        self.is_float = is_float
        self.mask = mask


class ResetableSpec:
    __slots__ = ("reg", "slot_value", "slot_iter", "step")

    def __init__(self, reg, slot_value, slot_iter, step):
        self.reg = reg
        self.slot_value = slot_value
        self.slot_iter = slot_iter
        self.step = step


class StlDescriptor:
    """Everything the TLS runtime needs to run one speculative loop."""

    __slots__ = ("stl_id", "method_name", "thread_code", "nregs",
                 "warm_entry", "fp_reg", "iter_reg", "frame_words",
                 "init_values", "init_consts", "exit_values", "reductions",
                 "resetables", "num_exits", "sync_lock_off", "hoist",
                 "multilevel_inner", "plan", "options", "general_slots")

    def __init__(self, stl_id, method_name):
        self.stl_id = stl_id
        self.method_name = method_name
        self.thread_code = None
        self.nregs = 0
        self.warm_entry = 0
        self.fp_reg = None
        self.iter_reg = None
        self.frame_words = 0
        self.init_values = []       # (slot_off, master_reg)
        self.init_consts = []       # (slot_off, constant)
        self.exit_values = []       # (master_reg, slot_off)
        self.reductions = []        # ReductionSpec
        self.resetables = []        # ResetableSpec
        self.num_exits = 0
        self.sync_lock_off = None
        self.hoist = False
        self.multilevel_inner = False
        self.plan = None
        self.options = None
        self.general_slots = {}

    def __repr__(self):
        return "<StlDescriptor %d in %s (%d slots, %d exits)>" % (
            self.stl_id, self.method_name, self.frame_words, self.num_exits)


class _SlotAllocator:
    def __init__(self):
        self.next_off = 0

    def alloc(self):
        off = self.next_off
        self.next_off += WORD
        return off


class StlCompiler:
    """Transforms one selected loop of one IR method."""

    def __init__(self, ir_method, config, options):
        self.ir = ir_method
        self.config = config
        self.options = options

    # ------------------------------------------------------------------
    def transform(self, loop_header_label, plan):
        ir = self.ir
        cfg = build_cfg(ir.code)
        header_bid = cfg.label_map.get(loop_header_label)
        if header_bid is None:
            raise JitError("lost STL header label in %s" % ir.name)
        loops = find_natural_loops(cfg)
        loop = next((lp for lp in loops if lp.header == header_bid), None)
        if loop is None:
            raise JitError("loop for STL %d vanished in %s"
                           % (plan.loop_id, ir.name))

        options = self.options
        kinds = classify_carried_locals(cfg, loop, ir.num_locals, loops)
        live_in, live_out = liveness(cfg)

        used, defined = set(), set()
        for bid in loop.blocks:
            for instr in cfg.blocks[bid].instrs:
                used.update(instr.uses())
                dst = instr.defs()
                if dst is not None:
                    defined.add(dst)
        used.discard(0)
        self._reads_in_loop = frozenset(used)

        exit_succs = sorted({succ for __, succ in loop.exits})
        live_at_exits = set()
        for succ in exit_succs:
            live_at_exits |= live_in[succ]

        invariants = sorted(used - defined)
        carried = sorted(defined & (live_in[header_bid] | live_at_exits))

        # Partition carried regs by classification (respecting options).
        generals, inductors, resetables, reductions = [], [], [], []
        for reg in carried:
            info = kinds.get(reg)
            kind = info.kind if info is not None else KIND_GENERAL
            if kind == KIND_INDUCTOR and not options.noncomm_inductors:
                kind = KIND_GENERAL
            if kind == KIND_RESETABLE and not options.resetable_inductors:
                kind = KIND_GENERAL
            if kind == KIND_REDUCTION and not options.reductions:
                kind = KIND_GENERAL
            if kind == KIND_INDUCTOR:
                inductors.append(info)
            elif kind == KIND_RESETABLE:
                resetables.append(info)
            elif kind == KIND_REDUCTION:
                reductions.append(info)
            else:
                generals.append(reg)

        descriptor = StlDescriptor(plan.loop_id, ir.name)
        descriptor.plan = plan
        descriptor.options = options
        descriptor.hoist = bool(plan.hoist and options.hoisting)
        descriptor.multilevel_inner = bool(plan.multilevel_inner
                                           and options.multilevel)
        descriptor.fp_reg = ir.new_reg()
        descriptor.iter_reg = ir.new_reg()

        # -- slot layout ----------------------------------------------------
        slots = _SlotAllocator()
        invariant_slots = {reg: slots.alloc() for reg in invariants}
        general_slots = {reg: slots.alloc() for reg in generals}
        inductor_slots = {info.reg: slots.alloc() for info in inductors}
        resetable_specs = []
        for info in resetables:
            spec = ResetableSpec(info.reg, slots.alloc(), slots.alloc(),
                                 info.step_imm)
            resetable_specs.append(spec)
        descriptor.resetables = resetable_specs
        descriptor.general_slots = dict(general_slots)

        sync_plan = plan.sync if options.sync_locks else None
        sync_local_reg = None
        if sync_plan is not None and sync_plan.local_slot is not None:
            # Map the profiled (loop, slot) back to the carried local reg.
            slot_index = sync_plan.local_slot[1]
            ordered_general = sorted(
                reg for reg, info in kinds.items()
                if info.kind == KIND_GENERAL and reg in general_slots)
            if slot_index < len(ordered_general):
                sync_local_reg = ordered_general[slot_index]
            else:
                sync_plan = None
        # Commit to the lock only if WAITLOCK/SIGNAL can actually be
        # placed (single once-per-iteration region); otherwise fall back
        # to plain communication for the variable.
        sync_points = None
        if sync_plan is not None:
            sync_points = self._plan_sync_points(
                cfg, loop, sync_plan, sync_local_reg, general_slots, kinds)
            if sync_points is None:
                sync_plan = None
                sync_local_reg = None
        if sync_plan is not None:
            descriptor.sync_lock_off = slots.alloc()
        self._sync_points = sync_points

        # -- init / exit value plumbing -----------------------------------------
        for reg, off in invariant_slots.items():
            descriptor.init_values.append((off, reg))
        for reg, off in general_slots.items():
            descriptor.init_values.append((off, reg))
        for info in inductors:
            descriptor.init_values.append((inductor_slots[info.reg],
                                           info.reg))
        for spec in resetable_specs:
            descriptor.init_values.append((spec.slot_value, spec.reg))
            descriptor.init_consts.append((spec.slot_iter, 0))
        if descriptor.sync_lock_off is not None:
            descriptor.init_consts.append((descriptor.sync_lock_off, 0))

        # Exit values: generals come from their stack slot (last
        # committed def-site store); inductors and reset-ables come from
        # the exiting thread's register file — publishing them through
        # speculative exit-path stores would violate every thread whose
        # cold init read the slot.
        for reg in generals:
            if reg in live_at_exits:
                descriptor.exit_values.append(
                    (reg, ("slot", general_slots[reg])))
        for reg in ([info.reg for info in inductors]
                    + [spec.reg for spec in resetable_specs]):
            if reg in live_at_exits:
                descriptor.exit_values.append((reg, ("reg", reg)))

        for info in reductions:
            tmp = ir.new_reg()
            descriptor.reductions.append(ReductionSpec(
                info.reg, tmp, info.reduce_op, info.identity, info.is_float,
                mask=info.mask))

        descriptor.frame_words = slots.next_off // WORD

        # -- build thread code --------------------------------------------------
        self._build_thread_code(descriptor, cfg, loop, invariant_slots,
                                general_slots, inductors, inductor_slots,
                                resetable_specs, kinds, sync_plan,
                                sync_local_reg, exit_succs)

        # -- rewrite the host method ----------------------------------------------
        self._rewrite_host(descriptor, cfg, loop, exit_succs)
        ir.stls[plan.loop_id] = descriptor
        return descriptor

    # ------------------------------------------------------------------
    def _build_thread_code(self, descriptor, cfg, loop, invariant_slots,
                           general_slots, inductors, inductor_slots,
                           resetable_specs, kinds, sync_plan,
                           sync_local_reg, exit_succs):
        ir = self.ir
        config = self.config
        options = self.options
        fp = descriptor.fp_reg
        iter_reg = descriptor.iter_reg
        code = []

        warm_label = Label("warm")
        eoi_label = Label("eoi")
        exit_labels = {succ: Label("exit%d" % k)
                       for k, succ in enumerate(exit_succs)}
        exit_ids = {succ: k for k, succ in enumerate(exit_succs)}
        descriptor.num_exits = len(exit_succs)

        def emit(op, **kw):
            instr = IRInstr(op, **kw)
            code.append(instr)
            return instr

        # ---- cold entry: runs at startup and after a violation ----
        if options.invariant_regalloc:
            for reg, off in invariant_slots.items():
                emit(IROp.LW, dst=reg, a=fp, imm=off)
        for info in inductors:
            self._emit_inductor_cold(emit, info, inductor_slots[info.reg],
                                     fp, iter_reg)
        for spec in resetable_specs:
            # r = slot_value + (iteration - slot_iter) * step
            t = ir.new_reg()
            emit(IROp.LW, dst=spec.reg, a=fp, imm=spec.slot_value)
            emit(IROp.LW, dst=t, a=fp, imm=spec.slot_iter)
            emit(IROp.SUB, dst=t, a=iter_reg, b=t)
            if spec.step != 1:
                step_reg = ir.new_reg()
                emit(IROp.LI, dst=step_reg, imm=spec.step)
                emit(IROp.MUL, dst=t, a=t, b=step_reg)
            emit(IROp.ADD, dst=spec.reg, a=spec.reg, b=t)
        # Reduction accumulators are NOT initialized here: they hold the
        # CPU's committed partial across restarts, so the runtime seeds
        # them once at startup (a cold re-init would lose partials).

        # ---- warm entry: runs at every thread start ----
        code.append(label_instr(warm_label))
        if not options.invariant_regalloc:
            for reg, off in invariant_slots.items():
                emit(IROp.LW, dst=reg, a=fp, imm=off)
        # Forced loads of communicated locals (paper §4.1) — only locals
        # the body actually *reads*; write-only live-outs need no load.
        read_in_body = self._reads_in_loop
        for reg, off in general_slots.items():
            if reg == sync_local_reg:
                continue            # loaded inside the synchronized region
            if reg in read_in_body:
                emit(IROp.LW, dst=reg, a=fp, imm=off)
        for spec in descriptor.reductions:
            emit(IROp.LI, dst=spec.tmp_reg, imm=spec.identity)

        # ---- body: cloned loop blocks ----
        self._clone_body(code, cfg, loop, descriptor, general_slots,
                         resetable_specs, kinds, sync_plan, sync_local_reg,
                         eoi_label, exit_labels)

        # ---- EOI ----
        # General carried locals are stored at their natural def sites
        # inside the body (forced stores), not here: an unconditional
        # EOI store would manufacture dependencies for locals the
        # iteration never actually wrote.
        code.append(label_instr(eoi_label))
        for info in inductors:
            self._emit_inductor_advance(code, info)
        for spec in resetable_specs:
            extra = config.num_cpus - 1
            if extra:
                code.append(IRInstr(IROp.ADDI, dst=spec.reg, a=spec.reg,
                                    imm=spec.step * extra))
        code.append(IRInstr(IROp.STL_EOI_END))

        # ---- exits ----
        # Nothing is stored here: general slots already hold the latest
        # committed def-site store, and inductor finals are published by
        # the runtime from the exiting thread's registers.
        for succ in exit_succs:
            code.append(label_instr(exit_labels[succ]))
            code.append(IRInstr(IROp.STL_EXIT, aux=exit_ids[succ]))

        thread_code, positions = finalize_with_positions(code)
        descriptor.thread_code = thread_code
        descriptor.warm_entry = positions[warm_label]
        descriptor.nregs = ir.nregs

    def _emit_inductor_cold(self, emit, info, slot, fp, iter_reg):
        """r = base + iteration * step (paper Fig. 5 right column)."""
        ir = self.ir
        reg = info.reg
        base = ir.new_reg()
        emit(IROp.LW, dst=base, a=fp, imm=slot)
        t = ir.new_reg()
        if info.is_float:
            emit(IROp.I2F, dst=t, a=iter_reg)
            step = self._step_operand(emit, info, float_ok=True)
            emit(IROp.FMUL, dst=t, a=t, b=step)
            emit(IROp.FADD, dst=reg, a=base, b=t)
        else:
            step = self._step_operand(emit, info, float_ok=False)
            emit(IROp.MUL, dst=t, a=iter_reg, b=step)
            emit(IROp.ADD, dst=reg, a=base, b=t)

    def _step_operand(self, emit, info, float_ok):
        if info.step_reg is not None:
            return info.step_reg
        t = self.ir.new_reg()
        emit(IROp.LI, dst=t, imm=info.step_imm)
        return t

    def _emit_inductor_advance(self, code, info):
        """At EOI the body already stepped once; add (num_cpus-1) more
        steps so the register holds the value for iteration i+N."""
        extra = self.config.num_cpus - 1
        if extra == 0:
            return
        ir = self.ir
        reg = info.reg
        if info.step_reg is None and not info.is_float:
            code.append(IRInstr(IROp.ADDI, dst=reg, a=reg,
                                imm=info.step_imm * extra))
            return
        t = ir.new_reg()
        if info.step_imm is not None:
            code.append(IRInstr(IROp.LI, dst=t,
                                imm=(float(info.step_imm * extra)
                                     if info.is_float
                                     else info.step_imm * extra)))
            step_total = t
        else:
            count = ir.new_reg()
            if info.is_float:
                code.append(IRInstr(IROp.LI, dst=count, imm=float(extra)))
                code.append(IRInstr(IROp.FMUL, dst=t, a=info.step_reg,
                                    b=count))
            else:
                code.append(IRInstr(IROp.LI, dst=count, imm=extra))
                code.append(IRInstr(IROp.MUL, dst=t, a=info.step_reg,
                                    b=count))
            step_total = t
        op = IROp.FADD if info.is_float else IROp.ADD
        code.append(IRInstr(op, dst=reg, a=reg, b=step_total))

    # ------------------------------------------------------------------
    def _clone_body(self, code, cfg, loop, descriptor, general_slots,
                    resetable_specs, kinds, sync_plan, sync_local_reg,
                    eoi_label, exit_labels):
        ir = self.ir
        fp = descriptor.fp_reg
        header = loop.header
        blocks = sorted(loop.blocks,
                        key=lambda bid: (bid != header,
                                         cfg.blocks[bid].start))
        thread_label = {bid: Label("b%d" % bid) for bid in blocks}
        reset_site_ids = {}
        for spec, info in zip(resetable_specs,
                              [kinds[s.reg] for s in resetable_specs]):
            for site in info.reset_sites:
                reset_site_ids[id(site)] = spec
        reduction_subst = {spec.acc_reg: spec.tmp_reg
                           for spec in descriptor.reductions}

        sync_points = self._sync_points if sync_plan is not None else None

        for bid in blocks:
            block = cfg.blocks[bid]
            code.append(label_instr(thread_label[bid]))
            for instr in block.instrs:
                key = id(instr)
                if sync_points and key in sync_points.get("before", ()):
                    code.append(IRInstr(IROp.WAITLOCK,
                                        imm=descriptor.sync_lock_off))
                    if sync_local_reg is not None:
                        code.append(IRInstr(
                            IROp.LW, dst=sync_local_reg, a=fp,
                            imm=general_slots[sync_local_reg]))
                clone = self._clone_instr(instr, reduction_subst)
                if clone.is_branch():
                    clone.target = self._map_target(
                        cfg, loop, clone.target, thread_label, eoi_label,
                        exit_labels)
                code.append(clone)
                # Forced store at the natural def site of a communicated
                # local (paper §4.1): only iterations that really write
                # the variable create the inter-thread dependency.
                dst = clone.defs()
                if dst is not None and dst in general_slots \
                        and dst != sync_local_reg:
                    code.append(IRInstr(IROp.SW, a=dst, b=fp,
                                        imm=general_slots[dst]))
                if key in reset_site_ids:
                    code.append(IRInstr(IROp.FORCE_RESET,
                                        aux=reset_site_ids[key]))
                if sync_points and key in sync_points.get("after", ()):
                    if sync_local_reg is not None:
                        code.append(IRInstr(
                            IROp.SW, a=sync_local_reg, b=fp,
                            imm=general_slots[sync_local_reg]))
                    code.append(IRInstr(IROp.SIGNAL,
                                        imm=descriptor.sync_lock_off))
            # Materialize the fallthrough edge explicitly.
            term = block.terminator()
            falls = term is None or not (
                term.op == IROp.J
                or term.op in (IROp.RET, IROp.TRAP))
            if falls:
                succ = bid + 1
                if succ < len(cfg.blocks) and succ in cfg.blocks[bid].succs:
                    target = self._edge_label(loop, succ, thread_label,
                                              eoi_label, exit_labels)
                    code.append(IRInstr(IROp.J, target=target))

    def _map_target(self, cfg, loop, label, thread_label, eoi_label,
                    exit_labels):
        bid = cfg.label_map[label]
        return self._edge_label(loop, bid, thread_label, eoi_label,
                                exit_labels)

    def _edge_label(self, loop, bid, thread_label, eoi_label, exit_labels):
        if bid == loop.header:
            return eoi_label
        if bid in loop.blocks:
            return thread_label[bid]
        return exit_labels[bid]

    def _clone_instr(self, instr, reduction_subst):
        """Clone an instruction, substituting reduction accumulators by
        their per-thread temporaries everywhere (the classification
        guarantees the accumulator only appears inside its chain)."""
        clone = IRInstr(instr.op, instr.dst, instr.a, instr.b, instr.imm,
                        instr.target, instr.aux,
                        list(instr.args) if instr.args else None, instr.line)
        if reduction_subst:
            if clone.dst in reduction_subst:
                clone.dst = reduction_subst[clone.dst]
            if clone.a in reduction_subst:
                clone.a = reduction_subst[clone.a]
            if clone.b in reduction_subst:
                clone.b = reduction_subst[clone.b]
            if clone.args:
                clone.args = [reduction_subst.get(reg, reg)
                              for reg in clone.args]
        return clone

    # ------------------------------------------------------------------
    def _plan_sync_points(self, cfg, loop, sync_plan, sync_local_reg,
                          general_slots, kinds):
        """Decide where WAITLOCK / SIGNAL go.  Returns {"before": {ids},
        "after": {ids}} or None if the sync lock cannot be placed."""
        if sync_plan is None:
            return None
        dom = cfg.dominators
        tails = [tail for tail, __ in loop.backedges]

        def once(bid):
            return all(bid in dom[tail] for tail in tails)

        if sync_local_reg is not None:
            # Region = [first touch, last def] of the protected local.
            # Every touch must be in a once-per-iteration block; such
            # blocks all dominate the backedge tails, so they form a
            # dominance chain and the region is well ordered.
            touches_by_block = {}
            for bid in loop.blocks:
                for instr in cfg.blocks[bid].instrs:
                    if sync_local_reg in instr.uses() \
                            or instr.defs() == sync_local_reg:
                        touches_by_block.setdefault(bid, []).append(instr)
            if not touches_by_block:
                return None
            if not all(once(bid) for bid in touches_by_block):
                return None
            ordered = sorted(touches_by_block,
                             key=lambda bid: len(dom[bid]))
            for first, second in zip(ordered, ordered[1:]):
                if first not in dom[second]:
                    return None     # not a dominance chain
            first_block = ordered[0]
            # SIGNAL goes after the dynamically-last def; touches after
            # it can only be reads of the already-loaded register.
            last_def = None
            for bid in reversed(ordered):
                for instr in touches_by_block[bid]:
                    if instr.defs() == sync_local_reg:
                        last_def = instr
                if last_def is not None:
                    break
            if last_def is None:
                return None
            return {"before": {id(touches_by_block[first_block][0])},
                    "after": {id(last_def)}}

        # Heap dependency: match profiled sites (method, line, op, imm).
        load_instr = store_instr = None
        load_bid = store_bid = None
        for bid in loop.blocks:
            for instr in cfg.blocks[bid].instrs:
                key = (self.ir.name, instr.line, int(instr.op), instr.imm)
                if load_instr is None and key == sync_plan.load_site:
                    load_instr, load_bid = instr, bid
                if key == sync_plan.store_site:
                    store_instr, store_bid = instr, bid
        if load_instr is None or store_instr is None:
            return None
        if not (once(load_bid) and once(store_bid)):
            return None
        return {"before": {id(load_instr)}, "after": {id(store_instr)}}

    # ------------------------------------------------------------------
    def _rewrite_host(self, descriptor, cfg, loop, exit_succs):
        ir = self.ir
        exit_reg = ir.new_reg()
        stl_label = Label("stl%d" % descriptor.stl_id)

        inserts = []
        # Exit targets need labels the dispatch can jump to.
        exit_target_labels = {}
        for succ in exit_succs:
            block = cfg.blocks[succ]
            if block.labels:
                exit_target_labels[succ] = block.labels[0]
            else:
                label = Label()
                block.labels.append(label)
                cfg.label_map[label] = succ
                inserts.append((block.start, [label_instr(label)]))
                exit_target_labels[succ] = label

        # Retarget entry edges to the STL stub.
        for tail_id, head_id in loop.entries:
            tail = cfg.blocks[tail_id]
            term = tail.terminator()
            if term is not None and term.is_branch() \
                    and cfg.label_map.get(term.target) == head_id:
                term.target = stl_label
            else:
                inserts.append((tail.end,
                                [IRInstr(IROp.J, target=stl_label)]))

        # Append the stub: STL_RUN + exit dispatch.
        stub = [label_instr(stl_label),
                IRInstr(IROp.STL_RUN, dst=exit_reg, aux=descriptor)]
        for k, succ in enumerate(exit_succs[1:], start=1):
            t = ir.new_reg()
            stub.append(IRInstr(IROp.LI, dst=t, imm=k))
            stub.append(IRInstr(IROp.BEQ, a=exit_reg, b=t,
                                target=exit_target_labels[succ]))
        if exit_succs:
            stub.append(IRInstr(IROp.J,
                                target=exit_target_labels[exit_succs[0]]))
        else:
            # A loop with no exits can only be left via exception.
            stub.append(IRInstr(IROp.TRAP, aux="InfiniteLoop"))

        by_pos = {}
        for pos, instrs in inserts:
            by_pos.setdefault(pos, []).extend(instrs)
        new_code = []
        for pos, instr in enumerate(ir.code):
            if pos in by_pos:
                new_code.extend(by_pos[pos])
            new_code.append(instr)
        tail_pos = len(ir.code)
        if tail_pos in by_pos:
            new_code.extend(by_pos[tail_pos])
        new_code.extend(stub)
        ir.code = new_code


def recompile_with_stls(program, config, plans, options=None):
    """Recompile *program* turning every planned loop into an STL.

    *plans* maps loop_id -> StlPlan (from the selector).  Returns a
    CompiledProgram in "tls" mode whose methods contain STL_RUN regions.
    """
    from .compiler import (CompiledMethod, CompiledProgram,
                           translated_methods)
    from .translate import StaticLayout
    from ..hydra.config import STATICS_BASE

    options = options or StlOptions()
    program.seal()
    layout = StaticLayout(program, STATICS_BASE)
    compiled = CompiledProgram(program, layout, config, "tls")
    compiled.selected_stls = dict(plans)

    plans_by_method = {}
    for plan in plans.values():
        if plan.multilevel_inner and not options.multilevel:
            continue        # ablation: no multilevel decompositions
        plans_by_method.setdefault(plan.meta.method_name, []).append(plan)

    for method, ir_method in translated_methods(program, layout):
        method_plans = plans_by_method.get(method.qualified_name)
        if method_plans:
            _transform_method(ir_method, config, method_plans, options)
        compiled.add(CompiledMethod(ir_method, method.owner.name,
                                    method.name))
        compiled.compile_cycles += (config.recompile_cycles_per_bytecode
                                    * len(method.code))
    return compiled


def _transform_method(ir_method, config, method_plans, options):
    """Apply STL transforms innermost-first using stable header labels."""
    cfg, ordered = identify_loops(ir_method)
    by_ordinal = {ordinal: loop for ordinal, loop in ordered}
    labeled = []
    pending_label_inserts = []
    for plan in sorted(method_plans, key=lambda p: -p.meta.depth):
        loop = by_ordinal.get(plan.meta.ordinal)
        if loop is None:
            continue
        header_block = cfg.blocks[loop.header]
        if header_block.labels:
            label = header_block.labels[0]
        else:
            label = Label()
            header_block.labels.append(label)
            pending_label_inserts.append((header_block.start, label))
        labeled.append((label, plan))
    # Apply label inserts from the highest position down so earlier
    # positions stay valid.
    for pos, label in sorted(pending_label_inserts, key=lambda x: -x[0]):
        ir_method.code.insert(pos, label_instr(label))

    compiler = StlCompiler(ir_method, config, options)
    for label, plan in labeled:
        compiler.transform(label, plan)
        # Drop the now-unreachable original loop body so later sibling
        # transforms (and the executable) don't carry dead clones.
        _prune_unreachable(ir_method)


def _prune_unreachable(ir_method):
    from .cfg import reachable_blocks
    cfg = build_cfg(ir_method.code)
    reachable = reachable_blocks(cfg)
    if len(reachable) == len(cfg.blocks):
        return
    keep = [False] * len(ir_method.code)
    for block in cfg.blocks:
        if block.bid in reachable:
            for pos in range(block.start, block.end):
                keep[pos] = True
    ir_method.code = [instr for pos, instr in enumerate(ir_method.code)
                      if keep[pos]]
