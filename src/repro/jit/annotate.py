"""TEST annotation pass (paper §3.2, Table 2, Figure 3).

Every natural loop without an obvious serializing construct becomes a
prospective STL.  The pass inserts:

* ``SLOOP n`` on each loop-entry edge (allocates *n* local-variable
  timestamp slots),
* ``EOI`` on each backedge (thread boundary),
* ``ELOOP`` on each loop-exit edge (frees the bank, reads statistics),
* ``LWL``/``SWL`` around reads/writes of loop-carried candidate locals.

Loops are identified by a stable ordinal within their method so the STL
recompiler (which re-translates from bytecode) can find the same loop.
"""

from ..vm import intrinsics
from .cfg import build_cfg, find_natural_loops
from .ir import ANNOTATION_STUB, IRInstr, IROp, Label, label_instr
from .patterns import KIND_GENERAL, classify_carried_locals


class LoopMeta:
    """Static facts about one prospective STL."""

    __slots__ = ("loop_id", "method_name", "ordinal", "depth", "parent_id",
                 "body_size", "carried_slots", "candidate", "reject_reason",
                 "line", "num_slots", "carried_kinds")

    def __init__(self, loop_id, method_name, ordinal, depth, body_size,
                 carried_slots, candidate, reject_reason, line,
                 carried_kinds=None):
        self.loop_id = loop_id
        self.method_name = method_name
        self.ordinal = ordinal
        self.depth = depth
        self.parent_id = None
        self.body_size = body_size
        self.carried_slots = carried_slots   # local reg -> slot index
        self.candidate = candidate
        self.reject_reason = reject_reason
        self.line = line
        self.num_slots = len(carried_slots)
        self.carried_kinds = carried_kinds or {}   # reg -> CarriedLocal

    def __repr__(self):
        return "<LoopMeta %d %s#%d depth=%d%s>" % (
            self.loop_id, self.method_name, self.ordinal, self.depth,
            "" if self.candidate else " (rejected: %s)" % self.reject_reason)

    def to_dict(self):
        """JSON-safe dict (carried-local classifications included)."""
        return {
            "loop_id": self.loop_id,
            "method_name": self.method_name,
            "ordinal": self.ordinal,
            "depth": self.depth,
            "parent_id": self.parent_id,
            "body_size": self.body_size,
            "carried_slots": {str(reg): slot for reg, slot
                              in self.carried_slots.items()},
            "candidate": self.candidate,
            "reject_reason": self.reject_reason,
            "line": self.line,
            "carried_kinds": {str(reg): info.to_dict() for reg, info
                              in self.carried_kinds.items()},
        }

    @staticmethod
    def from_dict(data):
        from .patterns import CarriedLocal
        meta = LoopMeta(
            data["loop_id"], data["method_name"], data["ordinal"],
            data["depth"], data["body_size"],
            {int(reg): slot for reg, slot
             in data["carried_slots"].items()},
            data["candidate"], data["reject_reason"], data["line"],
            carried_kinds={int(reg): CarriedLocal.from_dict(info)
                           for reg, info in data["carried_kinds"].items()})
        meta.parent_id = data["parent_id"]
        return meta


def identify_loops(ir_method):
    """Find natural loops with stable ordinals.

    Returns (cfg, [(ordinal, Loop)]) ordered by position of the header.
    Ordinals are deterministic across recompilations because the
    translate+optimize pipeline is deterministic.
    """
    cfg = build_cfg(ir_method.code)
    loops = find_natural_loops(cfg)
    keyed = sorted(loops, key=lambda lp: (cfg.blocks[lp.header].start,
                                          len(lp.blocks)))
    return cfg, list(enumerate(keyed))


def header_line(cfg, loop):
    """Source line of the loop header's first instruction that has one
    (the line :class:`LoopMeta` keys loops by)."""
    for instr in cfg.blocks[loop.header].instrs:
        if instr.line is not None:
            return instr.line
    return None


def loop_instructions(cfg, loop):
    for bid in loop.blocks:
        for instr in cfg.blocks[bid].instrs:
            yield instr


def serializing_reason(cfg, loop):
    """Why this loop cannot be a candidate STL, or None if it can.

    Paper §6.1: loops with system calls in critical code (here: output
    intrinsics) cannot be speculated; loops containing a method return
    have an irregular exit we do not decompose.
    """
    for instr in loop_instructions(cfg, loop):
        if instr.op == IROp.INTRIN and intrinsics.lookup(instr.aux).is_output:
            return "system call in loop body"
        if instr.op == IROp.RET:
            return "method return inside loop"
        if instr.op == IROp.STL_RUN:
            return "contains an STL region"
    return None


def carried_locals(cfg, loop, num_locals, all_loops=None):
    """Annotation slots for the loop's carried locals.

    Returns (slots, kinds): ``slots`` maps only *general* carried locals
    (those the recompiler cannot optimize away) to lwl/swl slot indices;
    inductors, reset-able inductors and reductions produce no
    annotations ("compiler optimizations to eliminate unnecessary
    annotations", paper §3.2).  ``kinds`` maps every carried local to
    its :class:`CarriedLocal` classification.
    """
    kinds = classify_carried_locals(cfg, loop, num_locals, all_loops)
    general = sorted(reg for reg, info in kinds.items()
                     if info.kind == KIND_GENERAL)
    slots = {reg: slot for slot, reg in enumerate(general)}
    return slots, kinds


class Annotator:
    """Applies the annotation pass to one IR method."""

    def __init__(self, ir_method, loop_table, loop_id_counter):
        self.ir = ir_method
        self.loop_table = loop_table        # global: loop_id -> LoopMeta
        self.counter = loop_id_counter      # single-element list

    def annotate(self):
        cfg, ordered = identify_loops(self.ir)
        if not ordered:
            return []
        inserts = []        # (position, [instrs]) applied in one rebuild
        appends = []        # stub blocks appended at the end
        metas = []
        loop_by_obj = {}
        for ordinal, loop in ordered:
            loop_id = self.counter[0]
            self.counter[0] += 1
            reason = serializing_reason(cfg, loop)
            all_loops = [lp for __, lp in ordered]
            slots, kinds = carried_locals(cfg, loop, self.ir.num_locals,
                                          all_loops)
            body_size = sum(len(cfg.blocks[bid].instrs)
                            for bid in loop.blocks)
            meta = LoopMeta(loop_id, self.ir.name, ordinal, loop.depth,
                            body_size, slots, reason is None, reason,
                            header_line(cfg, loop), carried_kinds=kinds)
            self.loop_table[loop_id] = meta
            metas.append(meta)
            loop_by_obj[id(loop)] = meta

        # Parent links (loops ordered smallest-first by find_natural_loops
        # are re-ordered here, so match via the Loop.parent pointers).
        for __, loop in ordered:
            meta = loop_by_obj[id(loop)]
            if loop.parent is not None:
                meta.parent_id = loop_by_obj[id(loop.parent)].loop_id

        for __, loop in ordered:
            meta = loop_by_obj[id(loop)]
            if not meta.candidate:
                continue
            self._annotate_loop(cfg, loop, meta, inserts, appends)

        self._rebuild(inserts, appends)
        return metas

    # -- edge annotation -------------------------------------------------------
    def _annotate_loop(self, cfg, loop, meta, inserts, appends):
        for edge in loop.entries:
            self._annotate_edge(cfg, edge, IRInstr(
                IROp.SLOOP, imm=meta.num_slots, aux=meta.loop_id),
                inserts, appends)
        for edge in loop.backedges:
            self._annotate_edge(cfg, edge,
                                IRInstr(IROp.EOI, aux=meta.loop_id),
                                inserts, appends)
        for edge in loop.exits:
            self._annotate_edge(cfg, edge,
                                IRInstr(IROp.ELOOP, aux=meta.loop_id),
                                inserts, appends)
        self._annotate_locals(cfg, loop, meta, inserts)

    def _annotate_edge(self, cfg, edge, ann, inserts, appends):
        tail_id, head_id = edge
        tail = cfg.blocks[tail_id]
        head = cfg.blocks[head_id]
        term = tail.terminator()
        branch_to_head = (term is not None and term.is_branch()
                          and cfg.label_map.get(term.target) == head_id)
        if branch_to_head:
            # Retarget the branch through a stub carrying the annotation.
            stub_label = Label()
            head_label = self._ensure_label(cfg, head, inserts)
            term.target = stub_label
            appends.append([label_instr(stub_label), ann,
                            IRInstr(IROp.J, target=head_label,
                                    aux=ANNOTATION_STUB)])
        else:
            # Fallthrough edge: insert right after the tail block.
            inserts.append((tail.end, [ann]))

    def _ensure_label(self, cfg, block, inserts):
        if block.labels:
            return block.labels[0]
        label = Label()
        block.labels.append(label)
        cfg.label_map[label] = block.bid
        inserts.append((block.start, [label_instr(label)]))
        return label

    # -- local variable annotations ------------------------------------------------
    def _annotate_locals(self, cfg, loop, meta, inserts):
        if not meta.carried_slots:
            return
        positions = {id(instr): pos
                     for pos, instr in enumerate(self.ir.code)}
        slots = meta.carried_slots
        for bid in loop.blocks:
            seen_read = set()
            for instr in cfg.blocks[bid].instrs:
                pos = positions[id(instr)]
                for reg in instr.uses():
                    if reg in slots and reg not in seen_read:
                        seen_read.add(reg)
                        inserts.append((pos, [IRInstr(
                            IROp.LWL, imm=slots[reg], aux=meta.loop_id)]))
                dst = instr.defs()
                if dst in slots:
                    seen_read.add(dst)  # value now locally produced
                    inserts.append((pos + 1, [IRInstr(
                        IROp.SWL, imm=slots[dst], aux=meta.loop_id)]))

    # -- rebuild -----------------------------------------------------------------
    def _rebuild(self, inserts, appends):
        if not inserts and not appends:
            return
        by_pos = {}
        for pos, instrs in inserts:
            by_pos.setdefault(pos, []).extend(instrs)
        new_code = []
        for pos, instr in enumerate(self.ir.code):
            if pos in by_pos:
                new_code.extend(by_pos[pos])
            new_code.append(instr)
        tail_pos = len(self.ir.code)
        if tail_pos in by_pos:
            new_code.extend(by_pos[tail_pos])
        for stub in appends:
            new_code.extend(stub)
        self.ir.code = new_code


def annotate_method(ir_method, loop_table, loop_id_counter):
    """Annotate one method in place; returns its LoopMeta list."""
    return Annotator(ir_method, loop_table, loop_id_counter).annotate()
