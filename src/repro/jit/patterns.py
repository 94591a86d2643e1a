"""Static classification of loop-carried locals (paper §4.2.2–4.2.5).

The STL compiler can eliminate the inter-thread communication of three
kinds of carried locals:

* **inductors** — stepped by a loop-constant amount exactly once per
  iteration; each CPU computes its own value locally (non-communicating
  loop inductors, §4.2.2),
* **reset-able inductors** — look like inductors but are occasionally
  written unpredictably; handled with a forced violation on reset
  (§4.2.3),
* **reductions** — only ever combined with one associative operator
  (sum, product, and/or/xor, min/max); computed privately per CPU and
  merged at commit/shutdown (§4.2.5).

Everything else is a **general** carried local that must travel through
memory ($fp-relative loads/stores) and can cause RAW violations.

The annotator uses the same classification to eliminate unnecessary
lwl/swl annotations: TEST does not measure dependencies the recompiler
is guaranteed to remove.
"""

from .ir import IROp

#: Associative/commutative reduction operators and their identities.
REDUCTION_OPS = {
    IROp.ADD: ("add", 0),
    IROp.FADD: ("fadd", 0.0),
    IROp.MUL: ("mul", 1),
    IROp.FMUL: ("fmul", 1.0),
    IROp.AND: ("and", -1),
    IROp.OR: ("or", 0),
    IROp.XOR: ("xor", 0),
}

#: min/max reductions arrive as INTRIN imin/imax/fmin/fmax calls.
REDUCTION_INTRINSIC_IDENTITY = {
    "imin": 2147483647,
    "imax": -2147483648,
    "fmin": float("inf"),
    "fmax": float("-inf"),
}

KIND_INDUCTOR = "inductor"
KIND_RESETABLE = "resetable"
KIND_REDUCTION = "reduction"
KIND_GENERAL = "general"


class CarriedLocal:
    """Classification result for one loop-carried local register."""

    __slots__ = ("reg", "kind", "step_imm", "step_reg", "is_float",
                 "reduce_op", "identity", "reset_sites", "step_instr",
                 "mask")

    def __init__(self, reg, kind, step_imm=None, step_reg=None,
                 is_float=False, reduce_op=None, identity=None,
                 reset_sites=None, step_instr=None, mask=None):
        self.reg = reg
        self.kind = kind
        self.step_imm = step_imm
        self.step_reg = step_reg
        self.is_float = is_float
        self.reduce_op = reduce_op          # "add"|"fadd"|...|"addmask"|...
        self.identity = identity
        self.reset_sites = reset_sites or []
        self.step_instr = step_instr
        self.mask = mask                    # for "addmask": (a+b) & mask

    def __repr__(self):
        extra = ""
        if self.step_imm is not None:
            extra = " step=%r" % self.step_imm
        elif self.step_reg is not None:
            extra = " step=r%d" % self.step_reg
        if self.reduce_op:
            extra += " op=%s" % self.reduce_op
        return "<r%d %s%s>" % (self.reg, self.kind, extra)

    def to_dict(self):
        """JSON-safe dict of the classification facts.

        ``step_instr``/``reset_sites`` are live IR-instruction handles
        consumed by the recompiler only; they are intentionally dropped
        — a deserialized CarriedLocal describes a finished run and is
        never fed back into :mod:`repro.jit.stl`.
        """
        identity = self.identity
        if isinstance(identity, float) and (identity != identity
                                            or identity in (float("inf"),
                                                            float("-inf"))):
            identity = repr(identity)       # JSON has no inf/nan literals
        return {"reg": self.reg, "kind": self.kind,
                "step_imm": self.step_imm, "step_reg": self.step_reg,
                "is_float": self.is_float, "reduce_op": self.reduce_op,
                "identity": identity, "mask": self.mask}

    @staticmethod
    def from_dict(data):
        identity = data["identity"]
        if isinstance(identity, str):
            identity = float(identity)
        return CarriedLocal(
            data["reg"], data["kind"], step_imm=data["step_imm"],
            step_reg=data["step_reg"], is_float=data["is_float"],
            reduce_op=data["reduce_op"], identity=identity,
            mask=data["mask"])


class _LoopFacts:
    """Shared context for classifying one loop's carried locals."""

    def __init__(self, cfg, loop, all_loops=None):
        self.cfg = cfg
        self.loop = loop
        self.block_of = {}          # id(instr) -> bid
        self.index_in_block = {}    # id(instr) -> position within block
        self.defs_by_reg = {}       # any reg -> [instr] (defs inside loop)
        self.uses_by_reg = {}
        for bid in loop.blocks:
            for index, instr in enumerate(cfg.blocks[bid].instrs):
                self.block_of[id(instr)] = bid
                self.index_in_block[id(instr)] = index
                dst = instr.defs()
                if dst is not None:
                    self.defs_by_reg.setdefault(dst, []).append(instr)
                for reg in instr.uses():
                    self.uses_by_reg.setdefault(reg, []).append(instr)
        self.defined_in_loop = set(self.defs_by_reg)
        self._live_out = None
        # Blocks executing exactly once per iteration: in this loop, in
        # no strictly-nested loop, and dominating every backedge tail.
        inner_blocks = set()
        for other in (all_loops or []):
            if other is not loop and other.blocks < loop.blocks:
                inner_blocks |= set(other.blocks)
        self.dom = dom = cfg.dominators
        tails = [tail for tail, __ in loop.backedges]
        self.once_blocks = {
            bid for bid in loop.blocks
            if bid not in inner_blocks
            and all(bid in dom[tail] for tail in tails)
        }

    def once_per_iteration(self, instr):
        return self.block_of.get(id(instr)) in self.once_blocks

    # -- block-local value tracking ---------------------------------------
    # Stack-slot registers are reused for every expression, so global
    # single-def checks are useless; resolve feeders within the block.
    def live_out(self, bid):
        if self._live_out is None:
            from .optimize import liveness
            __, self._live_out = liveness(self.cfg)
        return self._live_out[bid]

    def local_reaching_def(self, consumer, reg):
        """The latest def of *reg* before *consumer* in the same block."""
        bid = self.block_of.get(id(consumer))
        if bid is None:
            return None
        instrs = self.cfg.blocks[bid].instrs
        for index in range(self.index_in_block[id(consumer)] - 1, -1, -1):
            if instrs[index].defs() == reg:
                return instrs[index]
        return None

    def local_private_feeder(self, consumer, reg):
        """Like local_reaching_def, but additionally require that the
        value flows *only* into *consumer*: no other use between the def
        and the consumer, no use after it before a redefinition, and
        dead at block end if never redefined."""
        bid = self.block_of.get(id(consumer))
        if bid is None:
            return None
        instrs = self.cfg.blocks[bid].instrs
        cidx = self.index_in_block[id(consumer)]
        feeder = None
        fidx = None
        for index in range(cidx - 1, -1, -1):
            if instrs[index].defs() == reg:
                feeder = instrs[index]
                fidx = index
                break
        if feeder is None:
            return None
        for index in range(fidx + 1, cidx):
            if reg in instrs[index].uses() or instrs[index].defs() == reg:
                return None
        if consumer.defs() == reg:
            # The consumer overwrites the register: the fed value
            # cannot escape past it.
            return feeder
        for index in range(cidx + 1, len(instrs)):
            if reg in instrs[index].uses():
                return None
            if instrs[index].defs() == reg:
                return feeder
        if reg in self.live_out(bid):
            return None
        return feeder

    def loop_constant_step(self, instr):
        """If *instr* steps its dst by a loop-constant amount, return
        (step_imm, step_reg, is_float); else None.

        Handles both the direct form (``ADDI r, r, k``) and the MOV form
        the translator sometimes leaves (``ADD t, r, k; MOV r, t``).
        """
        reg = instr.dst
        step = self._direct_step(instr, reg)
        if step is not None:
            return step
        if instr.op == IROp.MOV:
            # The temp need not be private (the body is kept as-is for
            # inductors) — but reg must not be clobbered between the
            # step computation and the MOV.
            buried = self.local_reaching_def(instr, instr.a)
            if buried is not None and self.once_per_iteration(buried) \
                    and not self._defined_between(buried, instr, reg):
                return self._direct_step(buried, reg, dst=instr.a)
        return None

    def _defined_between(self, first, second, reg):
        bid = self.block_of.get(id(first))
        if bid is None or bid != self.block_of.get(id(second)):
            return True
        instrs = self.cfg.blocks[bid].instrs
        lo = self.index_in_block[id(first)] + 1
        hi = self.index_in_block[id(second)]
        return any(instrs[k].defs() == reg for k in range(lo, hi))

    def _direct_step(self, instr, reg, dst=None):
        dst = instr.dst if dst is None else dst
        if instr.dst != dst:
            return None
        if instr.op == IROp.ADDI and instr.a == reg:
            return (instr.imm, None, False)
        if instr.op in (IROp.ADD, IROp.FADD):
            if instr.a == reg and instr.b != reg:
                other = instr.b
            elif instr.b == reg and instr.a != reg:
                other = instr.a
            else:
                return None
            is_float = instr.op == IROp.FADD
            if other not in self.defs_by_reg:
                # Step register is loop-invariant.
                return (None, other, is_float)
            reaching = self.local_reaching_def(instr, other)
            if reaching is not None and reaching.op == IROp.LI:
                return (reaching.imm, None, is_float)
        return None


def classify_carried_locals(cfg, loop, num_locals, all_loops=None):
    """Classify every carried local of *loop*.

    Returns {reg: CarriedLocal} for locals (regs 1..num_locals) that are
    both defined and used inside the loop.
    """
    facts = _LoopFacts(cfg, loop, all_loops)
    local_limit = num_locals + 1
    carried = {}
    for reg in sorted(facts.defined_in_loop & set(facts.uses_by_reg)):
        if not 1 <= reg < local_limit:
            continue
        carried[reg] = _classify(facts, reg)
    return carried


def _classify(facts, reg):
    def_list = facts.defs_by_reg[reg]
    use_list = facts.uses_by_reg[reg]

    step_defs = []
    other_defs = []
    for instr in def_list:
        step = facts.loop_constant_step(instr)
        if step is not None and facts.once_per_iteration(instr):
            step_defs.append((instr, step))
        else:
            other_defs.append(instr)

    if len(step_defs) == 1 and not other_defs:
        instr, (imm, step_reg, is_float) = step_defs[0]
        return CarriedLocal(reg, KIND_INDUCTOR, step_imm=imm,
                            step_reg=step_reg, is_float=is_float,
                            step_instr=instr)

    reduction = _classify_reduction(facts, reg, def_list, use_list)
    if reduction is not None:
        return reduction

    if len(step_defs) == 1 and other_defs:
        instr, (imm, step_reg, is_float) = step_defs[0]
        if not is_float and imm is not None:
            # Reset-able non-communicating inductor (§4.2.3).  Restrict
            # to integer immediate steps; anything fancier is general.
            return CarriedLocal(reg, KIND_RESETABLE, step_imm=imm,
                                reset_sites=other_defs, step_instr=instr)
    return CarriedLocal(reg, KIND_GENERAL)


def _accumulate_name(instr, reg, dst):
    """Name of the associative op if *instr* computes ``dst = reg op x``."""
    if instr.dst != dst:
        return None
    if instr.op in REDUCTION_OPS and ((instr.a == reg) != (instr.b == reg)):
        return REDUCTION_OPS[instr.op][0]
    if instr.op == IROp.ADDI and instr.a == reg:
        return "add"
    if instr.op == IROp.INTRIN \
            and instr.aux in REDUCTION_INTRINSIC_IDENTITY \
            and instr.args and instr.args.count(reg) == 1:
        return instr.aux
    return None


def _classify_reduction(facts, reg, def_list, use_list):
    """A reduction: every def combines reg with an independent value via
    one associative operator, and reg is used nowhere else in the loop.

    Recognizes ``ADD r, r, x``, the MOV form ``ADD t, r, x; MOV r, t``
    (with t used only by that MOV), and masked-add accumulation
    ``r = (r + x) & M`` with M = 2^k - 1 (addition mod 2^k is
    associative, so checksum-style accumulators parallelize).
    """
    op_seen = None
    mask_seen = None
    chain_ids = set()           # instructions allowed to use reg
    for instr in def_list:
        name = None
        mask = None
        direct = _accumulate_name(instr, reg, reg)
        if direct is not None:
            name = direct
            chain_ids.add(id(instr))
        else:
            target = instr
            extra_ids = [id(instr)]
            if instr.op == IROp.MOV:
                buried = facts.local_private_feeder(instr, instr.a)
                if buried is None:
                    return None
                target = buried
                extra_ids.append(id(buried))
            buried_name = _accumulate_name(target, reg, target.dst)
            if buried_name is not None and target is not instr:
                name = buried_name
            else:
                masked = _masked_add(facts, reg, target)
                if masked is None:
                    return None
                name, mask, masked_ids = masked
                extra_ids.extend(masked_ids)
            chain_ids.update(extra_ids)
        if op_seen not in (None, name):
            return None
        if name == "addmask":
            if mask_seen not in (None, mask):
                return None
            mask_seen = mask
        op_seen = name
    if op_seen is None:
        return None
    # Every use of reg must be inside the accumulation chain.
    for instr in use_list:
        if id(instr) not in chain_ids:
            return None
    identity = _identity_for(op_seen)
    return CarriedLocal(
        reg, KIND_REDUCTION, reduce_op=op_seen, identity=identity,
        mask=mask_seen,
        is_float=op_seen in ("fadd", "fmul", "fmin", "fmax"))


def _add_chain_instrs(facts, reg, instr, depth=5):
    """Match a tree of private ADD/ADDI temps computing ``reg + ...``.

    Returns the chain's instruction list (containing *reg* as an
    operand exactly once) or None.
    """
    if depth == 0:
        return None
    if instr.op == IROp.ADDI:
        if instr.a == reg:
            return [instr]
        feeder = facts.local_private_feeder(instr, instr.a)
        if feeder is None:
            return None
        sub = _add_chain_instrs(facts, reg, feeder, depth - 1)
        return [instr] + sub if sub else None
    if instr.op == IROp.ADD:
        if instr.a == reg and instr.b == reg:
            return None
        if (instr.a == reg) != (instr.b == reg):
            return [instr]
        for operand in (instr.a, instr.b):
            feeder = facts.local_private_feeder(instr, operand)
            if feeder is not None:
                sub = _add_chain_instrs(facts, reg, feeder, depth - 1)
                if sub:
                    return [instr] + sub
        return None
    return None


def _masked_add(facts, reg, instr):
    """Match ``dst = (reg + x [+ y ...]) & M`` with M = 2^k - 1.

    Returns ("addmask", M, [chain instr ids]) or None.  The mask must be
    resolvable to an LI constant so its value is statically known.
    """
    if instr.op != IROp.AND:
        return None
    for add_reg, mask_reg in ((instr.a, instr.b), (instr.b, instr.a)):
        mask_def = facts.local_reaching_def(instr, mask_reg)
        if mask_def is None or mask_def.op != IROp.LI:
            continue
        mask = mask_def.imm
        if not isinstance(mask, int) or mask <= 0 or (mask & (mask + 1)):
            continue        # not 2^k - 1
        adder = facts.local_private_feeder(instr, add_reg)
        if adder is None:
            continue
        chain = _add_chain_instrs(facts, reg, adder)
        if chain is None:
            continue
        # The accumulator must appear exactly once across the chain,
        # or the per-thread substitution would double-count it.
        references = sum((1 if c.a == reg else 0) + (1 if c.b == reg else 0)
                         for c in chain)
        if references != 1:
            continue
        return ("addmask", mask, [id(c) for c in chain])
    return None


def _identity_for(op_name):
    if op_name in REDUCTION_INTRINSIC_IDENTITY:
        return REDUCTION_INTRINSIC_IDENTITY[op_name]
    if op_name == "addmask":
        return 0
    for __, (name, identity) in REDUCTION_OPS.items():
        if name == op_name:
            return identity
    raise KeyError(op_name)


def merge_reduction(op_name, left, right, mask=None):
    """Merge two partial reduction values (used by the TLS runtime)."""
    from ..bytecode.instructions import i32
    if op_name == "addmask":
        return i32((left + right) & mask)
    if op_name == "add":
        return i32(left + right)
    if op_name == "fadd":
        return left + right
    if op_name == "mul":
        return i32(left * right)
    if op_name == "fmul":
        return left * right
    if op_name == "and":
        return i32(left & right)
    if op_name == "or":
        return i32(left | right)
    if op_name == "xor":
        return i32(left ^ right)
    if op_name in ("imin", "fmin"):
        return min(left, right)
    if op_name in ("imax", "fmax"):
        return max(left, right)
    raise KeyError(op_name)
