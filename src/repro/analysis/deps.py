"""Loop-carried dependence classification over the microJIT's IR.

For every natural loop the pass answers two questions, each on the
``absent < may < must`` lattice (:mod:`repro.analysis.model`):

* **carried locals** — which locals carry values between iterations,
  and do they follow a compiler-eliminable pattern (induction,
  reduction, resetable) or genuinely communicate (`general`)?
* **memory dependences** — which static-field / instance-field / array
  (store, load) pairs can form a loop-carried RAW arc, at what
  iteration distance?

A cost model then bounds the speedup a loop's must-dependences allow.

The pass owns no CFG, loop finder or pattern matcher of its own.  It
reads the IR that :func:`repro.jit.compiler.translated_methods` builds
for the compiles, takes loops and ordinals from
:func:`repro.jit.annotate.identify_loops`, carried-local kinds from
:func:`repro.jit.patterns.classify_carried_locals`, and once-blocks,
defs, uses and dominators from :class:`repro.jit.patterns._LoopFacts`:
the very facts the TEST annotator and the STL recompiler act on.

Values are block-local expression trees built from each register's
reaching definition in its block; a register not defined earlier in
the block reads as ``("entry", reg)``.  Cross-block ordering questions
are answered structurally over the loop's *intra-iteration* subgraph
(the loop body minus its own back edges): ``A`` *must precede* ``B``
when ``A`` is earlier in the same block or its block dominates ``B``'s;
``A`` *may precede* ``B`` when some forward path leads from ``A`` to
``B``.  Blocks that dominate every back-edge tail and sit in no inner
loop execute **exactly once per iteration** ("once-blocks") — the
anchor for every `must` claim.
"""

from ..bytecode.module import HEADER_BYTES, WORD
from ..hydra.config import STATICS_BASE
from ..jit.annotate import header_line, identify_loops
from ..jit.compiler import translated_methods
from ..jit.ir import IROp
from ..jit.patterns import _LoopFacts, classify_carried_locals
from ..jit.translate import StaticLayout
from .model import (ABSENT, AnalysisReport, CarriedRegister, Dependence,
                    KIND_GENERAL, KIND_INDUCTOR, LoopAnalysis, MAY, MUST)

#: Per-IR-op cost weights for the static speedup bound (arbitrary
#: units; only ratios matter).  Memory traffic and calls dominate.
_OP_COST = {
    IROp.DIV: 8, IROp.REM: 8, IROp.FDIV: 8, IROp.FREM: 8,
    IROp.LW: 3, IROp.SW: 3,
    IROp.CALL: 20, IROp.CALLV: 20,
    IROp.MONENTER: 10, IROp.MONEXIT: 10,
    IROp.INTRIN: 4, IROp.ALLOC: 6,
}

_CALL_OPS = frozenset({IROp.CALL, IROp.CALLV, IROp.MONENTER,
                       IROp.MONEXIT})

#: Integer IR ops an index expression may be built from.
_ARITH = {IROp.ADD: "add", IROp.SUB: "sub", IROp.MUL: "mul",
          IROp.SHL: "shl"}

#: Dictionary key holding the constant term of a linear form.
CONST = ("const",)


class _Access:
    """One heap access: array element, instance field or static field.

    ``target`` names the location for field and static kinds; ``base``
    and ``index`` are expression trees (``None`` where not applicable).
    """

    __slots__ = ("instr", "kind", "is_store", "base", "index", "target")

    def __init__(self, instr, kind, is_store, base=None, index=None,
                 target=None):
        self.instr = instr
        self.kind = kind
        self.is_store = is_store
        self.base = base
        self.index = index
        self.target = target


class _ProgramNames:
    """Names of the memory locations the translator lowers to numbers:
    static fields (absolute addresses) and instance fields (offsets)."""

    def __init__(self, program, layout):
        self.statics = {addr: "%s.%s" % key
                        for key, addr in layout.field_addr.items()}
        by_offset = {}
        for cls in program.classes.values():
            for field in cls.fields.values():
                if not field.is_static:
                    by_offset.setdefault(field.offset, set()).add(
                        "%s.%s" % (cls.name, field.name))
        #: an offset several fields share is named by the offset
        self.fields = {offset: (names.pop() if len(names) == 1
                                else "field@%d" % offset)
                       for offset, names in by_offset.items()}


class _LoopContext:
    """Structural and value facts about one loop of one IR method."""

    def __init__(self, ir_method, cfg, loop, all_loops, positions, names):
        facts = _LoopFacts(cfg, loop, all_loops)
        self.facts = facts
        self.cfg = cfg
        self.loop = loop
        self.positions = positions
        self.once = facts.once_blocks
        self.method = ir_method.name
        self.num_locals = ir_method.num_locals
        self.instrs = sorted((instr for bid in loop.blocks
                              for instr in cfg.blocks[bid].instrs),
                             key=self.pos)
        backs = set(loop.backedges)
        succs = {bid: [s for s in cfg.blocks[bid].succs
                       if s in loop.blocks and (bid, s) not in backs]
                 for bid in loop.blocks}
        self.reach = self._reachability(succs)
        self.accesses = {}          # id(instr) -> _Access
        for instr in self.instrs:
            access = self._access(instr, names)
            if access is not None:
                self.accesses[id(instr)] = access
        self.static_store_targets = {
            acc.target for acc in self.accesses.values()
            if acc.kind == "static" and acc.is_store}
        self.field_store_targets = {
            acc.target for acc in self.accesses.values()
            if acc.kind == "field" and acc.is_store}

    def pos(self, instr):
        """The instruction's index in the method's executable code."""
        return self.positions[id(instr)]

    def block(self, instr):
        """The id of the block holding *instr*."""
        return self.facts.block_of[id(instr)]

    def defs(self, reg):
        """In-loop defs of *reg*, in code order."""
        return sorted(self.facts.defs_by_reg.get(reg, ()), key=self.pos)

    def uses(self, reg):
        """In-loop uses of *reg*, in code order."""
        return sorted(self.facts.uses_by_reg.get(reg, ()), key=self.pos)

    @staticmethod
    def _reachability(succs):
        """``reach[A]`` = blocks reachable from A via ≥1 subgraph edge."""
        reach = {}
        for start in succs:
            seen = set()
            stack = list(succs[start])
            while stack:
                bid = stack.pop()
                if bid in seen:
                    continue
                seen.add(bid)
                stack.extend(succs[bid])
            reach[start] = seen
        return reach

    # -- intra-iteration ordering -----------------------------------------
    def must_precede(self, first, second):
        """Every iteration executes *first* before *second* — same block
        earlier, or *first*'s block dominates *second*'s."""
        block_a, block_b = self.block(first), self.block(second)
        if block_a == block_b:
            return self.pos(first) < self.pos(second)
        return block_a in self.facts.dom[block_b]

    def may_precede(self, first, second):
        """Some iteration may execute *first* before *second* — forward
        reachability, including inner-loop cycles."""
        block_a, block_b = self.block(first), self.block(second)
        if block_a == block_b and self.pos(first) < self.pos(second):
            return True
        return block_b in self.reach[block_a]

    def is_once(self, instr):
        """*instr* executes exactly once per iteration."""
        return self.block(instr) in self.once

    # -- block-local values -------------------------------------------------
    def value(self, reg, consumer):
        """Expression tree of *reg* as *consumer* reads it."""
        feeder = self.facts.local_reaching_def(consumer, reg)
        if feeder is None:
            return ("entry", reg)
        op = feeder.op
        if op == IROp.LI:
            return ("const", feeder.imm)
        if op == IROp.MOV:
            return self.value(feeder.a, feeder)
        if op == IROp.ADDI:
            return ("add", self.value(feeder.a, feeder),
                    ("const", feeder.imm))
        if op == IROp.SLLI:
            return ("shl", self.value(feeder.a, feeder),
                    ("const", feeder.imm))
        if op == IROp.NEG:
            return ("neg", self.value(feeder.a, feeder))
        if op in _ARITH:
            return (_ARITH[op], self.value(feeder.a, feeder),
                    self.value(feeder.b, feeder))
        access = self.accesses.get(id(feeder))
        if access is not None and access.kind == "static":
            return ("static", access.target)
        if access is not None and access.kind == "field":
            return ("field", access.base, access.target)
        if op == IROp.ALLOC and feeder.aux.is_array:
            return ("alloc", self.pos(feeder))
        return ("opaque", self.pos(feeder))

    # -- memory accesses, read off the translator's lowering --------------
    def _access(self, instr, names):
        """The heap access *instr* performs, or ``None``.

        Statics are absolute (``a``/``b`` is ``None``); a field access
        follows the ``NULLCHK`` of its base; an array element access
        is the ``LW``/``SW imm=HEADER_BYTES`` after its ``BOUNDCHK``,
        whose index and length operands lead back to the array."""
        op = instr.op
        if op == IROp.LW:
            base, is_store = instr.a, False
        elif op == IROp.SW:
            base, is_store = instr.b, True
        else:
            return None
        if base is None:
            return _Access(instr, "static", is_store,
                           target=names.statics[instr.imm])
        block = self.cfg.blocks[self.block(instr)].instrs
        index = self.facts.index_in_block[id(instr)]
        before = block[index - 1] if index else None
        if before is not None and before.op == IROp.NULLCHK \
                and before.a == base:
            if instr.imm == WORD:
                return None                 # array length
            return _Access(instr, "field", is_store,
                           base=self.value(base, instr),
                           target=names.fields[instr.imm])
        if instr.imm != HEADER_BYTES:
            return None
        for check in reversed(block[:index]):
            if check.op == IROp.BOUNDCHK:
                length = self.facts.local_reaching_def(check, check.b)
                return _Access(instr, "array", is_store,
                               base=self.value(length.a, length),
                               index=self.value(check.a, check))
        return None


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------

def linearize(expr):
    """Reduce an integer expression to a linear form, or ``None``.

    The form is ``{basis_term: coeff, CONST: k}`` where basis terms are
    ``("entry", reg)`` block-entry register values.  Anything
    non-linear (products of variables, float constants, heap reads)
    returns ``None``.
    """
    tag = expr[0]
    if tag == "const":
        value = expr[1]
        if not isinstance(value, int) or isinstance(value, bool):
            return None
        return {CONST: value}
    if tag == "entry":
        return {expr: 1, CONST: 0}
    if tag == "neg":
        return _scale(linearize(expr[1]), -1)
    if tag in ("add", "sub"):
        left, right = linearize(expr[1]), linearize(expr[2])
        if left is None or right is None:
            return None
        return _combine(left, right, -1 if tag == "sub" else 1)
    if tag == "mul":
        left, right = linearize(expr[1]), linearize(expr[2])
        if left is not None and _is_const(left):
            return _scale(right, left[CONST])
        if right is not None and _is_const(right):
            return _scale(left, right[CONST])
        return None
    if tag == "shl":
        right = linearize(expr[2])
        if right is not None and _is_const(right) \
                and 0 <= right[CONST] < 31:
            return _scale(linearize(expr[1]), 1 << right[CONST])
    return None


def _is_const(form):
    return all(term == CONST or coeff == 0
               for term, coeff in form.items())


def _scale(form, factor):
    if form is None:
        return None
    return {term: coeff * factor for term, coeff in form.items()}


def _combine(left, right, sign):
    out = dict(left)
    out.setdefault(CONST, 0)
    for term, coeff in right.items():
        out[term] = out.get(term, 0) + sign * coeff
    return {term: coeff for term, coeff in out.items()
            if term == CONST or coeff != 0}


# ---------------------------------------------------------------------------
# dependence classification
# ---------------------------------------------------------------------------

def _local_of(reg):
    """The bytecode local a local register holds (``r1 + v`` is ``v``)."""
    return reg - 1


def _local_dependence(ctx, reg):
    """Carried dependence through a `general` local, or ``None`` when
    every loop read is preceded by a same-iteration write."""
    defs = ctx.defs(reg)
    uses = ctx.uses(reg)
    exposed = [u for u in uses
               if not any(ctx.must_precede(d, u) for d in defs)]
    if not exposed:
        return None
    once_defs = [d for d in defs if ctx.is_once(d)]
    verdict = MAY
    load = exposed[0]
    for u in exposed:
        unconditional = ctx.is_once(u) and not any(
            ctx.may_precede(d, u) for d in defs)
        if unconditional and once_defs:
            verdict = MUST
            load = u
            break
    store = once_defs[0] if once_defs else defs[-1]
    reason = ("read of the previous iteration's value on every path"
              if verdict == MUST
              else "value may flow across iterations on some path")
    local = _local_of(reg)
    return _dependence(ctx, "local", verdict, "l%d" % local, store, load,
                       distance=1, local=local, reason=reason)


def _dependence(ctx, kind, classification, target, store, load,
                **fields):
    """A :class:`Dependence` anchored at two IR instructions."""
    return Dependence(
        kind, classification, target,
        store_pc=ctx.pos(store),
        load_pc=ctx.pos(load) if load is not None else None,
        store_line=store.line,
        load_line=load.line if load is not None else None, **fields)


def _scalar_memory_dependence(ctx, kind, stores, loads, label):
    """Static-field (or field-through-invariant-base) classification:
    the location behaves like a shared scalar, distance 1."""
    uncovered = [l for l in loads
                 if not any(ctx.must_precede(s.instr, l.instr)
                            for s in stores)]
    store = min(stores, key=lambda s: (not ctx.is_once(s.instr),
                                       ctx.pos(s.instr)))
    if not uncovered:
        return _dependence(
            ctx, kind, ABSENT, label, store.instr, None, distance=1,
            reason="every read is preceded by a same-iteration write")
    verdict = MAY
    load = uncovered[0]
    once_stores = [s for s in stores if ctx.is_once(s.instr)]
    for l in uncovered:
        unconditional = ctx.is_once(l.instr) and not any(
            ctx.may_precede(s.instr, l.instr) for s in stores)
        if unconditional and once_stores:
            verdict = MUST
            load = l
            break
    reason = ("read-modify-write of a shared location every iteration"
              if verdict == MUST
              else "shared location read and written on some paths")
    return _dependence(ctx, kind, verdict, label, store.instr, load.instr,
                       distance=1, reason=reason)


def _root_of(ctx, expr):
    """Loop-invariant root of a base expression, or ``None`` (opaque).

    Roots: ``("reg", r)`` for registers not written in the loop,
    ``("static", name)`` / ``("field", base_root, name)`` for fields not
    stored inside the loop, ``("alloc", pos)`` for arrays allocated
    inside the current iteration.
    """
    tag = expr[0]
    if tag == "entry":
        if expr[1] in ctx.facts.defined_in_loop:
            return None
        return ("reg", expr[1])
    if tag == "static":
        if expr[1] in ctx.static_store_targets:
            return None
        return expr
    if tag == "field":
        if expr[2] in ctx.field_store_targets:
            return None
        base = _root_of(ctx, expr[1])
        if base is None:
            return None
        return ("field", base, expr[2])
    if tag == "alloc":
        return expr
    return None


def _root_name(ctx, root):
    """Human-readable name of a base root."""
    if root is None:
        return "?"
    tag = root[0]
    if tag == "reg":
        reg = root[1]
        if 1 <= reg <= ctx.num_locals:
            return "l%d" % _local_of(reg)
        return "r%d" % reg
    if tag == "static":
        return root[1]
    if tag == "field":
        return "%s.%s" % (_root_name(ctx, root[1]),
                          root[2].rsplit(".", 1)[-1])
    return "new@%d" % root[1]


def _normalized_index(ctx, inductor, step, acc):
    """``(coeff, offset, invariants)`` of an array index as an affine
    function of the inductor *at iteration start*, or ``None`` when
    non-affine or when a conditional step makes the offset
    indeterminate.

    The linear form is relative to the access's block entry; crossing
    the inductor's step def shifts the frame by ``coeff * step``.
    """
    form = linearize(acc.index)
    if form is None:
        return None
    coeff = 0
    offset = form.get(CONST, 0)
    invariant = {}
    for term, c in form.items():
        if term == CONST or c == 0:
            continue
        if term == ("entry", inductor):
            coeff = c
        elif term[1] not in ctx.facts.defined_in_loop:
            invariant[term] = c
        else:
            return None             # depends on another in-loop value
    if coeff != 0:
        (sdef,) = ctx.defs(inductor)
        if ctx.block(sdef) != ctx.block(acc.instr):
            if ctx.block(sdef) in ctx.facts.dom[ctx.block(acc.instr)]:
                offset += coeff * step
            elif ctx.may_precede(sdef, acc.instr):
                return None         # step may or may not have happened
    return (coeff, offset, tuple(sorted(invariant.items())))


def _array_dependences(ctx, inductor, step):
    """Classify every (array store, array load) pair in the loop."""
    accesses = [acc for acc in ctx.accesses.values()
                if acc.kind == "array"]
    stores = [acc for acc in accesses if acc.is_store]
    loads = [acc for acc in accesses if not acc.is_store]
    deps = []
    for s in stores:
        s_root = _root_of(ctx, s.base)
        for l in loads:
            deps.append(_array_pair(ctx, inductor, step, s, s_root, l,
                                    _root_of(ctx, l.base)))
    return deps


def _array_pair(ctx, inductor, step, s, s_root, l, l_root):
    """One store/load pair on the lattice (see docs/analysis.md)."""
    label = "%s[]" % _root_name(ctx, s_root)

    def dep(classification, distance, reason):
        return _dependence(ctx, "array", classification, label, s.instr,
                           l.instr, distance=distance, reason=reason)

    if s_root is None or l_root is None:
        return dep(MAY, None, "unresolved array base may alias")
    if s_root != l_root:
        return dep(MAY, None, "distinct array bases may alias")
    if s_root[0] == "alloc":
        return dep(ABSENT, None,
                   "array is allocated fresh every iteration")
    s_idx = _normalized_index(ctx, inductor, step, s)
    l_idx = _normalized_index(ctx, inductor, step, l)
    if s_idx is None or l_idx is None:
        return dep(MAY, None, "array index is not affine in the "
                              "loop inductor")
    (sc, so, s_inv), (lc, lo, l_inv) = s_idx, l_idx
    if s_inv != l_inv or sc != lc:
        return dep(MAY, None, "incomparable affine index shapes")
    if sc == 0:
        if so != lo:
            return dep(ABSENT, None,
                       "loop-invariant indices address distinct "
                       "elements")
        return _scalar_memory_dependence(ctx, "array", [s], [l], label)
    advance = sc * step
    delta = so - lo
    if advance == 0 or delta % advance != 0:
        return dep(ABSENT, None,
                   "index offsets never coincide across iterations")
    distance = delta // advance
    if distance <= 0:
        return dep(ABSENT, None,
                   "the read runs ahead of the write "
                   "(distance %d)" % distance)
    if ctx.is_once(s.instr) and ctx.is_once(l.instr):
        return dep(MUST, distance,
                   "recurrence a[i] <- a[i-%d] on every iteration"
                   % distance)
    return dep(MAY, distance,
               "recurrence at distance %d on some paths" % distance)


def _named_dependences(ctx, kind):
    """Classify static-field (*kind* ``static``) or instance-field
    (``field``) store/load groups, one per named location."""
    by_target = {}
    for acc in ctx.accesses.values():
        if acc.kind == kind:
            by_target.setdefault(acc.target, []).append(acc)
    deps = []
    for target, accs in sorted(by_target.items()):
        stores = [a for a in accs if a.is_store]
        loads = [a for a in accs if not a.is_store]
        if not stores or not loads:
            continue
        roots = ({_root_of(ctx, a.base) for a in accs}
                 if kind == "field" else {kind})
        if None in roots or len(roots) != 1:
            deps.append(_dependence(
                ctx, "field", MAY, target, stores[0].instr,
                loads[0].instr, distance=1,
                reason="field bases may alias across iterations"))
        else:
            deps.append(_scalar_memory_dependence(ctx, kind, stores,
                                                  loads, target))
    return deps


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def _cost(instrs):
    """Cost-weighted size of an instruction set."""
    return sum(_OP_COST.get(instr.op, 1) for instr in instrs)


def _dependence_span(ctx, dep):
    """Cost of the serial chain one must-dependence imposes per
    iteration: the region from its load to its (next-iteration) store,
    divided by the iteration distance."""
    load_pc, store_pc = dep.load_pc, dep.store_pc
    if load_pc is None or store_pc is None:
        return 0
    if load_pc <= store_pc:
        span = [i for i in ctx.instrs if load_pc <= ctx.pos(i) <= store_pc]
    else:
        span = [i for i in ctx.instrs
                if not store_pc < ctx.pos(i) < load_pc]
    return _cost(span) / max(1, dep.distance or 1)


def _apply_cost_model(ctx, analysis, threshold):
    """Fill body/dep costs and the speedup bound for one loop."""
    analysis.body_cost = _cost(ctx.instrs)
    spans = [_dependence_span(ctx, dep) for dep in analysis.must_deps()]
    analysis.max_dep_cost = max(spans) if spans else 0
    if analysis.max_dep_cost > 0:
        analysis.speedup_bound = round(
            analysis.body_cost / analysis.max_dep_cost, 3)
        if analysis.classification == MUST \
                and analysis.speedup_bound < threshold:
            analysis.pruned = True
            analysis.prune_reason = (
                "static: must-dependence chain bounds speedup at "
                "%.2fx < %.2fx" % (analysis.speedup_bound, threshold))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def analyze_loop(ctx, ordinal, kinds, threshold):
    """Run the full classification for one loop context; *kinds* are
    the loop's carried locals as the annotator classifies them."""
    loop = ctx.loop
    analysis = LoopAnalysis(ctx.method, ordinal,
                            header_line(ctx.cfg, loop), loop.depth)
    analysis.has_calls = any(instr.op in _CALL_OPS
                             for instr in ctx.instrs)
    inductor, step = None, None
    for reg, info in sorted(kinds.items()):
        analysis.carried.append(CarriedRegister(
            _local_of(reg), info.kind, step=info.step_imm))
        if info.kind == KIND_INDUCTOR and inductor is None \
                and isinstance(info.step_imm, int) and not info.is_float:
            inductor, step = reg, info.step_imm
        if info.kind == KIND_GENERAL:
            dep = _local_dependence(ctx, reg)
            if dep is not None:
                analysis.deps.append(dep)

    memory_deps = (_named_dependences(ctx, "static")
                   + _named_dependences(ctx, "field")
                   + _array_dependences(ctx, inductor, step or 0))
    if analysis.has_calls:
        for dep in memory_deps:
            if dep.classification == ABSENT:
                dep.classification = MAY
                dep.reason += "; loop body calls out, so the claim "\
                              "cannot be strengthened"
    analysis.deps.extend(memory_deps)

    analysis.finalize()
    _apply_cost_model(ctx, analysis, threshold)
    return analysis


def analyze_method(ir_method, names, threshold=1.2):
    """Analyze every natural loop of one method's IR.

    Returns ``[LoopAnalysis]`` in ordinal order.
    """
    cfg, ordered = identify_loops(ir_method)
    if not ordered:
        return []
    positions = {}
    for instr in ir_method.code:
        if instr.op != IROp.LABEL:
            positions[id(instr)] = len(positions)
    all_loops = [loop for __, loop in ordered]
    results = []
    for ordinal, loop in ordered:
        kinds = classify_carried_locals(cfg, loop, ir_method.num_locals,
                                        all_loops)
        ctx = _LoopContext(ir_method, cfg, loop, all_loops, positions,
                           names)
        results.append(analyze_loop(ctx, ordinal, kinds, threshold))
    return results


def analyze_program(program, threshold=1.2):
    """Analyze every method; returns an
    :class:`~repro.analysis.model.AnalysisReport`."""
    program.seal()
    layout = StaticLayout(program, STATICS_BASE)
    names = _ProgramNames(program, layout)
    report = AnalysisReport(threshold=threshold)
    for __, ir_method in translated_methods(program, layout):
        report.methods_analyzed += 1
        report.loops.extend(analyze_method(ir_method, names,
                                           threshold=threshold))
    return report
