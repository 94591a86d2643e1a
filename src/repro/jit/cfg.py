"""Control-flow graph, dominators and natural loops over label-form IR.

The microJIT derives a CFG from compiled code to identify every natural
loop; each natural loop becomes a prospective speculative thread loop
(STL) exactly as in paper section 3.2 ("All natural loops identified
from the CFG are marked as prospective STLs").
"""

import functools

from ..errors import JitError
from .ir import COND_IR_BRANCHES, IR_TERMINATORS, IROp


class Block:
    __slots__ = ("bid", "labels", "instrs", "succs", "preds", "start", "end")

    def __init__(self, bid):
        self.bid = bid
        self.labels = []      # Label objects naming this block
        self.instrs = []      # IRInstr refs (shared with method.code)
        self.succs = []
        self.preds = []
        self.start = None     # index in the code list of the first element
        self.end = None       # index just past the last element

    def terminator(self):
        return self.instrs[-1] if self.instrs else None

    def __repr__(self):
        return "B%d" % self.bid


class Loop:
    """A natural loop: header block plus the body block set."""

    __slots__ = ("header", "blocks", "backedges", "parent", "depth",
                 "loop_id", "entries", "exits")

    def __init__(self, header, blocks, backedges):
        self.header = header          # block id
        self.blocks = blocks          # frozenset of block ids
        self.backedges = backedges    # list of (tail block id, header)
        self.parent = None            # enclosing Loop or None
        self.depth = 1
        self.loop_id = None
        self.entries = []             # (pred block id outside, header)
        self.exits = []               # (block id in loop, succ id outside)

    def contains(self, other):
        return other.blocks < self.blocks

    def __repr__(self):
        return "<Loop hdr=B%d depth=%d blocks=%d>" % (
            self.header, self.depth, len(self.blocks))


class CFG:
    def __init__(self, blocks, label_map, entry=0):
        self.blocks = blocks
        self.label_map = label_map    # Label -> block id
        self.entry = entry

    @functools.cached_property
    def dominators(self):
        """:func:`compute_dominators`, once: the block graph is fixed
        when :func:`build_cfg` returns (rewrites build a new CFG)."""
        return compute_dominators(self)

    def __len__(self):
        return len(self.blocks)


def build_cfg(code):
    """Partition label-form IR into basic blocks and wire edges."""
    # Pass 1: find leaders.  A new block starts at each LABEL and after
    # each terminator/branch.  Consecutive labels share one block.
    blocks = []
    label_map = {}
    current = None

    def ensure_block():
        nonlocal current
        if current is None:
            current = Block(len(blocks))
            blocks.append(current)
        return current

    for pos, instr in enumerate(code):
        if instr.op == IROp.LABEL:
            if current is not None and current.instrs:
                current = None     # previous block falls through here
            block = ensure_block()
            if block.start is None:
                block.start = pos
            block.end = pos + 1
            block.labels.append(instr.aux)
            label_map[instr.aux] = block.bid
        else:
            block = ensure_block()
            if block.start is None:
                block.start = pos
            block.end = pos + 1
            block.instrs.append(instr)
            if instr.op in IR_TERMINATORS or instr.op in COND_IR_BRANCHES:
                current = None

    # Pass 2: successors.
    for index, block in enumerate(blocks):
        term = block.terminator()
        if term is None:
            # Empty block (labels only): falls through.
            if index + 1 < len(blocks):
                block.succs.append(index + 1)
            continue
        op = term.op
        if op == IROp.J:
            block.succs.append(label_map[_label_of(term.target)])
        elif op in COND_IR_BRANCHES:
            block.succs.append(label_map[_label_of(term.target)])
            if index + 1 < len(blocks):
                block.succs.append(index + 1)
        elif op in IR_TERMINATORS:
            pass  # RET / TRAP / STL_EOI_END / STL_EXIT: no successors
        else:
            if index + 1 < len(blocks):
                block.succs.append(index + 1)
    for block in blocks:
        for succ in block.succs:
            blocks[succ].preds.append(block.bid)
    return CFG(blocks, label_map)


def _label_of(target):
    if target is None:
        raise JitError("branch without a target in label-form IR")
    return target


def reachable_blocks(cfg):
    """Block ids reachable from the entry."""
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        bid = stack.pop()
        for succ in cfg.blocks[bid].succs:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def compute_dominators(cfg):
    """Iterative dominator computation; returns list of frozensets.

    Unreachable blocks get an empty dominator set — otherwise their
    never-updated "everything dominates me" initialization manufactures
    fake natural loops out of dead code left by STL rewrites.
    """
    nblocks = len(cfg.blocks)
    reachable = reachable_blocks(cfg)
    all_blocks = frozenset(reachable)
    dom = [all_blocks if bid in reachable else frozenset()
           for bid in range(nblocks)]
    dom[cfg.entry] = frozenset([cfg.entry])
    # Reverse-postorder would converge faster; simple iteration is fine
    # at our method sizes.
    changed = True
    while changed:
        changed = False
        for bid in range(nblocks):
            if bid == cfg.entry or bid not in reachable:
                continue
            preds = [p for p in cfg.blocks[bid].preds if p in reachable]
            if not preds:
                continue
            new = None
            for pred in preds:
                new = dom[pred] if new is None else (new & dom[pred])
            new = (new or frozenset()) | {bid}
            if new != dom[bid]:
                dom[bid] = new
                changed = True
    return dom


def find_natural_loops(cfg):
    """Identify natural loops [Muchnick]; merges loops sharing a header.

    Unreachable code (dead blocks left by STL host rewrites) is ignored
    entirely: it can neither define loops nor belong to their bodies.
    """
    dom = cfg.dominators
    reachable = reachable_blocks(cfg)
    loops_by_header = {}
    for block in cfg.blocks:
        if block.bid not in reachable:
            continue
        for succ in block.succs:
            if succ in dom[block.bid]:
                # backedge block.bid -> succ
                body = _loop_body(cfg, succ, block.bid, reachable)
                loop = loops_by_header.get(succ)
                if loop is None:
                    loops_by_header[succ] = Loop(succ, body,
                                                 [(block.bid, succ)])
                else:
                    loop.blocks = loop.blocks | body
                    loop.backedges.append((block.bid, succ))
    loops = sorted(loops_by_header.values(), key=lambda l: len(l.blocks))
    _assign_nesting(loops)
    for loop in loops:
        _compute_edges(cfg, loop)
    return loops


def _loop_body(cfg, header, tail, reachable):
    body = {header, tail}
    stack = [tail]
    while stack:
        bid = stack.pop()
        if bid == header:
            continue
        for pred in cfg.blocks[bid].preds:
            if pred not in body and pred in reachable:
                body.add(pred)
                stack.append(pred)
    return frozenset(body)


def _assign_nesting(loops):
    # loops sorted by size ascending: parent = smallest strictly-larger
    # loop containing this one.
    for index, loop in enumerate(loops):
        for candidate in loops[index + 1:]:
            if loop.blocks <= candidate.blocks and loop is not candidate:
                if loop.blocks == candidate.blocks:
                    continue
                loop.parent = candidate
                break
    for loop in loops:
        depth = 1
        parent = loop.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        loop.depth = depth


def _compute_edges(cfg, loop):
    loop.entries = []
    loop.exits = []
    for pred in cfg.blocks[loop.header].preds:
        if pred not in loop.blocks:
            loop.entries.append((pred, loop.header))
    for bid in loop.blocks:
        for succ in cfg.blocks[bid].succs:
            if succ not in loop.blocks:
                loop.exits.append((bid, succ))


def loop_nest_depth(loops):
    return max((loop.depth for loop in loops), default=0)
