"""CFG construction, dominators, and natural-loop detection."""

from repro.hydra.config import HydraConfig
from repro.jit.annotate import identify_loops
from repro.jit.cfg import (build_cfg, compute_dominators, find_natural_loops,
                           loop_nest_depth)
from repro.jit.compiler import compile_program
from repro.jit.ir import IRInstr, IROp, Label, label_instr
from repro.minijava import compile_source

from conftest import wrap_main


def ir_of(src, method="Main.main"):
    program = compile_source(src)
    compiled = compile_program(program, HydraConfig())
    return compiled.methods[method].ir


def test_straight_line_is_one_block():
    code = [IRInstr(IROp.LI, dst=1, imm=1),
            IRInstr(IROp.ADDI, dst=1, a=1, imm=2),
            IRInstr(IROp.RET, a=1)]
    cfg = build_cfg(code)
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].succs == []


def test_branch_splits_blocks():
    target = Label()
    code = [IRInstr(IROp.BEQZ, a=1, target=target),
            IRInstr(IROp.LI, dst=2, imm=1),
            label_instr(target),
            IRInstr(IROp.RET, a=2)]
    cfg = build_cfg(code)
    assert len(cfg.blocks) == 3
    assert sorted(cfg.blocks[0].succs) == [1, 2]
    assert cfg.blocks[1].succs == [2]


def test_dominators_linear_chain():
    target = Label()
    code = [IRInstr(IROp.BEQZ, a=1, target=target),
            IRInstr(IROp.LI, dst=2, imm=1),
            label_instr(target),
            IRInstr(IROp.RET, a=2)]
    cfg = build_cfg(code)
    dom = compute_dominators(cfg)
    assert dom[0] == {0}
    assert 0 in dom[1] and 0 in dom[2]
    assert 1 not in dom[2]    # the join is not dominated by the branch arm


def test_simple_loop_detected():
    ir = ir_of(wrap_main("""
        int s = 0;
        for (int i = 0; i < 10; i++) { s += i; }
        return s;
    """))
    cfg = build_cfg(ir.code)
    loops = find_natural_loops(cfg)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.depth == 1
    assert loop.backedges and loop.entries and loop.exits


def test_nested_loops_have_parent_links():
    ir = ir_of(wrap_main("""
        int s = 0;
        for (int i = 0; i < 4; i++) {
            for (int j = 0; j < 4; j++) { s += i * j; }
        }
        return s;
    """))
    cfg = build_cfg(ir.code)
    loops = find_natural_loops(cfg)
    assert len(loops) == 2
    inner = min(loops, key=lambda lp: len(lp.blocks))
    outer = max(loops, key=lambda lp: len(lp.blocks))
    assert inner.parent is outer
    assert inner.depth == 2 and outer.depth == 1
    assert loop_nest_depth(loops) == 2


def test_triple_nesting_depth():
    ir = ir_of(wrap_main("""
        int s = 0;
        for (int i = 0; i < 2; i++)
            for (int j = 0; j < 2; j++)
                for (int k = 0; k < 2; k++)
                    s++;
        return s;
    """))
    cfg = build_cfg(ir.code)
    loops = find_natural_loops(cfg)
    assert loop_nest_depth(loops) == 3


def test_sibling_loops_not_nested():
    ir = ir_of(wrap_main("""
        int s = 0;
        for (int i = 0; i < 3; i++) { s += i; }
        for (int j = 0; j < 3; j++) { s -= j; }
        return s;
    """))
    cfg = build_cfg(ir.code)
    loops = find_natural_loops(cfg)
    assert len(loops) == 2
    assert all(loop.parent is None for loop in loops)


def test_while_loop_with_break_has_two_exits():
    ir = ir_of(wrap_main("""
        int i = 0;
        while (i < 100) {
            if (i == 7) { break; }
            i++;
        }
        return i;
    """))
    cfg = build_cfg(ir.code)
    loops = find_natural_loops(cfg)
    assert len(loops) == 1
    exit_targets = {succ for __, succ in loops[0].exits}
    assert len(exit_targets) >= 1
    assert len(loops[0].exits) >= 2


def test_do_while_loop_detected():
    ir = ir_of(wrap_main("""
        int i = 0;
        do { i++; } while (i < 5);
        return i;
    """))
    cfg = build_cfg(ir.code)
    loops = find_natural_loops(cfg)
    assert len(loops) == 1


def test_identify_loops_ordinals_are_stable():
    src = wrap_main("""
        int s = 0;
        for (int i = 0; i < 3; i++) { s += i; }
        for (int j = 0; j < 4; j++) { s *= 2; }
        return s;
    """)
    first = identify_loops(ir_of(src))[1]
    second = identify_loops(ir_of(src))[1]
    assert [ordinal for ordinal, __ in first] == \
        [ordinal for ordinal, __ in second]
    starts_a = [loop.header for __, loop in first]
    starts_b = [loop.header for __, loop in second]
    assert starts_a == starts_b


def test_annotated_compile_computes_dominators_once_per_cfg(monkeypatch):
    """Loop finding, each loop's carried-local facts and the STL sync
    planner share one dominator computation per method CFG."""
    from repro.jit import cfg as cfg_module, patterns, stl
    from repro.jit.compiler import compile_annotated
    real = cfg_module.compute_dominators
    seen = []

    def counting(cfg):
        seen.append(cfg)
        return real(cfg)

    for module in (cfg_module, patterns, stl):
        if hasattr(module, "compute_dominators"):
            monkeypatch.setattr(module, "compute_dominators", counting)
    program = compile_source(wrap_main("""
        int t = 0;
        for (int r = 0; r < 3; r++) {
            for (int c = 0; c < 5; c++) { t += r + c; }
            t += grid(r);
        }
        return t;
    """, prelude="""
    static int grid(int n) {
        int s = 0;
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) { s += i * j; }
        return s;
    }"""))
    compiled = compile_annotated(program, HydraConfig())
    assert len({id(cfg) for cfg in seen}) == len(seen), \
        "dominators recomputed for a CFG"
    assert len(seen) == len(compiled.methods)
