"""Static dependence analysis (repro.analysis): classification,
linear forms, pruning safety, model round-trips and pipeline wiring."""

import pytest

from repro.analysis import (ABSENT, MAY, MUST, AnalysisReport, CONST,
                            KIND_GENERAL, KIND_INDUCTOR, KIND_REDUCTION,
                            analyze_program, linearize, strongest,
                            validate_analysis_dict)
from repro.core.pipeline import Jrpm
from repro.hydra.config import HydraConfig
from repro.jit.compiler import compile_annotated
from repro.minijava import compile_source
from repro.workloads import lookup, names

from conftest import wrap_main


def analyzed(src, threshold=1.2):
    return analyze_program(compile_source(src), threshold=threshold)


def only_loop(report):
    assert len(report.loops) == 1, [l.key for l in report.loops]
    return report.loops[0]


def loop_at_line(report, line):
    for loop in report.loops:
        if loop.line == line:
            return loop
    raise AssertionError("no loop at line %d in %s"
                         % (line, [l.line for l in report.loops]))


# -- lattice + linear forms --------------------------------------------------

def test_lattice_strongest():
    assert strongest([]) == ABSENT
    assert strongest([ABSENT, MAY]) == MAY
    assert strongest([MAY, MUST, ABSENT]) == MUST


def test_linearize_affine_forms():
    i = ("entry", 2)
    assert linearize(("const", 7)) == {CONST: 7}
    assert linearize(i) == {i: 1, CONST: 0}
    # (i * 3) + 5, read through a use wrapper
    expr = ("binop", "iadd",
            ("binop", "imul", ("use", 2, 10, i), ("const", 3)),
            ("const", 5))
    assert linearize(expr) == {i: 3, CONST: 5}
    # i << 2 scales by 4; i - i cancels to a pure constant
    assert linearize(("binop", "ishl", i, ("const", 2))) == \
        {i: 4, CONST: 0}
    assert linearize(("binop", "isub", i, i)) == {CONST: 0}


def test_linearize_rejects_nonlinear():
    i, j = ("entry", 2), ("entry", 3)
    assert linearize(("binop", "imul", i, j)) is None
    assert linearize(("binop", "idiv", i, ("const", 2))) is None
    assert linearize(("elem", i, j, 4)) is None


# -- classification on purpose-built loops -----------------------------------

def test_reduction_loop_is_absent():
    loop = only_loop(analyzed(wrap_main("""
        int s = 0;
        for (int i = 0; i < 100; i++) { s = s + i; }
        return s;
    """)))
    assert loop.classification == ABSENT
    kinds = {reg.local: reg.kind for reg in loop.carried}
    assert KIND_INDUCTOR in kinds.values()
    assert KIND_REDUCTION in kinds.values()


def test_scalar_recurrence_is_must():
    loop = only_loop(analyzed(wrap_main("""
        int prev = 7;
        int out = 0;
        for (int i = 0; i < 100; i++) {
            out = out + prev;
            prev = prev * 3 + i;
        }
        return out + prev;
    """)))
    assert loop.classification == MUST
    must = [dep for dep in loop.must_deps() if dep.kind == "local"]
    assert must, [dep.to_dict() for dep in loop.deps]
    assert any(reg.kind == KIND_GENERAL for reg in loop.carried)


def test_array_recurrence_distance():
    loop = only_loop(analyzed(wrap_main("""
        int[] a = new int[64];
        for (int i = 4; i < 64; i++) { a[i] = a[i - 4] + 1; }
        return a[63];
    """)))
    assert loop.classification == MUST
    arcs = [dep for dep in loop.deps if dep.kind == "array"
            and dep.classification == MUST]
    assert arcs and arcs[0].distance == 4


def test_same_iteration_array_reuse_is_absent():
    loop = only_loop(analyzed(wrap_main("""
        int[] a = new int[64];
        int s = 0;
        for (int i = 0; i < 64; i++) { a[i] = i; s = s + a[i]; }
        return s;
    """)))
    assert loop.classification == ABSENT


def test_backward_array_flow_is_absent():
    # a[i] written this iteration is read at i+4 *later*, i.e. the read
    # happens before the write in iteration space: distance <= 0.
    loop = only_loop(analyzed(wrap_main("""
        int[] a = new int[64];
        int s = 0;
        for (int i = 0; i < 60; i++) { s = s + a[i + 4]; a[i] = i; }
        return s;
    """)))
    assert loop.classification == ABSENT


def test_call_in_body_caps_absent_at_may():
    report = analyzed(wrap_main("""
        int s = 0;
        for (int i = 0; i < 10; i++) { s = s + f(i); }
        return s;
    """, prelude="static int f(int x) { return x * 2; }"))
    loop = only_loop(report)
    assert loop.has_calls
    assert loop.classification == MAY


def test_static_field_recurrence_is_must():
    report = analyzed("""
class Main {
    static int acc;
    static int main() {
        Main.acc = 1;
        int junk = 0;
        for (int i = 0; i < 50; i++) {
            junk = junk + Main.acc;
            Main.acc = Main.acc + i;
        }
        return junk;
    }
}
""")
    loop = only_loop(report)
    assert loop.classification == MUST
    assert any(dep.kind == "static" and dep.classification == MUST
               for dep in loop.deps)


def test_prune_only_fires_below_threshold():
    # tight recurrence: nearly the whole body is on the carried chain
    src = wrap_main("""
        int prev = 1;
        for (int i = 0; i < 100; i++) { prev = prev * 3 + 1; }
        return prev;
    """)
    tight = only_loop(analyzed(src))
    assert tight.classification == MUST
    assert tight.speedup_bound is not None
    assert tight.pruned == (tight.speedup_bound < 1.2)
    # same loop under an impossible threshold is always pruned
    assert only_loop(analyzed(src, threshold=1000.0)).pruned


# -- model round-trip + validation -------------------------------------------

def bitops_analysis():
    return analyze_program(
        compile_source(lookup("BitOps").source("small")))


def test_report_round_trip_and_validator():
    report = bitops_analysis()
    data = report.to_dict()
    assert list(validate_analysis_dict(data)) == []
    again = AnalysisReport.from_dict(data)
    assert again.to_dict() == data
    assert again.counts() == report.counts()
    assert again.prune_set() == report.prune_set()


def test_validator_catches_corruption():
    data = bitops_analysis().to_dict()
    data["loops"][0]["classification"] = "sometimes"
    assert any("classification" in problem
               for problem in validate_analysis_dict(data))
    data = bitops_analysis().to_dict()
    data["loops"][0]["pruned"] = True
    data["loops"][0]["prune_reason"] = None
    assert list(validate_analysis_dict(data))


# -- annotator prune guard ---------------------------------------------------

REDUCTION_SRC = wrap_main("""
    int s = 0;
    for (int i = 0; i < 100; i++) { s = s + i; }
    return s;
""")


def _meta_of(compiled):
    metas = list(compiled.loop_table.values())
    assert len(metas) == 1
    return metas[0]


def test_prune_decision_demotes_general_local():
    src = wrap_main("""
        int prev = 1;
        for (int i = 0; i < 100; i++) { prev = prev * 3 + 1; }
        return prev;
    """)
    # an impossible threshold forces the prune decision; the guard
    # only cares that the decision's locals are IR-general
    analysis = analyze_program(compile_source(src), threshold=1000.0)
    prune = analysis.prune_set()
    assert prune, "expected the tight recurrence to be pruned"
    baseline = _meta_of(compile_annotated(compile_source(src),
                                          HydraConfig()))
    assert baseline.candidate
    pruned = _meta_of(compile_annotated(compile_source(src),
                                        HydraConfig(), prune=prune))
    assert not pruned.candidate
    assert pruned.reject_reason.startswith("static:")


def test_prune_guard_ignores_stale_line():
    src = wrap_main("""
        int prev = 1;
        for (int i = 0; i < 100; i++) { prev = prev * 3 + 1; }
        return prev;
    """)
    prune = analyze_program(compile_source(src),
                            threshold=1000.0).prune_set()
    stale = {key: (line + 1, reason, involved)
             for key, (line, reason, involved) in prune.items()}
    meta = _meta_of(compile_annotated(compile_source(src),
                                      HydraConfig(), prune=stale))
    assert meta.candidate


def test_prune_guard_ignores_non_general_locals():
    # claim the reduction local carries a must-dependence: the IR
    # classifier knows better (it will privatize it), so the guard must
    # refuse to demote the loop
    compiled = compile_annotated(compile_source(REDUCTION_SRC),
                                 HydraConfig())
    meta = _meta_of(compiled)
    reduction_regs = [reg for reg, info in meta.carried_kinds.items()
                      if info.kind == KIND_REDUCTION]
    assert reduction_regs
    bogus = {("Main.main", meta.ordinal):
             (meta.line, "static: bogus", (reduction_regs[0] - 1,))}
    meta = _meta_of(compile_annotated(compile_source(REDUCTION_SRC),
                                      HydraConfig(), prune=bogus))
    assert meta.candidate


# -- pipeline + service wiring -----------------------------------------------

def test_run_options_analysis_changes_fingerprint():
    from repro.service.jobs import JobSpec, job_fingerprint
    from repro.service.options import RunOptions
    plain = JobSpec(verb="run", source=REDUCTION_SRC)
    analyzed_spec = JobSpec(verb="run", source=REDUCTION_SRC,
                            options=RunOptions(analysis=True))
    assert job_fingerprint(plain) != job_fingerprint(analyzed_spec)


def test_report_carries_analysis_through_round_trip():
    from repro.core.pipeline import JrpmReport
    program = compile_source(lookup("BitOps").source("small"))
    report = Jrpm(analysis=True).run(program, name="BitOps")
    assert report.outputs_match()
    assert report.analysis is not None
    again = JrpmReport.from_dict(report.to_dict())
    assert again.analysis.to_dict() == report.analysis.to_dict()


CONFIRMED_ARC_SRC = """
class Main {
    static int main() {
        int[] a = new int[256];
        int prev = 7;
        int total = 0;
        for (int i = 0; i < 256; i++) {
            int cur = (prev * 31 + i) % 1000;
            a[i] = cur;
            if (cur > 500) { total += cur; }
            prev = cur - (total % 7);
        }
        return total + prev;
    }
}
"""


def test_analyze_cross_check_confirms_observed_arc():
    analysis, _ = Jrpm().analyze(compile_source(CONFIRMED_ARC_SRC))
    loop = analysis.loops[0]
    assert loop.classification == MUST
    assert loop.agreement is not None
    assert loop.agreement["confirmed"], loop.agreement
    assert not loop.agreement["missed"]


def test_analyze_acceptance_absent_and_must_with_agreement():
    """The ISSUE acceptance shape: one `jrpm analyze` run showing at
    least one provably-absent and one must-dependence loop, each with
    profiler agreement attached."""
    program = compile_source(lookup("BitOps").source("small"))
    analysis, _ = Jrpm().analyze(program)
    classes = [loop.classification for loop in analysis.loops]
    assert ABSENT in classes
    assert MUST in classes
    assert all(loop.agreement is not None for loop in analysis.loops)


def test_analyze_service_verb_and_cli_shapes():
    from repro.service import Session
    with Session.local(use_store=False) as session:
        result = session.analyze(lookup("BitOps").source("small"),
                                 name="BitOps")
    assert list(validate_analysis_dict(result["analysis"])) == []
    assert {loop["classification"] for loop in result["loops"]} >= \
        {ABSENT, MUST}
    # the soundness invariant the CLI turns into its exit code
    assert not any(loop["pruned"] and loop["selected"]
                   for loop in result["loops"])


# -- differential pruning safety (ISSUE acceptance) --------------------------

@pytest.mark.slow
@pytest.mark.parametrize("name", names())
def test_static_prune_never_removes_selected_loop(name):
    """Over the whole registry: no loop the dynamic selector commits is
    ever statically pruned (the annotator guard included)."""
    source = lookup(name).source("small")
    analysis = analyze_program(compile_source(source))
    prune = analysis.prune_set()
    report = Jrpm().run(compile_source(source), name=name)
    selected = {(plan.meta.method_name, plan.meta.ordinal)
                for plan in report.plans.values()}
    if not prune:
        return
    # which decisions the annotator would actually honor
    compiled = compile_annotated(compile_source(source), HydraConfig(),
                                 prune=prune)
    demoted = {(meta.method_name, meta.ordinal)
               for meta in compiled.loop_table.values()
               if not meta.candidate
               and (meta.reject_reason or "").startswith("static:")}
    assert not (demoted & selected), (
        "%s: statically pruned %s but the selector commits them"
        % (name, sorted(demoted & selected)))
