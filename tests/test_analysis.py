"""Static dependence analysis (repro.analysis): classification over
the microJIT's IR, linear forms, the speedup bound, model round-trips,
the cross-check and its join with the annotator's loop table."""

import pytest

from repro.analysis import (ABSENT, MAY, MUST, AnalysisReport, CONST,
                            KIND_GENERAL, KIND_INDUCTOR, KIND_REDUCTION,
                            analyze_program, linearize, strongest,
                            validate_analysis_dict)
from repro.core.pipeline import Jrpm
from repro.minijava import compile_source
from repro.workloads import lookup

import regen_report_digests
from conftest import registry_case, registry_params, wrap_main


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
    i = ("entry", 3)                # the register of local 2
    assert linearize(("const", 7)) == {CONST: 7}
    assert linearize(i) == {i: 1, CONST: 0}
    # (i * 3) + 5, the ADDI form the optimizer leaves
    expr = ("add", ("mul", i, ("const", 3)), ("const", 5))
    assert linearize(expr) == {i: 3, CONST: 5}
    # i << 2 scales by 4; i - i cancels to a pure constant
    assert linearize(("shl", i, ("const", 2))) == {i: 4, CONST: 0}
    assert linearize(("sub", i, i)) == {CONST: 0}
    assert linearize(("neg", i)) == {i: -1, CONST: 0}


def test_linearize_rejects_nonlinear():
    i, j = ("entry", 3), ("entry", 4)
    assert linearize(("mul", i, j)) is None
    assert linearize(("const", 2.5)) is None
    assert linearize(("opaque", 4)) is None
    assert linearize(("field", i, "Main.x")) is None


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
    assert [loop.key for loop in again.pruned()] == \
        [loop.key for loop in report.pruned()]


def test_validator_catches_corruption():
    data = bitops_analysis().to_dict()
    data["loops"][0]["classification"] = "sometimes"
    assert any("classification" in problem
               for problem in validate_analysis_dict(data))
    data = bitops_analysis().to_dict()
    data["loops"][0]["pruned"] = True
    data["loops"][0]["prune_reason"] = None
    assert list(validate_analysis_dict(data))


# -- pipeline wiring ---------------------------------------------------------

def test_report_writes_null_analysis_through_round_trip():
    """No run carries a static analysis; the report keeps its
    ``analysis`` slot, null, so report bytes do not move."""
    from repro.core.pipeline import JrpmReport
    program = compile_source(lookup("BitOps").source("small"))
    report = Jrpm().run(program, name="BitOps")
    assert report.outputs_match()
    data = report.to_dict()
    assert data["analysis"] is None
    assert JrpmReport.from_dict(data).to_dict() == data


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


def test_check_analysis_report_accepts_analyze_output_only(tmp_path,
                                                           capsys):
    """``scripts/check_analysis_report.py`` passes ``jrpm analyze
    --json`` output and a bare ``AnalysisReport.to_dict()``, and turns
    a pipeline report's JSON away in one line naming ``jrpm analyze
    --json``."""
    import json
    import os
    import subprocess
    import sys
    from repro.cli import main
    script = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "check_analysis_report.py")
    assert main(["analyze", "BitOps", "--size", "small", "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    report = Jrpm().run(compile_source(lookup("BitOps").source("small")),
                        name="BitOps")
    inputs = {"envelope.json": envelope, "bare.json": envelope["analysis"],
              "report.json": report.to_dict()}
    codes = {}
    for filename, payload in inputs.items():
        path = tmp_path / filename
        path.write_text(json.dumps(payload))
        run = subprocess.run([sys.executable, script, str(path)],
                             capture_output=True, text=True)
        codes[filename] = (run.returncode, run.stderr.strip())
    assert codes["envelope.json"] == (0, "")
    assert codes["bare.json"] == (0, "")
    code, stderr = codes["report.json"]
    assert code == 1
    assert len(stderr.splitlines()) == 1
    assert "jrpm analyze" in stderr and "--json" in stderr


# -- the static bound against the dynamic selector, and the join ------------

@pytest.mark.parametrize("name", registry_params())
def test_static_prune_never_removes_selected_loop(name):
    """Over the whole registry, in both engines' reports: the analysis
    cross-checks the report's loop table and TEST stats, no loop whose
    static speedup bound is below threshold (``pruned``) is one the
    dynamic selector commits, and every analyzed loop joins the
    annotator's loop table on (method, ordinal, header line)."""
    for engine in regen_report_digests.ENGINES:
        case = registry_case(name, engine)
        report = case.report
        analysis = analyze_program(
            case.program, threshold=report.config.min_predicted_speedup)
        analysis.cross_check(report.loop_table, report.loop_stats)
        selected = {(report.loop_table[loop_id].method_name,
                     report.loop_table[loop_id].ordinal)
                    for loop_id in report.plans}
        pruned = {loop.key for loop in analysis.pruned()}
        assert not (pruned & selected), (
            "%s: static bound rules out %s but the selector commits them"
            % (name, sorted(pruned & selected)))
        joined = {(meta.method_name, meta.ordinal, meta.line): loop_id
                  for loop_id, meta in report.loop_table.items()}
        assert len(analysis.loops) == len(joined)
        for loop in analysis.loops:
            loop_id = joined[(loop.method, loop.ordinal, loop.line)]
            assert loop.agreement["loop_id"] == loop_id
