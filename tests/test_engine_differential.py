"""Differential oracle: the fast engine vs the reference engine.

The invariant of ``HydraConfig.engine`` is **cycle exactness**: for any
guest program, ``"fast"`` (predecoded handler tables, the event-driven
TLS scheduler) and ``"reference"`` (the ``step_legacy`` if/elif
dispatcher, the stepwise TLS scheduler) must agree on *every*
observable —

* printed output, return value and guest-exception behaviour,
* ``instret`` (simulated instruction count) and total simulated cycles,
* cache hit/miss counters of every level (the memory-hierarchy memo
  fast path must be counter-exact),
* per-STL TLS statistics: commits, violations, squashes, restarts and
  the cycle breakdown,
* the full serialized pipeline report.

This file enforces that over randomized MiniJava workloads at two
levels: bare machine runs, which must also print what the bytecode
interpreter prints, and the whole Jrpm pipeline (profile → select →
TLS).  A subset runs in the default tier; the 20-workload sweep is
marked ``slow``.  Its pipeline level is the traced run of each seed,
made once per engine (:func:`seed_observables`) and shared with the
traced sweeps of ``tests/test_scheduler_differential.py``.  Unit tests
at the end pin how sequential blocks inline the TEST annotation hooks
(``tests/test_profiler_differential.py`` covers whole profiles).
"""

import functools
import json
import random
from types import SimpleNamespace

import pytest

from repro.bytecode import run_program
from repro.core.pipeline import Jrpm
from repro.engine.ir_engine import (_COSTS, BATCHABLE_IR_OPS,
                                    SEQUENTIAL_BLOCK_IR_OPS, build_table,
                                    dispatch_table, tls_cost_map,
                                    tls_event_map)
from repro.hydra.cache import MemoryHierarchy
from repro.hydra.config import HydraConfig
from repro.hydra.machine import CpuContext, Frame, Machine
from repro.hydra.memory import Memory
from repro.jit.compiler import compile_annotated, compile_program
from repro.jit.ir import ANNOTATION_IR_OPS, IRInstr, IROp
from repro.minijava import compile_source
from repro.trace import TraceOptions, chrome_trace
from repro.workloads import lookup

from conftest import first_divergence, wrap_main


# ---------------------------------------------------------------------------
# randomized workload generator (deterministic per seed)
# ---------------------------------------------------------------------------

def random_workload(seed):
    """A randomized MiniJava program exercising the engine's hot paths:
    fused ALU runs, compare+branch idioms, array traffic, float math,
    calls/virtual dispatch, and loop shapes the STL selector likes
    (including loop-carried dependences that trigger TLS violations)."""
    rng = random.Random(seed)
    n = rng.randrange(48, 160)
    mul = rng.randrange(2, 11)
    mask = rng.choice(["0xFF", "0xFFF", "0xFFFF"])
    shift = rng.randrange(1, 5)
    carried = rng.random() < 0.5
    chain = rng.random() < 0.4
    use_float = rng.random() < 0.6
    use_call = rng.random() < 0.5
    use_object = rng.random() < 0.4
    red_op = rng.choice(["+", "^", "|", "-"])

    prelude = []
    if use_call:
        prelude.append(
            "static int mix(int x, int y) {"
            " return ((x * %d) ^ (y >> %d)) & %s; }"
            % (rng.randrange(3, 17), shift, mask))
    if use_object:
        prelude.append(
            "static int bump(Acc acc, int v) {"
            " acc.total = (acc.total + v) & 0x7FFFFFFF;"
            " return acc.total; }")

    body = []
    body.append("int n = %d;" % n)
    body.append("int[] a = new int[n];")
    body.append("int[] b = new int[n];")
    body.append("int seed = %d;" % rng.randrange(1, 1000))
    body.append("int acc = 0;")
    if use_float:
        body.append("float f = %d.5;" % rng.randrange(0, 9))
    if use_object:
        body.append("Acc box = new Acc();")
    body.append("for (int i = 0; i < n; i++) {")
    body.append("    a[i] = (i * %d + seed) %% 251;" % mul)
    if chain:
        body.append("    if (i > 0) {"
                    " b[i] = (b[i-1] + a[i]) & %s; }" % mask)
    else:
        body.append("    b[i] = (a[i] << %d) & %s;" % (shift, mask))
    if carried:
        body.append("    seed = (seed * 1103515245 + 12345)"
                    " & 0x7FFFFFFF;")
    if use_call:
        body.append("    acc = acc %s Main.mix(a[i], b[i]);" % red_op)
    else:
        body.append("    acc = acc %s (a[i] + b[i]);" % red_op)
    if use_float:
        body.append("    f = f * 1.0001 + a[i] / 7;")
    if use_object:
        body.append("    acc = acc ^ Main.bump(box, b[i]);")
    body.append("}")
    if use_float:
        body.append("Sys.printInt((int) f);")
    body.append("Sys.printInt(acc);")
    body.append("Sys.printInt(seed);")
    body.append("Sys.printInt(b[n - 1]);")
    body.append("return acc;")

    src = wrap_main("\n        ".join(body),
                    prelude="\n    ".join(prelude))
    if use_object:
        src += "\nclass Acc { int total; }\n"
    return src


# ---------------------------------------------------------------------------
# observables at each level
# ---------------------------------------------------------------------------

ENGINES = ("fast", "reference")


def machine_observables(program, engine):
    config = HydraConfig(engine=engine)
    compiled = compile_program(program, config)
    machine = Machine(compiled, config)
    result = machine.run()
    return {
        "return_value": result.return_value,
        "output": list(result.output),
        "instret": result.instructions,
        "cycles": result.cycles,
        "cache": machine.hierarchy.counters(),
        "exception": repr(result.guest_exception),
    }


def report_observables(source, engine, config=None, traced=False):
    """Canonical JSON of the full pipeline report, minus the config
    (whose ``engine`` field differs by construction), plus the Chrome
    trace when *traced*."""
    config = config or HydraConfig()
    config.engine = engine
    report = Jrpm(config=config, trace=TraceOptions() if traced else None
                  ).run(compile_source(source))
    payload = report.to_dict()
    payload.pop("config", None)
    if traced:
        payload = [payload, chrome_trace(report.trace, name="diff")]
    return json.dumps(payload, sort_keys=True, default=str)


@functools.lru_cache(maxsize=None)
def seed_observables(seed, engine):
    """The traced :func:`report_observables` of random workload *seed*
    under *engine*, computed once per process."""
    return report_observables(random_workload(seed), engine, traced=True)


def assert_same_observables(fast, reference, label):
    """The two engines' :func:`report_observables` texts are equal;
    if not, fail naming the first divergence (the texts are hundreds of
    KB, too big for pytest's own diff)."""
    if fast == reference:
        return
    found = first_divergence(json.loads(fast), json.loads(reference))
    where = ("at %s: fast %.300r, reference %.300r" % found if found
             else "in the text only")
    pytest.fail("engines diverged %s\n%s" % (where, label), pytrace=False)


def assert_seed_identical(seed):
    """Both engines' traced pipeline runs of random workload *seed*
    agree on the report and the Chrome trace."""
    assert_same_observables(
        seed_observables(seed, "fast"), seed_observables(seed, "reference"),
        "seed %d\nsrc=%s" % (seed, random_workload(seed)))


def assert_identical(seed, pipeline=False):
    source = random_workload(seed)
    program = compile_source(source)
    fast = machine_observables(program, "fast")
    reference = machine_observables(program, "reference")
    assert fast == reference, (
        "machine diverged (seed %d)\nfast=%r\nreference=%r\nsrc=%s"
        % (seed, fast, reference, source))
    oracle = run_program(program)
    assert (fast["output"], fast["return_value"]) \
        == (list(oracle.output), oracle.return_value), \
        "machine disagrees with the bytecode oracle (seed %d)" % seed
    if pipeline:
        assert_same_observables(
            report_observables(source, "fast"),
            report_observables(source, "reference"),
            "pipeline report (seed %d)\nsrc=%s" % (seed, source))


# ---------------------------------------------------------------------------
# default tier: a handful of seeds, all three levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_engine_differential(seed):
    assert_identical(seed, pipeline=False)


@pytest.mark.parametrize("seed", [100, 101])
def test_pipeline_differential(seed):
    assert_identical(seed, pipeline=True)


def test_tls_statistics_identical():
    """Violation/restart/commit counts and the cycle breakdown of every
    executed STL must match across engines."""
    source = random_workload(7)          # chain+carried → violations
    fast, reference = (Jrpm(config=HydraConfig(engine=engine)).run(source)
                       for engine in ENGINES)
    assert fast.breakdown.to_dict() == reference.breakdown.to_dict()
    fast_stats = {k: v.to_dict() for k, v in fast.stl_run_stats.items()}
    reference_stats = {k: v.to_dict()
                       for k, v in reference.stl_run_stats.items()}
    assert fast_stats == reference_stats
    assert fast.tls.cycles == reference.tls.cycles
    assert fast.tls.instructions == reference.tls.instructions


# ---------------------------------------------------------------------------
# exception paths: the flush-before-raise protocol
# ---------------------------------------------------------------------------

_RAISING = [
    ("div by zero", "int d = 4 - 4; return 12 / d;"),
    ("rem by zero", "int d = 9 - 9; return 12 % d;"),
    ("array bounds", "int[] a = new int[4]; int i = 7; return a[i];"),
]


@pytest.mark.parametrize("label,body", _RAISING,
                         ids=[r[0] for r in _RAISING])
def test_exception_differential(label, body):
    source = wrap_main("int warm = 0;\n"
                       "        for (int i = 0; i < 8; i++)"
                       " { warm = warm + i * 3; }\n"
                       "        Sys.printInt(warm);\n        " + body)
    program = compile_source(source)
    fast = machine_observables(program, "fast")
    reference = machine_observables(program, "reference")
    assert fast == reference, "exception path diverged: %s" % label
    assert fast["exception"] != "None"


def test_null_check_differential():
    source = ("""
class Acc { int total; }
class Main {
    static int main() {
        Acc x;
        if (1 > 2) { x = new Acc(); }
        return x.total;
    }
}
""")
    program = compile_source(source)
    fast = machine_observables(program, "fast")
    reference = machine_observables(program, "reference")
    assert fast == reference
    assert fast["exception"] != "None"


# ---------------------------------------------------------------------------
# slow tier: the ~20-workload sweep, traced pipeline level included
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20))
def test_engine_differential_sweep(seed):
    assert_identical(seed)
    assert_seed_identical(seed)


# ---------------------------------------------------------------------------
# TEST annotation ops inside sequential blocks
# ---------------------------------------------------------------------------

class _HookRecorder:
    """Profiler stand-in: records every hook call with its arguments."""

    def __init__(self):
        self.calls = []

    def on_sloop(self, loop_id, nslots, now):
        self.calls.append(("sloop", loop_id, nslots, now))

    def on_eoi(self, loop_id, now):
        self.calls.append(("eoi", loop_id, now))

    def on_eloop(self, loop_id, now):
        self.calls.append(("eloop", loop_id, now))

    def on_lwl(self, loop_id, slot, now, site):
        self.calls.append(("lwl", loop_id, slot, now, site))

    def on_swl(self, loop_id, slot, now, site):
        self.calls.append(("swl", loop_id, slot, now, site))

    def on_load(self, addr, now, site):
        self.calls.append(("load", addr, now))

    def on_store(self, addr, now, site):
        self.calls.append(("store", addr, now))


def _annotated_unit(raising):
    """A straight-line unit: ALU work, SLOOP, SWL, a 2-cycle MUL, then
    *raising* (r1 is 0, so it throws), then RET."""
    code = [
        IRInstr(IROp.LI, dst=1, imm=0),
        IRInstr(IROp.SLOOP, aux=7, imm=1),
        IRInstr(IROp.ADDI, dst=2, a=1, imm=3),
        IRInstr(IROp.SWL, aux=7, imm=0),
        IRInstr(IROp.MUL, dst=3, a=2, b=2),
        raising,
        IRInstr(IROp.RET, a=2),
    ]
    return SimpleNamespace(code=code, name="T.unit", nregs=6)


def _run_to_raise(unit, engine):
    recorder = _HookRecorder()
    config = HydraConfig(engine=engine)
    machine = SimpleNamespace(config=config, profiler=recorder,
                              hierarchy=MemoryHierarchy(config),
                              memory=Memory())
    ctx = CpuContext(machine, 0)
    ctx.frames = [Frame(unit, [])]
    dispatches = 0
    with pytest.raises(Exception) as info:
        while True:
            frame = ctx.frames[-1]
            dispatches += 1
            if engine == "fast":
                frame.handlers[frame.pc](ctx, frame)
            else:
                ctx.step_legacy()
    return {
        "calls": recorder.calls,
        "exception": (type(info.value).__name__, str(info.value)),
        "pc": ctx.frames[-1].pc,
        "instret": ctx.instret,
        "annotation_instret": ctx.annotation_instret,
        "time": ctx.time,
    }, dispatches


_RAISING_AFTER_SWL = [IRInstr(IROp.NULLCHK, a=1),
                      IRInstr(IROp.BOUNDCHK, a=2, b=1),
                      IRInstr(IROp.DIV, dst=4, a=2, b=1)]


@pytest.mark.parametrize("raising", _RAISING_AFTER_SWL,
                         ids=["NULLCHK", "BOUNDCHK", "DIV"])
def test_inlined_swl_hook_before_raise(raising):
    """A block that raises after an inlined SWL fires the hook exactly
    once, at the legacy clock value, with the same pc/instret/time
    flush as ``step_legacy``."""
    unit = _annotated_unit(raising)
    fast, fast_dispatches = _run_to_raise(unit, "fast")
    reference, __ = _run_to_raise(unit, "reference")
    assert fast == reference
    assert fast_dispatches == 1            # one fused block, no splits
    swl = [call for call in fast["calls"] if call[0] == "swl"]
    assert swl == [("swl", 7, 0, 3, unit.code[3])]
    assert fast["calls"][0] == ("sloop", 7, 1, 1)
    assert (fast["pc"], fast["instret"], fast["time"]) == (6, 6, 6)
    assert fast["annotation_instret"] == 2  # the SLOOP and the SWL


def test_annotated_code_fuses_annotations_into_blocks():
    """The dispatch table absorbs annotation ops into blocks; the
    ``tls_event_map`` and ``tls_cost_map`` of the same unit keep them
    as single-instruction scheduler events."""
    def generated(handler):
        return handler.__code__.co_filename.startswith("<ir-engine:")

    config = HydraConfig()
    compiled = compile_annotated(
        compile_source(lookup("BitOps").source("small")), config)
    fused = 0
    for unit in compiled.methods.values():
        code = unit.code
        annotations = [pc for pc, instr in enumerate(code)
                       if instr.op in ANNOTATION_IR_OPS]
        if not annotations:
            continue
        table = dispatch_table(unit)
        events = tls_event_map(unit)
        costs = tls_cost_map(unit, config.call_overhead_cycles)
        for pc in annotations:
            # inside a generated block: the nearest generated entry at
            # or before pc leads a run of block ops that reaches pc
            leader = pc
            while not generated(table[leader]):
                leader -= 1
            assert all(code[q].op in SEQUENTIAL_BLOCK_IR_OPS
                       for q in range(leader, pc + 1))
            # an annotation right after a block op never starts a block
            if pc > 0 and code[pc - 1].op in BATCHABLE_IR_OPS \
                    and generated(table[pc - 1]):
                assert not generated(table[pc])
            fused += leader < pc
            assert events[pc] == 1
            assert costs[pc] == 0
            if pc > 0 and code[pc - 1].op in BATCHABLE_IR_OPS:
                # a batchable run still ends at the annotation
                own = _COSTS.get(code[pc - 1].op, 1)
                assert costs[pc - 1] == own + 1
    assert fused > 0

    unit = _annotated_unit(_RAISING_AFTER_SWL[0])
    table = build_table(unit.code, unit.name)
    assert generated(table[0])
    assert not any(generated(table[pc]) for pc in range(1, 6))
