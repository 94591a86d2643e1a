"""microJIT driver: whole-program compilation to executable IR.

Three entry points mirroring the Jrpm pipeline (paper Fig. 1):

* :func:`compile_program` — plain native code (baseline sequential run).
* :func:`compile_annotated` — native code + TEST annotation instructions
  (step 1: run sequentially while the profiler collects statistics).
* ``repro.jit.stl.recompile_with_stls`` — native TLS code for selected
  thread decompositions (step 4).
"""

from ..hydra.config import STATICS_BASE
from .annotate import annotate_method
from .ir import ANNOTATION_IR_OPS
from .optimize import optimize
from .translate import StaticLayout, Translator


class CompiledMethod:
    """Executable form of one method."""

    __slots__ = ("name", "code", "nregs", "ir", "owner", "simple_name",
                 "stls", "_dispatch", "_tls_events", "_tls_costs")

    def __init__(self, ir_method, owner, simple_name):
        self.ir = ir_method
        self.name = ir_method.name
        self.code = ir_method.finalize()
        self.nregs = ir_method.nregs
        self.owner = owner
        self.simple_name = simple_name
        self.stls = ir_method.stls
        #: predecoded handler table, built lazily at first execution by
        #: :func:`repro.engine.ir_engine.dispatch_table` ("code-install
        #: time" predecoding — rebuilt never, shared by every Frame)
        self._dispatch = None
        #: per-pc scheduler-event bitmap for the event-driven TLS
        #: scheduler (repro.engine.ir_engine.tls_event_map), same lazy
        #: caching discipline as the dispatch tables
        self._tls_events = None
        #: per-pc worst-case single-dispatch cycle cost (see
        #: tls_cost_map)
        self._tls_costs = None

    def __repr__(self):
        return "<CompiledMethod %s (%d instrs)>" % (self.name, len(self.code))


class CompiledProgram:
    """A fully compiled program ready to run on the Hydra machine."""

    def __init__(self, program, layout, config, mode):
        self.program = program
        self.layout = layout
        self.config = config
        self.mode = mode                      # "plain"|"annotated"|"tls"
        self.methods = {}                     # qualified name -> Compiled
        self.loop_table = {}                  # loop_id -> LoopMeta
        self.compile_cycles = 0
        self.selected_stls = {}               # loop_id -> StlPlan (tls mode)
        #: TLS thread-code units, built by the runtime at first entry
        #: and kept with the code they predecode (tls mode):
        #: {call_overhead_cycles: {StlDescriptor: unit}}
        self.tls_units = {}

    def add(self, compiled):
        self.methods[compiled.name] = compiled

    def resolve(self, class_name, method_name):
        method = self.program.resolve_method(class_name, method_name)
        return self.methods[method.qualified_name]

    def dispatch(self, class_id, method_name):
        cls = self.program.class_by_id(class_id)
        method = cls.find_method(method_name)
        return self.methods[method.qualified_name]

    def entry(self):
        return self.methods[self.program.entry().qualified_name]

    def total_instructions(self):
        return sum(len(m.code) for m in self.methods.values())


def translated_methods(program, layout):
    """Yield ``(method, ir_method)`` for every method of *program*, in
    :meth:`~repro.bytecode.module.Program.all_methods` order: the
    translated and optimized IR, before any annotation.  The compiles
    below and the STL thread-code builder (:mod:`repro.jit.stl`) read
    the same IR through this one function."""
    translator = Translator(program, layout)
    for method in program.all_methods():
        ir_method = translator.translate(method)
        optimize(ir_method)
        yield method, ir_method


def _compile(program, config, annotate):
    program.seal()
    layout = StaticLayout(program, STATICS_BASE)
    compiled = CompiledProgram(program, layout, config,
                               "annotated" if annotate else "plain")
    counter = [1]
    for method, ir_method in translated_methods(program, layout):
        if annotate:
            annotate_method(ir_method, compiled.loop_table, counter)
        compiled.add(CompiledMethod(ir_method, method.owner.name,
                                    method.name))
        compiled.compile_cycles += (config.compile_cycles_per_bytecode
                                    * len(method.code))
    return compiled


def compile_program(program, config):
    """Compile without annotations (the sequential baseline)."""
    return _compile(program, config, annotate=False)


def compile_annotated(program, config):
    """Compile with TEST annotation instructions inserted."""
    return _compile(program, config, annotate=True)


def annotation_count(compiled):
    """Number of annotation instructions in a compiled program."""
    return sum(1 for method in compiled.methods.values()
               for instr in method.code if instr.op in ANNOTATION_IR_OPS)
