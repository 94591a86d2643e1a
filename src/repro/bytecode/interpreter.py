"""Reference bytecode interpreter.

This is the correctness *oracle*: a straightforward, Python-object-based
interpreter with no notion of addresses, caches or cycles.  The Hydra
machine executing microJIT output must produce exactly the same printed
output and return value for every program (this invariant is enforced by
the property-based test suite).
"""

import math

from ..errors import VMError


class GuestObject:
    __slots__ = ("cls", "fields")

    def __init__(self, cls):
        self.cls = cls
        self.fields = {}
        for field in cls.all_instance_fields():
            if field.type.is_float():
                default = 0.0
            elif field.type.is_reference():
                default = None
            else:
                default = 0
            self.fields[field.name] = default

    def __repr__(self):
        return "<%s %s>" % (self.cls.name, self.fields)


class GuestArray:
    __slots__ = ("kind", "data")

    def __init__(self, kind, length):
        if length < 0:
            raise VMError("negative array size %d" % length)
        self.kind = kind  # "int" | "float" | "ref"
        fill = 0.0 if kind == "float" else (None if kind == "ref" else 0)
        self.data = [fill] * length

    def __len__(self):
        return len(self.data)


class _Frame:
    __slots__ = ("method", "locals", "stack", "pc")

    def __init__(self, method, args):
        self.method = method
        self.locals = list(args) + [0] * (method.max_locals - len(args))
        self.stack = []
        self.pc = 0


class InterpreterResult:
    def __init__(self, return_value, output, instructions):
        self.return_value = return_value
        self.output = output
        self.instructions = instructions


class Interpreter:
    """Executes a sealed :class:`Program` with Java semantics.

    Execution runs through the predecoded dispatch tables of
    :mod:`repro.engine.bc_engine` (per-method handler tables with fused
    straight-line superinstruction blocks); ``instructions`` counts
    executed bytecodes and a run past ``max_instructions`` raises
    :class:`~repro.errors.VMError`.
    """

    def __init__(self, program, max_instructions=200_000_000):
        self.program = program.seal()
        self.statics = {}
        self.output = []
        self.instructions = 0
        self.max_instructions = max_instructions

    # -- public API -----------------------------------------------------------
    def run(self, *args):
        entry = self.program.entry()
        value = self.call(entry, list(args))
        return InterpreterResult(value, self.output, self.instructions)

    def call(self, method, args):
        from ..engine.bc_engine import execute_bytecode
        return execute_bytecode(self, _Frame(method, args))

    # -- helpers ----------------------------------------------------------------
    def _static_key(self, class_name, field_name):
        field = self.program.resolve_field(class_name, field_name)
        return (field.owner.name, field.name), field


def _float_div_by_zero(numerator):
    if numerator > 0.0:
        return float("inf")
    if numerator < 0.0:
        return float("-inf")
    return float("nan")


def _java_frem(a, b):
    # Java % on floats truncates toward zero (math.fmod semantics).
    return math.fmod(a, b)


def run_program(program, *args):
    """Convenience: interpret *program* and return its result record."""
    return Interpreter(program).run(*args)
