"""Structural bytecode verifier.

Checks performed per method:

* branch targets are in range,
* local indices are within ``max_locals``,
* referenced classes, fields, methods and intrinsics resolve,
* the operand stack has a consistent depth at every join point and is
  empty when the method returns ``void`` (depth 1 for value returns).

This mirrors (a small part of) JVM bytecode verification and protects
the microJIT's abstract-stack translator, which relies on consistent
depths to merge values at control-flow joins.  Control-flow graphs,
dominators and natural loops exist only over the microJIT's IR
(:mod:`repro.jit.cfg`); the static dependence analyzer
(:mod:`repro.analysis`) reads them there too.
"""

from ..errors import VerifyError
from ..vm import intrinsics
from .opcodes import COND_BRANCH_OPS, Op, STACK_EFFECTS, TERMINATOR_OPS


def _stack_effect(program, instr):
    op = instr.op
    if op == Op.INVOKESTATIC:
        callee = program.resolve_method(*instr.arg)
        return -len(callee.param_types) + (
            0 if callee.return_type.is_void() else 1)
    if op == Op.INVOKEVIRTUAL:
        callee = program.resolve_method(*instr.arg)
        return -len(callee.param_types) - 1 + (
            0 if callee.return_type.is_void() else 1)
    if op == Op.INTRINSIC:
        name, nargs = instr.arg
        intrinsic = intrinsics.lookup(name)
        if intrinsic.nargs != nargs:
            raise VerifyError("intrinsic %s expects %d args, got %d"
                              % (name, intrinsic.nargs, nargs))
        return -nargs + (1 if intrinsic.has_result() else 0)
    return STACK_EFFECTS[op]


def verify_method(program, method):
    code = method.code
    if not code:
        raise VerifyError("%s has no code" % method.qualified_name)
    last = code[-1]
    if last.op not in TERMINATOR_OPS:
        raise VerifyError("%s does not end in a terminator"
                          % method.qualified_name)

    depths = [None] * len(code)
    worklist = [(0, 0)]
    while worklist:
        pc, depth = worklist.pop()
        while True:
            if pc < 0 or pc >= len(code):
                raise VerifyError("%s: pc %d out of range"
                                  % (method.qualified_name, pc))
            if depths[pc] is not None:
                if depths[pc] != depth:
                    raise VerifyError(
                        "%s: inconsistent stack depth at %d (%d vs %d)"
                        % (method.qualified_name, pc, depths[pc], depth))
                break
            depths[pc] = depth
            instr = code[pc]
            op = instr.op

            if op in (Op.LOAD, Op.STORE):
                if not 0 <= instr.arg < method.max_locals:
                    raise VerifyError("%s: local %d out of range at %d"
                                      % (method.qualified_name, instr.arg, pc))
            elif op == Op.IINC:
                index, _delta = instr.arg
                if not 0 <= index < method.max_locals:
                    raise VerifyError("%s: local %d out of range at %d"
                                      % (method.qualified_name, index, pc))
            elif op == Op.NEW:
                program.get_class(instr.arg)
            elif op in (Op.GETFIELD, Op.PUTFIELD, Op.GETSTATIC, Op.PUTSTATIC):
                field = program.resolve_field(*instr.arg)
                wants_static = op in (Op.GETSTATIC, Op.PUTSTATIC)
                if field.is_static != wants_static:
                    raise VerifyError(
                        "%s: field %s static mismatch at %d"
                        % (method.qualified_name, instr.arg, pc))

            effect = _stack_effect(program, instr)
            pops = max(0, -effect)
            if depth < pops and op not in (Op.DUP, Op.DUP_X1, Op.SWAP):
                raise VerifyError("%s: stack underflow at %d (%s)"
                                  % (method.qualified_name, pc, instr))
            if op == Op.DUP and depth < 1:
                raise VerifyError("%s: DUP on empty stack at %d"
                                  % (method.qualified_name, pc))
            if op in (Op.DUP_X1, Op.SWAP) and depth < 2:
                raise VerifyError("%s: %s needs two values at %d"
                                  % (method.qualified_name, op.name, pc))
            depth += effect

            if op == Op.RETURN:
                if depth != 0:
                    raise VerifyError(
                        "%s: non-empty stack (%d) at RETURN (pc %d)"
                        % (method.qualified_name, depth, pc))
                break
            if op == Op.RETURN_VALUE:
                if depth != 0:
                    raise VerifyError(
                        "%s: stack depth %d after RETURN_VALUE (pc %d)"
                        % (method.qualified_name, depth, pc))
                if method.return_type.is_void():
                    raise VerifyError("%s: value return from void method"
                                      % method.qualified_name)
                break
            if op == Op.GOTO:
                pc = instr.arg
                continue
            if op in COND_BRANCH_OPS:
                worklist.append((instr.arg, depth))
            pc += 1
    return depths


def verify_program(program):
    """Verify every method; returns the program for chaining."""
    program.seal()
    for method in program.all_methods():
        verify_method(program, method)
    return program
