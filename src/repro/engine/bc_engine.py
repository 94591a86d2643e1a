"""Predecoded dispatch tables for the reference bytecode interpreter.

Same design as :mod:`repro.engine.ir_engine`, adapted to a stack
machine: each :class:`~repro.bytecode.module.Method` predecodes into a
pc-indexed table of ``handler(interp, frame) -> _CONT | (value,)``
closures.  Straight-line runs of stack/ALU opcodes become one
``exec``-generated block function that simulates the operand stack
*virtually*: pops that consume a value pushed inside the same block
never touch ``frame.stack`` at all, so the codegen's hottest idioms —
``LOAD + LOAD + IADD``, ``ICONST + IADD``, compare+branch — fuse into
single Python expressions (the classic superinstruction win).  Opcodes
with heap/object/call effects stay one-per-dispatch as specialised
closures (each raising Java's exception type and message).

This module *is* the bytecode oracle: there is no second interpreter
loop.  ``instructions`` counts every executed bytecode.  The instruction
budget is checked once per block rather than once per instruction, so
a run that exceeds ``max_instructions`` may overrun by at most one
straight-line block before raising :class:`~repro.errors.VMError`.
"""

from ..errors import (ArithmeticException, ArrayIndexException,
                      NullPointerException, VMError)
from ..vm import intrinsics
from ..bytecode.instructions import f2i, i32, idiv, irem, u32
from ..bytecode.opcodes import BRANCH_OPS, Op

#: continue-dispatch sentinel (method returns are ``(value,)`` 1-tuples
#: so that ``return None`` from a guest method is representable).
_CONT = object()

#: Opcodes a block may contain: pure stack/local/ALU work.
BATCHABLE_BC_OPS = frozenset({
    Op.NOP, Op.POP, Op.DUP, Op.DUP_X1, Op.SWAP,
    Op.ICONST, Op.FCONST, Op.ACONST_NULL,
    Op.LOAD, Op.STORE, Op.IINC,
    Op.IADD, Op.ISUB, Op.IMUL, Op.IDIV, Op.IREM, Op.INEG,
    Op.IAND, Op.IOR, Op.IXOR, Op.ISHL, Op.ISHR, Op.IUSHR,
    Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FNEG, Op.FREM,
    Op.I2F, Op.F2I, Op.FCMP,
})

_BIN_INT = {Op.IADD: "+", Op.ISUB: "-", Op.IMUL: "*",
            Op.IAND: "&", Op.IOR: "|", Op.IXOR: "^"}
_SHIFTS = {Op.ISHL: "<<", Op.ISHR: ">>"}
_BIN_FLOAT = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}

_IF_ZERO = {Op.IFEQ: "%s == 0", Op.IFNE: "%s != 0", Op.IFLT: "%s < 0",
            Op.IFGE: "%s >= 0", Op.IFGT: "%s > 0", Op.IFLE: "%s <= 0"}
_IF_ICMP = {Op.IF_ICMPEQ: "%s == %s", Op.IF_ICMPNE: "%s != %s",
            Op.IF_ICMPLT: "%s < %s", Op.IF_ICMPGE: "%s >= %s",
            Op.IF_ICMPGT: "%s > %s", Op.IF_ICMPLE: "%s <= %s"}
_IF_REF = {Op.IF_ACMPEQ: ("%s is %s", 2), Op.IF_ACMPNE: ("%s is not %s", 2),
           Op.IFNULL: ("%s is None", 1), Op.IFNONNULL: ("%s is not None", 1)}


def execute_bytecode(interp, frame):
    """Drive *frame* to completion on the predecoded table; returns the
    method's return value."""
    method = frame.method
    table = getattr(method, "_fast_table", None)
    if table is None:
        table = bytecode_table(method)
    while True:
        result = table[frame.pc](interp, frame)
        if result is not _CONT:
            return result[0]


def bytecode_table(method):
    """Predecode *method* into a handler table, cached on the method."""
    table = build_bc_table(method.code, method.qualified_name)
    try:
        method._fast_table = table
    except (AttributeError, TypeError):
        pass
    return table


def build_bc_table(code, method_name):
    n = len(code)
    leaders = {0}
    for pc, instr in enumerate(code):
        op = instr.op
        if op in BRANCH_OPS:
            if isinstance(instr.arg, int):
                leaders.add(instr.arg)
            leaders.add(pc + 1)
        elif op not in BATCHABLE_BC_OPS:
            leaders.add(pc + 1)
    leaders = {pc for pc in leaders if 0 <= pc < n}

    consts = []
    sources = []
    block_names = {}
    for pc in sorted(leaders):
        op = code[pc].op
        if op in BATCHABLE_BC_OPS or op in BRANCH_OPS:
            name, lines = _gen_block(code, pc, leaders, consts)
            block_names[pc] = name
            sources.append("\n".join(lines))

    ns = {
        "i32": i32, "u32": u32, "idiv": idiv, "irem": irem, "f2i": f2i,
        "ArithmeticException": ArithmeticException,
        "VMError": VMError,
        "_CONT": _CONT,
        "_NAN": float("nan"),
    }
    # late imports avoid a cycle: interpreter imports this module
    from ..bytecode.interpreter import _float_div_by_zero, _java_frem
    ns["_fdz"] = _float_div_by_zero
    ns["_frem"] = _java_frem
    for index, value in enumerate(consts):
        ns["K%d" % index] = value
    if sources:
        exec(compile("\n\n".join(sources),
                     "<bc-engine:%s>" % method_name, "exec"), ns)

    table = [None] * n
    for pc, instr in enumerate(code):
        name = block_names.get(pc)
        if name is not None:
            table[pc] = ns[name]
        else:
            table[pc] = _make_singleton(instr, pc)
    return table


# ---------------------------------------------------------------------------
# block (superinstruction) code generation
# ---------------------------------------------------------------------------

def _block_span(code, start, leaders):
    pcs = []
    i = start
    n = len(code)
    while i < n:
        if i > start and i in leaders:
            return pcs, None
        op = code[i].op
        if op in BRANCH_OPS:
            return pcs, i
        if op not in BATCHABLE_BC_OPS:
            return pcs, None
        pcs.append(i)
        i += 1
    return pcs, None


def _gen_block(code, start, leaders, consts):
    pcs, branch_pc = _block_span(code, start, leaders)
    name = "_b%d" % start
    lines = ["def %s(interp, frame):" % name,
             "    stack = frame.stack",
             "    local_vars = frame.locals"]
    temp = [0]
    vstack = []                 # virtual stack: temp names / literals

    def fresh():
        temp[0] += 1
        return "_t%d" % temp[0]

    def const(value):
        if type(value) is int:
            return repr(value)
        if value is None:
            return "None"
        consts.append(value)
        return "K%d" % (len(consts) - 1)

    def vpop():
        if vstack:
            return vstack.pop()
        t = fresh()
        lines.append("    %s = stack.pop()" % t)
        return t

    def vpush(expr):
        vstack.append(expr)

    def assign(expr):
        t = fresh()
        lines.append("    %s = %s" % (t, expr))
        vpush(t)

    def vflush():
        if not vstack:
            return
        if len(vstack) == 1:
            lines.append("    stack.append(%s)" % vstack[0])
        else:
            lines.append("    stack.extend((%s))" % ", ".join(vstack))
        del vstack[:]

    def count_lines(count):
        return ["    frame.pc = %d" % end_pc_holder[0],
                "    interp.instructions += %d" % count,
                "    if interp.instructions > interp.max_instructions:",
                "        raise VMError('instruction budget exceeded')"]

    end_pc_holder = [None]

    for pc in pcs:
        instr = code[pc]
        op = instr.op
        arg = instr.arg
        if op == Op.NOP:
            pass
        elif op == Op.POP:
            if vstack:
                vstack.pop()
            else:
                lines.append("    stack.pop()")
        elif op == Op.DUP:
            a = vpop()
            vpush(a)
            vpush(a)
        elif op == Op.DUP_X1:
            a = vpop()
            b = vpop()
            vpush(a)
            vpush(b)
            vpush(a)
        elif op == Op.SWAP:
            a = vpop()
            b = vpop()
            vpush(a)
            vpush(b)
        elif op in (Op.ICONST, Op.FCONST):
            vpush(const(arg))
        elif op == Op.ACONST_NULL:
            vpush("None")
        elif op == Op.LOAD:
            assign("local_vars[%d]" % arg)
        elif op == Op.STORE:
            a = vpop()
            lines.append("    local_vars[%d] = %s" % (arg, a))
        elif op == Op.IINC:
            index, delta = arg
            lines.append("    local_vars[%d] = i32(local_vars[%d] + %d)"
                         % (index, index, delta))
        elif op in _BIN_INT:
            b = vpop()
            a = vpop()
            assign("i32(%s %s %s)" % (a, _BIN_INT[op], b))
        elif op in (Op.IDIV, Op.IREM):
            b = vpop()
            a = vpop()
            fn, msg = (("idiv", "/ by zero") if op == Op.IDIV
                       else ("irem", "% by zero"))
            lines.append("    if %s == 0:" % b)
            lines.append("        interp.instructions += %d"
                         % (pc - start + 1))
            lines.append("        raise ArithmeticException(%r)" % msg)
            assign("%s(%s, %s)" % (fn, a, b))
        elif op == Op.INEG:
            a = vpop()
            assign("i32(-%s)" % a)
        elif op in _SHIFTS:
            b = vpop()
            a = vpop()
            assign("i32(%s %s (%s & 31))" % (a, _SHIFTS[op], b))
        elif op == Op.IUSHR:
            b = vpop()
            a = vpop()
            assign("i32(u32(%s) >> (%s & 31))" % (a, b))
        elif op in _BIN_FLOAT:
            b = vpop()
            a = vpop()
            assign("%s %s %s" % (a, _BIN_FLOAT[op], b))
        elif op == Op.FDIV:
            b = vpop()
            a = vpop()
            assign("%s / %s if %s != 0.0 else _fdz(%s)" % (a, b, b, a))
        elif op == Op.FREM:
            b = vpop()
            a = vpop()
            assign("_frem(%s, %s) if %s != 0.0 else _NAN" % (a, b, b))
        elif op == Op.FNEG:
            a = vpop()
            assign("-%s" % a)
        elif op == Op.I2F:
            a = vpop()
            assign("float(%s)" % a)
        elif op == Op.F2I:
            a = vpop()
            assign("f2i(%s)" % a)
        elif op == Op.FCMP:
            b = vpop()
            a = vpop()
            assign("-1 if (%s != %s or %s != %s) else"
                   " (%s > %s) - (%s < %s)"
                   % (a, a, b, b, a, b, a, b))
        else:                            # pragma: no cover - guarded above
            raise AssertionError("non-batchable opcode in block: %s" % op)

    if branch_pc is None:
        count = len(pcs)
        end_pc_holder[0] = start + count
        vflush()
        lines.extend(count_lines(count))
        lines.append("    return _CONT")
        return name, lines

    branch = code[branch_pc]
    op = branch.op
    count = branch_pc - start + 1
    if op == Op.GOTO:
        vflush()
        end_pc_holder[0] = branch.arg
        lines.extend(count_lines(count))
        lines.append("    return _CONT")
        return name, lines

    if op in _IF_ZERO:
        a = vpop()
        cond = _IF_ZERO[op] % a
    elif op in _IF_ICMP:
        b = vpop()
        a = vpop()
        cond = _IF_ICMP[op] % (a, b)
    else:
        template, npop = _IF_REF[op]
        if npop == 2:
            b = vpop()
            a = vpop()
            cond = template % (a, b)
        else:
            a = vpop()
            cond = template % a
    vflush()
    lines.append("    interp.instructions += %d" % count)
    lines.append("    if interp.instructions > interp.max_instructions:")
    lines.append("        raise VMError('instruction budget exceeded')")
    lines.append("    if %s:" % cond)
    lines.append("        frame.pc = %d" % branch.arg)
    lines.append("    else:")
    lines.append("        frame.pc = %d" % (branch_pc + 1))
    lines.append("    return _CONT")
    return name, lines


# ---------------------------------------------------------------------------
# specialised singleton handlers
# ---------------------------------------------------------------------------

def _make_singleton(instr, pc):
    op = instr.op
    arg = instr.arg
    next_pc = pc + 1

    from ..bytecode.interpreter import GuestArray, GuestObject

    if op in (Op.NEWARRAY_I, Op.NEWARRAY_F, Op.NEWARRAY_A):
        kind = {Op.NEWARRAY_I: "int", Op.NEWARRAY_F: "float",
                Op.NEWARRAY_A: "ref"}[op]

        def newarray(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            stack[-1] = GuestArray(kind, stack[-1])
            return _CONT
        return newarray

    if op == Op.ARRAYLENGTH:
        def arraylength(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            array = stack.pop()
            if array is None:
                raise NullPointerException("arraylength")
            stack.append(len(array.data))
            return _CONT
        return arraylength

    if op in (Op.IALOAD, Op.FALOAD, Op.AALOAD):
        def aload(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            index = stack.pop()
            array = stack.pop()
            if array is None:
                raise NullPointerException("array load")
            data = array.data
            if index < 0 or index >= len(data):
                raise ArrayIndexException("index %d, length %d"
                                          % (index, len(data)))
            stack.append(data[index])
            return _CONT
        return aload

    if op in (Op.IASTORE, Op.FASTORE, Op.AASTORE):
        def astore(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is None:
                raise NullPointerException("array store")
            data = array.data
            if index < 0 or index >= len(data):
                raise ArrayIndexException("index %d, length %d"
                                          % (index, len(data)))
            data[index] = value
            return _CONT
        return astore

    if op == Op.NEW:
        def new(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            frame.stack.append(GuestObject(interp.program.get_class(arg)))
            return _CONT
        return new

    if op == Op.GETFIELD:
        field_name = arg[1]
        npe_msg = "getfield %s" % (arg,)

        def getfield(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            obj = stack.pop()
            if obj is None:
                raise NullPointerException(npe_msg)
            stack.append(obj.fields[field_name])
            return _CONT
        return getfield

    if op == Op.PUTFIELD:
        field_name = arg[1]
        npe_msg = "putfield %s" % (arg,)

        def putfield(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            value = stack.pop()
            obj = stack.pop()
            if obj is None:
                raise NullPointerException(npe_msg)
            obj.fields[field_name] = value
            return _CONT
        return putfield

    if op == Op.GETSTATIC:
        def getstatic(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            key, field = interp._static_key(*arg)
            default = 0.0 if field.type.is_float() else (
                None if field.type.is_reference() else 0)
            frame.stack.append(interp.statics.get(key, default))
            return _CONT
        return getstatic

    if op == Op.PUTSTATIC:
        def putstatic(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            key, __ = interp._static_key(*arg)
            interp.statics[key] = frame.stack.pop()
            return _CONT
        return putstatic

    if op == Op.INVOKESTATIC:
        def invokestatic(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            callee = interp.program.resolve_method(*arg)
            nargs = len(callee.param_types)
            args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            result = interp.call(callee, args)
            if not callee.return_type.is_void():
                stack.append(result)
            return _CONT
        return invokestatic

    if op == Op.INVOKEVIRTUAL:
        npe_msg = "invoke %s" % (arg,)

        def invokevirtual(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            callee = interp.program.resolve_method(*arg)
            nargs = len(callee.param_types)
            args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            receiver = stack.pop()
            if receiver is None:
                raise NullPointerException(npe_msg)
            actual = receiver.cls.find_method(callee.name)
            result = interp.call(actual, [receiver] + args)
            if not callee.return_type.is_void():
                stack.append(result)
            return _CONT
        return invokevirtual

    if op == Op.RETURN:
        def ret_void(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            return (None,)
        return ret_void

    if op == Op.RETURN_VALUE:
        def ret_value(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            return (frame.stack.pop(),)
        return ret_value

    if op in (Op.MONITORENTER, Op.MONITOREXIT):
        def monitor(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            if frame.stack.pop() is None:
                raise NullPointerException("monitor")
            return _CONT
        return monitor

    if op == Op.INTRINSIC:
        name, nargs = arg
        intrinsic = intrinsics.lookup(name)
        fn = intrinsic.fn
        is_output = intrinsic.is_output
        has_result = intrinsic.has_result()

        def intrin(interp, frame):
            frame.pc = next_pc
            interp.instructions += 1
            if interp.instructions > interp.max_instructions:
                raise VMError("instruction budget exceeded")
            stack = frame.stack
            args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            if is_output:
                interp.output.append(args[0])
            else:
                result = fn(*args)
                if has_result:
                    stack.append(result)
            return _CONT
        return intrin

    def unhandled(interp, frame):
        frame.pc = next_pc
        interp.instructions += 1
        if interp.instructions > interp.max_instructions:
            raise VMError("instruction budget exceeded")
        raise VMError("unhandled opcode %s" % op)
    return unhandled
