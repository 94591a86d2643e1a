"""Register-machine IR — the microJIT's "native code".

The IR plays the role of the MIPS machine code in the paper: it is what
the simulated Hydra cores execute, what the TEST annotation instructions
are woven into, and what the STL recompiler transforms.

Registers are virtual (no spilling).  By convention register 0 holds the
constant zero; bytecode local *v* lives in register ``1 + v``; operand
stack depth *d* lives in ``1 + max_locals + d``; temporaries follow.
Branch targets are :class:`Label` objects until :func:`finalize` resolves
them to instruction indices (labels occupy no executable slot).
"""

from enum import IntEnum, unique


@unique
class IROp(IntEnum):
    LABEL = 0           # pseudo: target marker, removed by finalize()

    # -- moves / constants ------------------------------------------------
    LI = 1              # dst <- imm (int or float)
    MOV = 2             # dst <- a

    # -- integer ALU (Java 32-bit wrapping) ---------------------------------
    ADD = 10
    SUB = 11
    MUL = 12
    DIV = 13            # traps on zero divisor
    REM = 14
    NEG = 15
    AND = 16
    OR = 17
    XOR = 18
    SHL = 19
    SHR = 20
    USHR = 21
    ADDI = 22           # dst <- a + imm
    SLLI = 23           # dst <- a << imm

    # -- float ALU -----------------------------------------------------------
    FADD = 30
    FSUB = 31
    FMUL = 32
    FDIV = 33
    FNEG = 34
    FREM = 35

    # -- compares / conversions ------------------------------------------------
    SEQ = 40            # dst <- (a == b)
    SNE = 41
    SLT = 42
    SLE = 43
    SGT = 44
    SGE = 45
    FCMP = 46           # dst <- -1/0/1 (NaN -> -1)
    I2F = 47
    F2I = 48

    # -- control flow ------------------------------------------------------------
    J = 50              # jump to target
    BEQ = 51            # branch if a == b
    BNE = 52
    BLT = 53
    BGE = 54
    BGT = 55
    BLE = 56
    BEQZ = 57           # branch if a == 0
    BNEZ = 58

    # -- memory ---------------------------------------------------------------
    LW = 60             # dst <- mem[a + imm]   (a None -> absolute)
    SW = 61             # mem[b + imm] <- a     (b None -> absolute)
    LWNV = 62           # non-violating load (paper's lwnv)

    # -- runtime services ---------------------------------------------------------
    ALLOC = 70          # dst <- allocate a bytes; aux=AllocInfo
    CALL = 71           # dst <- call aux=(cls,name) with args (static)
    CALLV = 72          # dst <- virtual call, receiver = args[0]
    RET = 73            # return a (or None)
    INTRIN = 74         # dst <- intrinsic aux=name over args
    MONENTER = 75       # acquire object lock at a
    MONEXIT = 76
    NULLCHK = 77        # trap NullPointerException if a == 0
    BOUNDCHK = 78       # trap ArrayIndexOutOfBounds unless 0 <= a < b
    TRAP = 79           # raise guest exception aux=kind

    # -- TEST annotation instructions (Table 2) ----------------------------------
    SLOOP = 80          # start candidate loop aux=loop_id, imm=#local slots
    EOI = 81            # end of iteration for aux=loop_id
    ELOOP = 82          # end of candidate loop aux=loop_id
    LWL = 83            # local-variable load annotation, imm=slot, aux=loop_id
    SWL = 84            # local-variable store annotation, imm=slot, aux=loop_id

    # -- TLS pseudo-ops (STL-compiled code) ------------------------------------------
    STL_RUN = 90        # run speculative loop aux=StlDescriptor; dst <- exit id
    STL_EOI_END = 91    # end of one speculative thread (thread code only)
    STL_EXIT = 92       # leave the loop via exit aux=exit_id (thread code only)
    WAITLOCK = 93       # spin with lwnv on fp slot imm until it equals iteration
    SIGNAL = 94         # store iteration+1 to fp slot imm
    FORCE_RESET = 95    # reset-able inductor written unpredictably; aux=info


#: Branch-family ops (have a label/index target).
BRANCH_IR_OPS = frozenset({
    IROp.J, IROp.BEQ, IROp.BNE, IROp.BLT, IROp.BGE, IROp.BGT, IROp.BLE,
    IROp.BEQZ, IROp.BNEZ,
})

COND_IR_BRANCHES = BRANCH_IR_OPS - {IROp.J}

#: TEST annotation ops (Table 2): a profiler hook plus 1 cycle each.
ANNOTATION_IR_OPS = frozenset({IROp.SLOOP, IROp.EOI, IROp.ELOOP,
                               IROp.LWL, IROp.SWL})

#: ``aux`` of the ``J`` closing an annotation stub (a taken branch
#: retargeted through an annotation, :mod:`repro.jit.annotate`).  With
#: the annotation ops these are the *annotation-only* instructions:
#: removing them leaves the plain native code, so an annotated run
#: minus their count (1 cycle each) is exactly the baseline run.
ANNOTATION_STUB = "annotation-stub"

#: Ops after which control never falls through.
IR_TERMINATORS = frozenset({IROp.J, IROp.RET, IROp.TRAP, IROp.STL_EOI_END,
                            IROp.STL_EXIT})

_TWO_SRC = frozenset({
    IROp.ADD, IROp.SUB, IROp.MUL, IROp.DIV, IROp.REM, IROp.AND, IROp.OR,
    IROp.XOR, IROp.SHL, IROp.SHR, IROp.USHR,
    IROp.FADD, IROp.FSUB, IROp.FMUL, IROp.FDIV, IROp.FREM,
    IROp.SEQ, IROp.SNE, IROp.SLT, IROp.SLE, IROp.SGT, IROp.SGE, IROp.FCMP,
    IROp.BEQ, IROp.BNE, IROp.BLT, IROp.BGE, IROp.BGT, IROp.BLE,
    IROp.BOUNDCHK,
})

_ONE_SRC = frozenset({
    IROp.MOV, IROp.NEG, IROp.FNEG, IROp.ADDI, IROp.SLLI, IROp.I2F, IROp.F2I,
    IROp.BEQZ, IROp.BNEZ, IROp.RET, IROp.MONENTER, IROp.MONEXIT,
    IROp.NULLCHK, IROp.ALLOC,
})

#: Ops that write their ``dst`` register.
DEF_OPS = frozenset({
    IROp.LI, IROp.MOV, IROp.ADD, IROp.SUB, IROp.MUL, IROp.DIV, IROp.REM,
    IROp.NEG, IROp.AND, IROp.OR, IROp.XOR, IROp.SHL, IROp.SHR, IROp.USHR,
    IROp.ADDI, IROp.SLLI, IROp.FADD, IROp.FSUB, IROp.FMUL, IROp.FDIV,
    IROp.FNEG, IROp.FREM, IROp.SEQ, IROp.SNE, IROp.SLT, IROp.SLE, IROp.SGT,
    IROp.SGE, IROp.FCMP, IROp.I2F, IROp.F2I, IROp.LW, IROp.LWNV, IROp.ALLOC,
    IROp.CALL, IROp.CALLV, IROp.INTRIN, IROp.STL_RUN,
})


class Label:
    """Symbolic branch target; resolved to an index by finalize()."""

    __slots__ = ("name",)
    _counter = [0]

    def __init__(self, name=None):
        if name is None:
            Label._counter[0] += 1
            name = "L%d" % Label._counter[0]
        self.name = name

    def __repr__(self):
        return self.name


class AllocInfo:
    """Static metadata attached to an ALLOC instruction."""

    __slots__ = ("kind", "class_name", "class_id", "is_array", "elem_kind")

    def __init__(self, kind, class_name=None, class_id=None, is_array=False,
                 elem_kind=None):
        self.kind = kind                # "object" | "array"
        self.class_name = class_name
        self.class_id = class_id
        self.is_array = is_array
        self.elem_kind = elem_kind      # "int" | "float" | "ref"

    def __repr__(self):
        if self.is_array:
            return "array[%s]" % self.elem_kind
        return "object %s" % self.class_name


class IRInstr:
    """One IR instruction."""

    __slots__ = ("op", "dst", "a", "b", "imm", "target", "aux", "args",
                 "line")

    def __init__(self, op, dst=None, a=None, b=None, imm=None, target=None,
                 aux=None, args=None, line=None):
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b
        self.imm = imm
        self.target = target
        self.aux = aux
        self.args = args
        self.line = line

    # -- dataflow accessors ---------------------------------------------------
    def defs(self):
        """Register written by this instruction, or None."""
        if self.op in DEF_OPS:
            return self.dst
        return None

    def uses(self):
        """Registers read by this instruction."""
        op = self.op
        used = []
        if op in _TWO_SRC:
            if self.a is not None:
                used.append(self.a)
            if self.b is not None:
                used.append(self.b)
        elif op in _ONE_SRC:
            if self.a is not None:
                used.append(self.a)
        elif op in (IROp.LW, IROp.LWNV):
            if self.a is not None:
                used.append(self.a)
        elif op == IROp.SW:
            used.append(self.a)
            if self.b is not None:
                used.append(self.b)
        elif op in (IROp.CALL, IROp.CALLV, IROp.INTRIN):
            used.extend(self.args or ())
        elif op == IROp.STL_RUN and self.aux is not None:
            # The TLS runtime reads these master registers at startup
            # (init values + reduction entry values); liveness must see
            # them or a sibling STL transform will fail to communicate
            # a value this region consumes.
            used.extend(reg for __, reg in self.aux.init_values)
            used.extend(spec.acc_reg for spec in self.aux.reductions)
        return used

    def is_branch(self):
        return self.op in BRANCH_IR_OPS

    def __repr__(self):
        parts = [self.op.name]
        if self.dst is not None:
            parts.append("r%d" % self.dst)
        for reg in (self.a, self.b):
            if reg is not None:
                parts.append("r%d" % reg)
        if self.imm is not None:
            parts.append("#%r" % (self.imm,))
        if self.target is not None:
            parts.append("->%r" % (self.target,))
        if self.aux is not None:
            parts.append("{%r}" % (self.aux,))
        if self.args:
            parts.append("(%s)" % ",".join("r%d" % r for r in self.args))
        return " ".join(parts)


class IRMethod:
    """A compiled method: label-form IR plus register bookkeeping."""

    def __init__(self, name, num_params, returns_value, nregs,
                 is_synchronized=False, sync_static_class=None):
        self.name = name
        self.num_params = num_params      # params arrive in regs 1..num_params
        self.returns_value = returns_value
        self.nregs = nregs
        self.is_synchronized = is_synchronized
        self.sync_static_class = sync_static_class
        self.code = []                    # label-form: IRInstr + LABEL markers
        self.finalized = None             # list[IRInstr] with int targets
        self.stls = {}                    # stl id -> StlDescriptor
        self.num_locals = 0               # bytecode locals live in r1..r(n)

    def new_reg(self):
        reg = self.nregs
        self.nregs += 1
        return reg

    def emit(self, op, **kwargs):
        instr = IRInstr(op, **kwargs)
        self.code.append(instr)
        return instr

    def finalize(self):
        """Resolve labels to indices and strip LABEL markers."""
        self.finalized = finalize(self.code)
        return self.finalized

    def __repr__(self):
        return "<IRMethod %s regs=%d len=%d>" % (
            self.name, self.nregs, len(self.code))


def finalize(code):
    """Resolve Label targets to integer indices; returns executable list."""
    return finalize_with_positions(code)[0]


def finalize_with_positions(code):
    """Like :func:`finalize` but also returns {Label: index}."""
    positions = {}
    out = []
    for instr in code:
        if instr.op == IROp.LABEL:
            positions[instr.aux] = len(out)
        else:
            out.append(instr)
    executable = []
    for instr in out:
        if isinstance(instr.target, Label):
            clone = IRInstr(instr.op, instr.dst, instr.a, instr.b, instr.imm,
                            positions[instr.target], instr.aux, instr.args,
                            instr.line)
            executable.append(clone)
        else:
            executable.append(instr)
    return executable, positions


def label_instr(label):
    return IRInstr(IROp.LABEL, aux=label)
