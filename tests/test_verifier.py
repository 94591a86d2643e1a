"""Bytecode verifier unit tests."""

import pytest

from repro.bytecode import (ClassDef, INT, Instr, Method, Op, Program,
                            VOID, verify_method, verify_program)
from repro.errors import VerifyError
from repro.minijava import compile_source


def build_method(code, max_locals=4, return_type=INT):
    program = Program()
    cls = program.add_class(ClassDef("T"))
    method = Method("m", cls, [], return_type, is_static=True)
    method.max_locals = max_locals
    method.code = code
    cls.add_method(method)
    program.seal()
    return program, method


def test_accepts_simple_return():
    program, method = build_method([
        Instr(Op.ICONST, 1), Instr(Op.RETURN_VALUE)])
    verify_method(program, method)


def test_rejects_missing_terminator():
    program, method = build_method([Instr(Op.ICONST, 1), Instr(Op.POP)])
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_stack_underflow():
    program, method = build_method([Instr(Op.POP), Instr(Op.RETURN)],
                                   return_type=VOID)
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_value_left_on_void_return():
    program, method = build_method([Instr(Op.ICONST, 1), Instr(Op.RETURN)],
                                   return_type=VOID)
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_value_return_from_void_method():
    program, method = build_method([
        Instr(Op.ICONST, 1), Instr(Op.RETURN_VALUE)], return_type=VOID)
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_out_of_range_local():
    program, method = build_method([
        Instr(Op.LOAD, 9), Instr(Op.RETURN_VALUE)], max_locals=2)
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_branch_out_of_range():
    program, method = build_method([
        Instr(Op.GOTO, 99), Instr(Op.ICONST, 0), Instr(Op.RETURN_VALUE)])
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_inconsistent_join_depth():
    # Path A pushes one value, path B pushes two, joining at pc 5.
    program, method = build_method([
        Instr(Op.LOAD, 0),          # 0
        Instr(Op.IFEQ, 4),          # 1 -> jump to 4 with depth 0
        Instr(Op.ICONST, 1),        # 2
        Instr(Op.ICONST, 2),        # 3: depth 2 falls into 4
        Instr(Op.ICONST, 3),        # 4: join with different depths
        Instr(Op.RETURN_VALUE),     # 5
    ])
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_unknown_field():
    program, method = build_method([
        Instr(Op.GETSTATIC, ("T", "missing")), Instr(Op.RETURN_VALUE)])
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_static_instance_mismatch():
    from repro.bytecode import Field
    program = Program()
    cls = program.add_class(ClassDef("T"))
    cls.add_field(Field("f", INT, is_static=False))
    method = Method("m", cls, [], INT, is_static=True)
    method.max_locals = 1
    method.code = [Instr(Op.GETSTATIC, ("T", "f")), Instr(Op.RETURN_VALUE)]
    cls.add_method(method)
    program.seal()
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_rejects_bad_intrinsic_arity():
    program, method = build_method([
        Instr(Op.ICONST, 1),
        Instr(Op.INTRINSIC, ("sqrt", 2)),
        Instr(Op.RETURN_VALUE)])
    with pytest.raises(VerifyError):
        verify_method(program, method)


def test_frontend_output_always_verifies():
    src = """
class Main {
    static int helper(int a, int b) {
        int best = a;
        if (b > a) { best = b; }
        while (best > 10) { best -= 3; }
        return best;
    }
    static int main() {
        int total = 0;
        for (int i = 0; i < 5; i++) {
            total += helper(i, i * 2) + (i % 2 == 0 ? 1 : -1);
        }
        return total;
    }
}
"""
    verify_program(compile_source(src))


def test_depths_returned_for_reachable_code():
    program, method = build_method([
        Instr(Op.ICONST, 1),
        Instr(Op.ICONST, 2),
        Instr(Op.IADD),
        Instr(Op.RETURN_VALUE)])
    depths = verify_method(program, method)
    assert depths == [0, 1, 2, 1]
