"""Java semantics in the reference interpreter (the oracle)."""

import pytest

from repro.bytecode import Interpreter
from repro.bytecode.instructions import f2i, i32, idiv, irem, u32
from repro.errors import (ArithmeticException, ArrayIndexException,
                          NullPointerException, VMError)
from repro.minijava import compile_source

from conftest import interp, wrap_main


class TestInt32Helpers:
    def test_i32_wraps_positive_overflow(self):
        assert i32(2**31) == -2**31

    def test_i32_wraps_negative_overflow(self):
        assert i32(-2**31 - 1) == 2**31 - 1

    def test_i32_identity_in_range(self):
        assert i32(12345) == 12345
        assert i32(-12345) == -12345

    def test_u32_view(self):
        assert u32(-1) == 0xFFFFFFFF

    def test_idiv_truncates_toward_zero(self):
        assert idiv(-7, 2) == -3
        assert idiv(7, -2) == -3
        assert idiv(7, 2) == 3

    def test_irem_sign_follows_dividend(self):
        assert irem(-7, 3) == -1
        assert irem(7, -3) == 1

    def test_idiv_min_int_overflow_wraps(self):
        assert idiv(-2**31, -1) == -2**31

    def test_f2i_saturates(self):
        assert f2i(1e18) == 2**31 - 1
        assert f2i(-1e18) == -2**31

    def test_f2i_nan_is_zero(self):
        assert f2i(float("nan")) == 0

    def test_f2i_truncates(self):
        assert f2i(2.9) == 2
        assert f2i(-2.9) == -2


class TestArithmetic:
    def test_int_overflow_wraps(self):
        result = interp(wrap_main(
            "int x = 2147483647; x = x + 1; Sys.printInt(x); return 0;"))
        assert result.output == [-2147483648]

    def test_int_mul_wraps(self):
        result = interp(wrap_main(
            "int x = 100000 * 100000; Sys.printInt(x); return 0;"))
        assert result.output == [i32(100000 * 100000)]

    def test_java_division(self):
        result = interp(wrap_main(
            "Sys.printInt(-7 / 2); Sys.printInt(-7 % 2); return 0;"))
        assert result.output == [-3, -1]

    def test_div_by_zero_raises(self):
        with pytest.raises(ArithmeticException):
            interp(wrap_main("int z = 0; return 5 / z;"))

    def test_rem_by_zero_raises(self):
        with pytest.raises(ArithmeticException):
            interp(wrap_main("int z = 0; return 5 % z;"))

    def test_shift_count_masked_to_31(self):
        result = interp(wrap_main(
            "int s = 33; Sys.printInt(1 << s); return 0;"))
        assert result.output == [2]

    def test_ushr_on_negative(self):
        result = interp(wrap_main("Sys.printInt(-1 >>> 28); return 0;"))
        assert result.output == [15]

    def test_shr_arithmetic(self):
        result = interp(wrap_main("Sys.printInt(-8 >> 1); return 0;"))
        assert result.output == [-4]

    def test_float_div_by_zero_is_infinite(self):
        result = interp(wrap_main(
            "float z = 0.0; float x = 1.0 / z;"
            " Sys.printInt(x > 1000000.0 ? 1 : 0); return 0;"))
        assert result.output == [1]

    def test_int_float_promotion(self):
        result = interp(wrap_main(
            "float x = 3 + 0.5; Sys.printFloat(x); return 0;"))
        assert result.output == [3.5]


class TestRuntimeExceptions:
    def test_null_field_access(self):
        src = """
class Box { int v; }
class Main {
    static int main() { Box b = null; return b.v; }
}
"""
        with pytest.raises(NullPointerException):
            interp(src)

    def test_array_bounds_low(self):
        with pytest.raises(ArrayIndexException):
            interp(wrap_main(
                "int[] a = new int[3]; int i = -1; return a[i];"))

    def test_array_bounds_high(self):
        with pytest.raises(ArrayIndexException):
            interp(wrap_main(
                "int[] a = new int[3]; int i = 3; return a[i];"))

    def test_null_array_length(self):
        with pytest.raises(NullPointerException):
            interp(wrap_main("int[] a = null; return a.length;"))


class TestObjects:
    def test_fields_default_to_zero(self):
        src = """
class Box { int v; float f; Box next; }
class Main {
    static int main() {
        Box b = new Box();
        Sys.printInt(b.v);
        Sys.printFloat(b.f);
        Sys.printInt(b.next == null ? 1 : 0);
        return 0;
    }
}
"""
        assert interp(src).output == [0, 0.0, 1]

    def test_virtual_dispatch_uses_runtime_class(self):
        src = """
class Animal { int sound() { return 1; } }
class Dog extends Animal { int sound() { return 2; } }
class Main {
    static int main() {
        Animal a = new Dog();
        return a.sound();
    }
}
"""
        assert interp(src).return_value == 2

    def test_inherited_field_access(self):
        src = """
class Base { int x; }
class Derived extends Base { int y; }
class Main {
    static int main() {
        Derived d = new Derived();
        d.x = 5;
        d.y = 7;
        return d.x + d.y;
    }
}
"""
        assert interp(src).return_value == 12

    def test_static_fields_shared(self):
        src = """
class Counter { static int total; }
class Main {
    static int main() {
        Counter.total = 3;
        Counter.total += 4;
        return Counter.total;
    }
}
"""
        assert interp(src).return_value == 7

    def test_reference_identity_compare(self):
        src = wrap_main("""
        int[] a = new int[1];
        int[] b = new int[1];
        int[] c = a;
        Sys.printInt(a == b ? 1 : 0);
        Sys.printInt(a == c ? 1 : 0);
        return 0;
        """)
        assert interp(src).output == [0, 1]


class TestControlFlow:
    def test_short_circuit_and_skips_rhs(self):
        src = """
class Main {
    static int calls;
    static int bump() { calls++; return 1; }
    static int main() {
        int ok = (0 > 1 && bump() > 0) ? 1 : 0;
        Sys.printInt(calls);
        return ok;
    }
}
"""
        result = interp(src)
        assert result.output == [0] and result.return_value == 0

    def test_short_circuit_or_skips_rhs(self):
        src = """
class Main {
    static int calls;
    static int bump() { calls++; return 1; }
    static int main() {
        int ok = (1 > 0 || bump() > 0) ? 1 : 0;
        Sys.printInt(calls);
        return ok;
    }
}
"""
        result = interp(src)
        assert result.output == [0] and result.return_value == 1

    def test_break_and_continue(self):
        src = wrap_main("""
        int s = 0;
        for (int i = 0; i < 10; i++) {
            if (i == 3) { continue; }
            if (i == 7) { break; }
            s += i;
        }
        return s;
        """)
        assert interp(src).return_value == 0 + 1 + 2 + 4 + 5 + 6

    def test_nested_break_breaks_inner_only(self):
        src = wrap_main("""
        int s = 0;
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 10; j++) {
                if (j == 2) { break; }
                s++;
            }
        }
        return s;
        """)
        assert interp(src).return_value == 6

    def test_recursion(self):
        src = """
class Main {
    static int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
    static int main() { return fact(8); }
}
"""
        assert interp(src).return_value == 40320


class TestInstructionCount:
    """``instructions`` counts every executed bytecode; the counts below
    are hand-counted from the programs' bytecode."""

    def test_straight_line(self):
        # ICONST STORE LOAD ICONST IADD STORE LOAD RETURN_VALUE
        result = interp(wrap_main("int x = 3; int y = x + 4; return y;"))
        assert (result.return_value, result.instructions) == (7, 8)

    def test_loop(self):
        # 4 to set up s and i; 3 per test (LOAD ICONST IF_ICMPGE) x 4;
        # 6 per body (LOAD LOAD IADD STORE IINC GOTO) x 3; 2 to return
        result = interp(wrap_main(
            "int s = 0; for (int i = 0; i < 3; i++) { s = s + i; }"
            " return s;"))
        assert (result.return_value, result.instructions) == (3, 36)

    def test_call(self):
        # main: ICONST INVOKESTATIC RETURN_VALUE;
        # twice: LOAD LOAD IADD RETURN_VALUE
        result = interp(wrap_main(
            "return Main.twice(5);",
            prelude="static int twice(int v) { return v + v; }"))
        assert (result.return_value, result.instructions) == (10, 7)

    def test_budget_exceeded_raises(self):
        program = compile_source(wrap_main(
            "int s = 0; for (int i = 0; i < 1000; i++) { s = s + i; }"
            " return s;"))
        assert Interpreter(program).run().instructions > 1000
        with pytest.raises(VMError):
            Interpreter(program, max_instructions=1000).run()
