"""JVM-like bytecode: ISA, containers, verifier, reference interpreter."""

from .instructions import Instr, f2i, i32, idiv, irem, u32
from .module import (BOOLEAN, ClassDef, Field, FLOAT, HEADER_BYTES,
                     HEADER_WORDS, INT, Method, Program, Type, VOID, WORD)
from .opcodes import Op
from .interpreter import Interpreter, run_program
from .verifier import verify_method, verify_program

__all__ = [
    "Instr", "Op", "i32", "u32", "idiv", "irem", "f2i",
    "Program", "ClassDef", "Field", "Method", "Type",
    "INT", "FLOAT", "BOOLEAN", "VOID", "WORD", "HEADER_WORDS", "HEADER_BYTES",
    "Interpreter", "run_program", "verify_method", "verify_program",
]
