"""Unit tests for the MiniJava tokenizer."""

import pytest

from repro.errors import CompileError
from repro.minijava.lexer import tokenize


def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src)[:-1]]


def test_keywords_vs_identifiers():
    toks = kinds("class Foo extends Bar")
    assert toks == [("kw", "class"), ("id", "Foo"), ("kw", "extends"),
                    ("id", "Bar")]


def test_identifier_with_underscore_and_digits():
    assert kinds("_x9 y_1") == [("id", "_x9"), ("id", "y_1")]


def test_int_literal():
    assert kinds("42") == [("int", 42)]


def test_hex_literal():
    assert kinds("0x7FFFFFFF") == [("int", 0x7FFFFFFF)]
    assert kinds("0xff") == [("int", 255)]


@pytest.mark.parametrize("src", ["0x", "0X;", "0xg"])
def test_hex_prefix_without_digits(src):
    with pytest.raises(CompileError) as info:
        tokenize("int a;\nint b = " + src)
    assert info.value.line == 2


def test_float_literal():
    assert kinds("3.25") == [("float", 3.25)]


def test_float_exponent():
    assert kinds("1e3 2.5e-2") == [("float", 1000.0), ("float", 0.025)]


def test_float_f_suffix():
    assert kinds("1.5f") == [("float", 1.5)]


def test_leading_dot_float():
    assert kinds(".5") == [("float", 0.5)]


def test_line_comment():
    assert kinds("a // comment\n b") == [("id", "a"), ("id", "b")]


def test_block_comment():
    assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]


def test_unterminated_block_comment():
    with pytest.raises(CompileError):
        tokenize("a /* never closed")


def test_multichar_operators_longest_match():
    ops = [v for k, v in kinds("a >>> b >> c >= d > e")]
    assert ops == ["a", ">>>", "b", ">>", "c", ">=", "d", ">", "e"]


def test_compound_assignment_operators():
    ops = [v for __, v in kinds("+= -= *= /= %= &= |= ^= <<= >>= >>>=")]
    assert ops == ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                   "<<=", ">>=", ">>>="]


def test_increment_decrement():
    assert [v for __, v in kinds("++ --")] == ["++", "--"]


def test_line_numbers():
    toks = tokenize("a\nb\n\nc")
    lines = [t.line for t in toks[:-1]]
    assert lines == [1, 2, 4]


def test_unexpected_character():
    with pytest.raises(CompileError):
        tokenize("a $ b")


def test_eof_token():
    toks = tokenize("x")
    assert toks[-1].kind == "eof"


def test_boolean_literals_are_keywords():
    assert kinds("true false null this") == [
        ("kw", "true"), ("kw", "false"), ("kw", "null"), ("kw", "this")]
