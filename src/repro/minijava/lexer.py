"""Tokenizer for the MiniJava dialect."""

from ..errors import CompileError

KEYWORDS = frozenset({
    "class", "extends", "static", "synchronized", "void", "int", "float",
    "boolean", "if", "else", "while", "for", "do", "return", "new", "this",
    "null", "true", "false", "break", "continue",
})

# Longest-match-first multi-character operators.
OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]


class Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind      # "id", "kw", "int", "float", "op", "eof"
        self.value = value
        self.line = line

    def __repr__(self):
        return "Token(%s, %r, line %d)" % (self.kind, self.value, self.line)


def tokenize(source):
    tokens = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise CompileError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and not source.startswith("..", j):
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            if j < n and source[j] in "fF":
                is_float = True
                text = source[i:j]
                j += 1
            else:
                text = source[i:j]
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise CompileError("hex literal %r has no digits"
                                       % source[i:i + 2], line)
                tokens.append(Token("int", int(source[i:j], 16), line))
                i = j
                continue
            if is_float:
                tokens.append(Token("float", float(text), line))
            else:
                tokens.append(Token("int", int(text), line))
            i = j
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                break
        else:
            raise CompileError("unexpected character %r" % ch, line)
    tokens.append(Token("eof", None, line))
    return tokens
