"""Line/indent-based lexer for .ml0 sources."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MiniSyntaxError

KEYWORDS = {
    "def", "return", "assert", "if", "elif", "else", "while",
    "and", "or", "not", "True", "False",
}

# matched longest first, so '<<' wins over '<'
OPERATORS = {
    "//=", "<<", ">>", "==", "!=", "<=", ">=", "//",
    "+=", "-=", "*=", "/=", "%=",
    "+", "-", "*", "/", "%", "<", ">", "=", "|", "^", "&",
    "(", ")", "[", "]", ",", ":",
}


@dataclass
class Token:
    kind: str  # NAME KEYWORD INT FLOAT STRING OP NEWLINE INDENT DEDENT EOF
    value: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.value!r},{self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    indents = [0]
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip()
        stripped = line.lstrip(" ")
        if stripped == "" or stripped.startswith("#"):
            continue
        if "\t" in line[: len(line) - len(stripped)]:
            raise MiniSyntaxError("tabs are not allowed in indentation", lineno, 1)
        indent = len(line) - len(stripped)
        if indent > indents[-1]:
            indents.append(indent)
            tokens.append(Token("INDENT", "", lineno, 1))
        else:
            while indent < indents[-1]:
                indents.pop()
                tokens.append(Token("DEDENT", "", lineno, 1))
            if indent != indents[-1]:
                raise MiniSyntaxError("inconsistent indentation", lineno, indent + 1)
        _lex_line(line, lineno, indent, tokens)
        tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", len(lines), 1))
    tokens.append(Token("EOF", "", len(lines) + 1, 1))
    return tokens


def _lex_line(line: str, lineno: int, start: int, out: list[Token]) -> None:
    i = start
    n = len(line)
    while i < n:
        c = line[i]
        col = i + 1
        if c == " ":
            i += 1
            continue
        if c == "#":
            return
        if c.isalpha() or c == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            word = line[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            out.append(Token(kind, word, lineno, col))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and line[j].isdigit():
                j += 1
            is_float = False
            if j < n and line[j] == "." and j + 1 < n and line[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and line[j].isdigit():
                    j += 1
            if j < n and line[j] in "eE":
                k = j + 1
                if k < n and line[k] in "+-":
                    k += 1
                if k < n and line[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and line[j].isdigit():
                        j += 1
            out.append(Token("FLOAT" if is_float else "INT", line[i:j], lineno, col))
            i = j
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            buf = []
            while j < n and line[j] != quote:
                if line[j] == "\\":
                    if j + 1 >= n:
                        raise MiniSyntaxError("bad escape", lineno, j + 1)
                    esc = line[j + 1]
                    buf.append({"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}.get(esc))
                    if buf[-1] is None:
                        raise MiniSyntaxError(f"unknown escape \\{esc}", lineno, j + 1)
                    j += 2
                else:
                    buf.append(line[j])
                    j += 1
            if j >= n:
                raise MiniSyntaxError("unterminated string", lineno, col)
            out.append(Token("STRING", "".join(buf), lineno, col))
            i = j + 1
            continue
        for k in (3, 2, 1):
            op = line[i:i + k]
            if op in OPERATORS:
                out.append(Token("OP", op, lineno, col))
                i += len(op)
                break
        else:
            raise MiniSyntaxError(f"unexpected character {c!r}", lineno, col)
