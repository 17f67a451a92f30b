"""Line/indent-based lexer for .ml0 sources.

`_TOKEN.findall` splits each line into (spaces, token, bad) triples with
one precompiled regular expression whose alternatives are tried in order:
an operator (longest first, so '<<' wins over '<'), a name, a number, a
comment, a string, or any other character, which is an error. The first
character then gives the token's kind. Numbers are ASCII digits only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MiniSyntaxError

KEYWORDS = {
    "def", "return", "assert", "if", "elif", "else", "while",
    "and", "or", "not", "True", "False",
}

OPERATORS = {
    "//=", "<<", ">>", "==", "!=", "<=", ">=", "//",
    "+=", "-=", "*=", "/=", "%=",
    "+", "-", "*", "/", "%", "<", ">", "=", "|", "^", "&",
    "(", ")", "[", "]", ",", ":",
}

ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}

# `\w` is exactly `str.isalnum()` or '_', so a name goes on as before; it
# starts with a letter or '_' (`_lex_line` rejects the non-ASCII numerals
# such as '²' that `[^\W\d]` also lets through)
_TOKEN = re.compile(r"""(\ *)(?:(
    """ + "|".join(re.escape(op) for op in
                   sorted(OPERATORS, key=len, reverse=True)) + r"""
  | [^\W\d]\w*
  | [0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?
  | \#.*
  | "(?:[^"\\]|\\.)*"?
  | '(?:[^'\\]|\\.)*'?
) | ([^\ ]))""", re.VERBOSE | re.DOTALL)
_STRING = re.compile(r"""(["'])((?:(?!\1)[^\\]|\\.)*)(\1?)""", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_KINDS = {c: "NUMBER" if c.isdigit() else "NAME"  # by a token's first character
          for c in map(chr, range(128)) if c.isalnum() or c == "_"}
_KINDS.update({op[0]: "OP" for op in OPERATORS})


@dataclass(slots=True)
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
    append = out.append
    pos = start
    for spaces, text, bad in _TOKEN.findall(line, start):
        pos += len(spaces)
        if bad:
            raise MiniSyntaxError(f"unexpected character {bad!r}", lineno, pos + 1)
        kind = _KINDS.get(text[0])
        if kind == "OP":
            append(Token("OP", text, lineno, pos + 1))
        elif kind == "NAME" or (kind is None and text[0].isalpha()):
            append(Token("KEYWORD" if text in KEYWORDS else "NAME", text,
                         lineno, pos + 1))
        elif kind == "NUMBER":
            append(Token("INT" if text.isdigit() else "FLOAT", text, lineno, pos + 1))
        elif text[0] == "#":
            return
        elif text[0] in "\"'":
            value = _string_value(text, lineno, pos + 1,
                                  pos + len(text) == len(line))
            append(Token("STRING", value, lineno, pos + 1))
        else:  # a non-ASCII numeral such as '²' starting a name
            raise MiniSyntaxError(f"unexpected character {text[0]!r}",
                                  lineno, pos + 1)
        pos += len(text)


def _string_value(text: str, lineno: int, col: int, at_end: bool) -> str:
    """The value of the string token `text` at `col`: escapes are decoded
    left to right, and the first bad one, then a backslash ending the line,
    then a missing closing quote is an error."""
    _, body, closed = _STRING.match(text).groups()
    if "\\" in body:
        for esc in _ESCAPE.finditer(body):
            if esc.group(1) not in ESCAPES:
                raise MiniSyntaxError(f"unknown escape \\{esc.group(1)}",
                                      lineno, col + 1 + esc.start())
        body = _ESCAPE.sub(lambda esc: ESCAPES[esc.group(1)], body)
    if not closed:
        if not at_end:  # the rest of the line is one backslash
            raise MiniSyntaxError("bad escape", lineno, col + len(text))
        raise MiniSyntaxError("unterminated string", lineno, col)
    return body
