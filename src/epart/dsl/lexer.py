"""Tokenizer for the annotated class language.

One compiled master regex finds every token in a single pass; only malformed
input takes a per-token path, to name the fault.  Identifiers follow
str.isalpha/isalnum ("\\w" is exactly isalnum or "_") and numbers are runs of
decimal digits of any script ("\\d" is exactly isdecimal), as int() reads them.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

KEYWORDS = {
    "class", "static", "public", "private", "var", "new", "this",
    "return", "if", "else", "while", "true", "false",
}

# Longest first so that two-char operators win.
SYMBOLS = [
    "->", "<=", ">=", "==", "!=",
    "{", "}", "(", ")", "[", "]", "<", ">",
    ";", ":", ",", ".", "@", "=", "+", "-", "*", "/", "%",
]


class Token(NamedTuple):  # a tuple builds much faster than a frozen dataclass
    kind: str  # ident, int, str, keyword, sym, eof
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_STR_BODY = r'[^"\\\n]*(?:\\["\\ntr][^"\\\n]*)*'
_MASTER = re.compile("|".join([
    r"(?P<ws>[ \t\r]+)",
    # Also matches a word that starts with a digit such as "²" or "½", which
    # str.isalpha rejects.
    r"(?P<ident>[^\W\d]\w*)",
    "(?P<sym>" + "|".join(re.escape(s) for s in SYMBOLS) + ")",
    r"(?P<nl>\n)",
    f'(?P<str>"{_STR_BODY}")',
    # A digit run that runs into a letter or a non-decimal digit is no token.
    r"(?P<int>\d+(?!\w))",
    r"(?P<comment>#[^\n]*)",
    r"(?P<bad>.)",
]))
_STR_PREFIX = re.compile(_STR_BODY)
_ESCAPE = re.compile(r"\\(.)")
_WORD = re.compile(r"\w+")


def _malformed(source: str, i: int) -> tuple[int, str]:
    """Why no token starts at i: (offset of the fault from i, message)."""
    ch = source[i]
    if ch.isdigit():
        word = _WORD.match(source, i).group()
        j = next((k for k, c in enumerate(word) if not c.isdigit()), len(word))
        if j < len(word) and (word[j].isalpha() or word[j] == "_"):
            return 0, f"malformed number {word[:j + 1]!r}"
        if not word[:j].isdecimal():  # a digit int() rejects, such as "²"
            return 0, f"malformed number {word[:j]!r}"
        # A well-formed number, then a numeric character such as "½".
        return j, f"unexpected character {word[j]!r}"
    if ch == '"':
        k = _STR_PREFIX.match(source, i + 1).end()
        if k >= len(source):
            return 0, "unterminated string literal"
        if source[k] == "\n":
            return 0, "newline in string literal"
        if k + 1 >= len(source):
            return 0, "unterminated escape sequence"
        return 0, f"unknown escape sequence \\{source[k + 1]}"
    return 0, f"unexpected character {ch!r}"


def tokenize(source: str) -> list[Token]:
    """Produce the token stream, ending with an eof token.

    Raises ParseError("syntax") on any malformed input; never crashes.
    Columns count code points from 1.  A comment does not advance the column,
    so the eof token after a comment that ends the source sits at the '#'.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    eof_col = None
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "ident" and (m.group()[0].isalpha() or m.group()[0] == "_"):
            text = m.group()
            append(Token("keyword" if text in KEYWORDS else "ident", text,
                         line, m.start() - line_start + 1))
        elif kind == "sym" or kind == "int":
            append(Token(kind, m.group(), line, m.start() - line_start + 1))
        elif kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "str":
            text = m.group()[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text)
            append(Token("str", text, line, m.start() - line_start + 1))
        elif kind == "comment":
            if m.end() == len(source):
                eof_col = m.start() - line_start + 1
        else:
            offset, message = _malformed(source, m.start())
            raise ParseError("syntax", message, line,
                             m.start() - line_start + 1 + offset)
    if eof_col is None:
        eof_col = len(source) - line_start + 1
    append(Token("eof", "", line, eof_col))
    return tokens
