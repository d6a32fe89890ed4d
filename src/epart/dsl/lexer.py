"""Tokenizer for the annotated class language.

scan finds every token with one compiled master regex and keeps them as
three parallel lists, which the parser reads by index; tokenize zips them
into Tokens.  Each match takes the blanks before its token too, newlines
included, so a blank costs no loop trip of its own: the token is the
match's named group.  The regex tells a keyword from an identifier, so no
token is looked up in KEYWORDS.  It takes a string literal up to the next
quote; a literal that holds a backslash or a newline is checked against the
exact rule, and where that rule ends it later (the quote was escaped) the
scan resumes after it.  Only malformed input takes a per-token path, to
name the fault.  Identifiers follow str.isalpha/isalnum ("\\w" is exactly
isalnum or "_") and numbers are runs of decimal digits of any script ("\\d"
is exactly isdecimal), as int() reads them.

A position is one offset into the source.  line_col turns it into the
line:col a diagnostic prints, and nothing else computes either.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache, partial
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
    kind: str  # ident, int, str, eof, or the keyword or symbol itself
    text: str
    pos: int  # offset of the token's first character in the source


_new_token = partial(tuple.__new__, Token)  # skips Token.__new__, a Python wrapper


@lru_cache(maxsize=1)
def _line_starts(source: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", source)]


def line_col(source: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset pos in source; (0, 0) for no
    position (pos < 0).  Columns count code points."""
    if pos < 0:
        return 0, 0
    starts = _line_starts(source)
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_STR_BODY = r'[^"\\\n]*(?:\\["\\ntr][^"\\\n]*)*'
# Blanks before a token are part of its match, and blanks that end the
# source match `end`, so no blank starts a match: a run of them is scanned
# once, not once per blank.  A word is tried as a keyword, then as an ASCII
# identifier, then as any identifier; the first group that matches names it.
# Save for those three and `bad`, the fallback, no two alternatives start
# with the same character, so their order sets only speed: the most
# frequent come first.  `str` stops at the first quote: a one-character
# stop set takes sre's fast loop, and scan checks the exact rule, _STR, only
# for a literal that holds a backslash or a newline.
_MASTER = re.compile(r"[ \t\r\n]*(?:" + "|".join([
    "(?P<sym>" + "|".join(re.escape(s) for s in SYMBOLS) + ")",
    "(?P<kw>(?:" + "|".join(sorted(KEYWORDS)) + r")(?!\w))",
    r"(?P<ident>[A-Za-z_]\w*)",
    # A word that starts with any other letter.  Also matches one that starts
    # with a digit such as "²" or "½", which str.isalpha rejects.
    r"(?P<word>[^\W\d]\w*)",
    # A digit run that runs into a letter or a non-decimal digit is no token.
    r"(?P<int>\d+(?!\w))",
    r'(?P<str>"[^"]*")',
    r"(?P<comment>#[^\n]*)",
    r"(?P<end>\Z)",
    r"(?P<bad>[^ \t\r\n])",
]) + ")")
_STR = re.compile(f'"{_STR_BODY}"')
_STR_PREFIX = re.compile(_STR_BODY)
_unescape = partial(re.compile(r"\\(.)").sub, lambda e: _ESCAPES[e[1]])
_WORD = re.compile(r"\w+")


def _malformed(source: str, i: int) -> ParseError:
    """Why no token starts at offset i, as the ParseError to raise."""
    ch = source[i]
    at, message = i, f"unexpected character {ch!r}"
    if ch.isdigit():
        word = _WORD.match(source, i).group()
        j = next((k for k, c in enumerate(word) if not c.isdigit()), len(word))
        if j < len(word) and (word[j].isalpha() or word[j] == "_"):
            message = f"malformed number {word[:j + 1]!r}"
        elif not word[:j].isdecimal():  # a digit int() rejects, such as "²"
            message = f"malformed number {word[:j]!r}"
        else:  # A well-formed number, then a numeric character such as "½".
            at, message = i + j, f"unexpected character {word[j]!r}"
    elif ch == '"':
        k = _STR_PREFIX.match(source, i + 1).end()
        if k >= len(source):
            message = "unterminated string literal"
        elif source[k] == "\n":
            message = "newline in string literal"
        elif k + 1 >= len(source):
            message = "unterminated escape sequence"
        else:
            message = f"unknown escape sequence \\{source[k + 1]}"
    return ParseError("syntax", message, *line_col(source, at))


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """The token stream as three parallel lists, kinds, texts and positions,
    each ending with the eof entry.

    Raises ParseError("syntax") on any malformed input; never crashes.  The
    eof entry after a comment that ends the source sits at the '#'.
    """
    kinds: list[str] = []
    texts: list[str] = []
    positions: list[int] = []
    add_kind, add_text, add_pos = kinds.append, texts.append, positions.append
    eof_pos = len(source)
    resume = 0
    while resume is not None:
        matches, resume = _MASTER.finditer(source, resume), None
        for m in matches:
            kind = m.lastgroup
            text = m[kind]
            if kind == "sym":
                add_kind(text)
            elif kind == "ident":
                add_kind("ident")
            elif kind == "kw":
                add_kind(text)
            elif kind == "word" and text[0].isalpha():
                add_kind("ident")
            elif kind == "int":
                add_kind("int")
            elif kind == "str":
                add_kind("str")
                text = text[1:-1]
                if "\\" in text or "\n" in text:
                    start = m.start(kind)
                    exact = _STR.match(source, start)
                    if exact is None:
                        raise _malformed(source, start)
                    if exact.end() > m.end():  # m stopped at an escaped quote
                        add_text(_unescape(exact[0][1:-1]))
                        add_pos(start)
                        resume = exact.end()
                        break
                    text = _unescape(text)
            elif kind == "comment":
                if m.end() == len(source):
                    eof_pos = m.start(kind)
                continue
            elif kind == "end":
                break
            else:
                raise _malformed(source, m.start(kind))
            add_text(text)
            add_pos(m.start(kind))
    kinds.append("eof")
    texts.append("")
    positions.append(eof_pos)
    return kinds, texts, positions


def str_token_source(source: str, pos: int) -> str:
    """The source text of the str token at pos: its quotes, and its escapes
    as written."""
    return _STR.match(source, pos)[0]


def tokenize(source: str) -> list[Token]:
    """scan's lists as one Token per entry, ending with the eof token."""
    return list(map(_new_token, zip(*scan(source))))
