"""The lexer's scan as it stood before string literals were found by a
one-character stop set and keywords by the master regex.

tests/test_lexer_differential.py runs it beside epart.dsl.lexer.scan and
requires the same lists, or the same ParseError text and position.  Keep it
as it is: it is the reference, not code under test.
"""

import re

from epart.dsl.lexer import KEYWORDS, SYMBOLS, line_col
from epart.errors import ParseError

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_STR_BODY = r'[^"\\\n]*(?:\\["\\ntr][^"\\\n]*)*'
# Blanks before a token are part of its match, and blanks that end the
# source match `end`, so no blank starts a match: a run of them is scanned
# once, not once per blank.  Save for `bad`, the fallback, no two
# alternatives start with the same character, so their order sets only
# speed: the most frequent come first.
_MASTER = re.compile(r"[ \t\r\n]*(?:" + "|".join([
    "(?P<sym>" + "|".join(re.escape(s) for s in SYMBOLS) + ")",
    # Also matches a word that starts with a digit such as "²" or "½", which
    # str.isalpha rejects.
    r"(?P<ident>[^\W\d]\w*)",
    # A digit run that runs into a letter or a non-decimal digit is no token.
    r"(?P<int>\d+(?!\w))",
    f'(?P<str>"{_STR_BODY}")',
    r"(?P<comment>#[^\n]*)",
    r"(?P<end>\Z)",
    r"(?P<bad>[^ \t\r\n])",
]) + ")")
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
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        if kind == "sym":
            add_kind(text)
        elif kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            add_kind(text if text in KEYWORDS else "ident")
        elif kind == "int":
            add_kind("int")
        elif kind == "str":
            add_kind("str")
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text)
        elif kind == "comment":
            if m.end() == len(source):
                eof_pos = m.start(kind)
            continue
        elif kind == "end":
            break
        else:
            start = m.start(kind)
            offset, message = _malformed(source, start)
            raise ParseError("syntax", message,
                             *line_col(source, start + offset))
        add_text(text)
        add_pos(m.start(kind))
    kinds.append("eof")
    texts.append("")
    positions.append(eof_pos)
    return kinds, texts, positions
