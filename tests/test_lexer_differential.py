"""scan against its reference: the lexer before string literals were found
by a one-character stop set and keywords by the master regex.

Both must give equal lists, or a ParseError with equal text and position.
"""

import random

import pytest

from epart.dsl.lexer import scan
from epart.errors import ParseError
from lexer_reference import scan as reference_scan

# Quotes, backslashes, valid and unknown escapes, raw newlines, comments,
# digits, non-ASCII letters and numerals, keywords and their prefixes.
_ATOMS = [
    '"', '"', '"', "\\", '\\"', "\\\\", "\\n", "\\t", "\\r", "\\q", "\\ ",
    "\n", "\r", "\t", " ", "  ", "#", "# c\n", "0", "12", "3x", "²", "½",
    "é", "ß", "a", "_", "x1", "class", "classy", "if", "iff", "var", "var_",
    "while", "true", "this", "(", ")", "->", "=", ".", ";", "@", "!",
    '"ab"', '"a\\"b"', "List",
]

NAMED = {
    "escaped quote, then resume": '"a\\"b" x',
    "two escaped quotes and a keyword after": 'f("\\"q\\"", "z") while',
    "unterminated literal": 'x = "abc',
    "escape at the end of the source": 'x = "abc\\',
    "newline inside a literal": 'x = "ab\ncd";',
    "newline after an escaped quote": '"a\\"b\nc"',
    "unknown escape": '"a\\qb"',
    "keyword prefixes": "iff classy var_ classé ifé if²",
    "comment that ends the source": 'class A { } # "x',
    "literal of the last character": '"\\\\"',
}


def _outcome(scanner, source: str):
    try:
        return scanner(source)
    except ParseError as e:
        return "ParseError", str(e), e.line, e.col


@pytest.mark.parametrize("source", list(NAMED.values()), ids=list(NAMED))
def test_named_cases_match_the_reference(source):
    assert _outcome(scan, source) == _outcome(reference_scan, source)


def test_seeded_strings_match_the_reference():
    rng = random.Random(30)
    faults = 0
    for _ in range(20000):
        source = "".join(rng.choice(_ATOMS) for _ in range(rng.randrange(12)))
        expected = _outcome(reference_scan, source)
        assert _outcome(scan, source) == expected, source
        faults += expected[0] == "ParseError"
    assert 0 < faults < 20000  # both branches are exercised
