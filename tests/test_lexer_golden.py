"""Lexer golden table and robustness property.

Every expected value below was produced by the per-character lexer that the
master-regex lexer replaced: the token stream as (kind, text, line, col), or
the ParseError as (kind, message, line, col).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epart.dsl.lexer import KEYWORDS, SYMBOLS, line_col, tokenize
from epart.errors import ParseError

GOLDEN = [
    ('-> <= >= == != { } ( ) [ ] < > ; : , . @ = + - * / %',
     [('sym', '->', 1, 1),
      ('sym', '<=', 1, 4),
      ('sym', '>=', 1, 7),
      ('sym', '==', 1, 10),
      ('sym', '!=', 1, 13),
      ('sym', '{', 1, 16),
      ('sym', '}', 1, 18),
      ('sym', '(', 1, 20),
      ('sym', ')', 1, 22),
      ('sym', '[', 1, 24),
      ('sym', ']', 1, 26),
      ('sym', '<', 1, 28),
      ('sym', '>', 1, 30),
      ('sym', ';', 1, 32),
      ('sym', ':', 1, 34),
      ('sym', ',', 1, 36),
      ('sym', '.', 1, 38),
      ('sym', '@', 1, 40),
      ('sym', '=', 1, 42),
      ('sym', '+', 1, 44),
      ('sym', '-', 1, 46),
      ('sym', '*', 1, 48),
      ('sym', '/', 1, 50),
      ('sym', '%', 1, 52),
      ('eof', '', 1, 53)]),
    ('a->b<=c>=d==e!=f<g>h',
     [('ident', 'a', 1, 1),
      ('sym', '->', 1, 2),
      ('ident', 'b', 1, 4),
      ('sym', '<=', 1, 5),
      ('ident', 'c', 1, 7),
      ('sym', '>=', 1, 8),
      ('ident', 'd', 1, 10),
      ('sym', '==', 1, 11),
      ('ident', 'e', 1, 13),
      ('sym', '!=', 1, 14),
      ('ident', 'f', 1, 16),
      ('sym', '<', 1, 17),
      ('ident', 'g', 1, 18),
      ('sym', '>', 1, 19),
      ('ident', 'h', 1, 20),
      ('eof', '', 1, 21)]),
    ('===<==->-!==',
     [('sym', '==', 1, 1),
      ('sym', '=', 1, 3),
      ('sym', '<=', 1, 4),
      ('sym', '=', 1, 6),
      ('sym', '->', 1, 7),
      ('sym', '-', 1, 9),
      ('sym', '!=', 1, 10),
      ('sym', '=', 1, 12),
      ('eof', '', 1, 13)]),
    ('class static public private var new this return if else while true false',
     [('keyword', 'class', 1, 1),
      ('keyword', 'static', 1, 7),
      ('keyword', 'public', 1, 14),
      ('keyword', 'private', 1, 21),
      ('keyword', 'var', 1, 29),
      ('keyword', 'new', 1, 33),
      ('keyword', 'this', 1, 37),
      ('keyword', 'return', 1, 42),
      ('keyword', 'if', 1, 49),
      ('keyword', 'else', 1, 52),
      ('keyword', 'while', 1, 57),
      ('keyword', 'true', 1, 63),
      ('keyword', 'false', 1, 68),
      ('eof', '', 1, 73)]),
    ('classy _var while_ returned True',
     [('ident', 'classy', 1, 1),
      ('ident', '_var', 1, 8),
      ('ident', 'while_', 1, 13),
      ('ident', 'returned', 1, 20),
      ('ident', 'True', 1, 29),
      ('eof', '', 1, 33)]),
    ('"\\n\\t\\r\\"\\\\"',
     [('str', '\n\t\r"\\', 1, 1), ('eof', '', 1, 13)]),
    ('"a\\\\nb" "x\\"y" ""',
     [('str', 'a\\nb', 1, 1),
      ('str', 'x"y', 1, 9),
      ('str', '', 1, 16),
      ('eof', '', 1, 18)]),
    ('"ok" "\\z"',
     ('syntax', 'unknown escape sequence \\z', 1, 6)),
    ('"abc',
     ('syntax', 'unterminated string literal', 1, 1)),
    ('"abc\\',
     ('syntax', 'unterminated escape sequence', 1, 1)),
    ('"ab\ncd"',
     ('syntax', 'newline in string literal', 1, 1)),
    ('"a\\\nb"',
     ('syntax', 'unknown escape sequence \\\n', 1, 1)),
    ('12ab',
     ('syntax', "malformed number '12a'", 1, 1)),
    ('x = 12_;',
     ('syntax', "malformed number '12_'", 1, 5)),
    ('a² b2',
     [('ident', 'a²', 1, 1), ('ident', 'b2', 1, 4), ('eof', '', 1, 6)]),
    ('café = naïve;',
     [('ident', 'café', 1, 1),
      ('sym', '=', 1, 6),
      ('ident', 'naïve', 1, 8),
      ('sym', ';', 1, 13),
      ('eof', '', 1, 14)]),
    ('éé1 ÿ_2 _é',
     [('ident', 'éé1', 1, 1),
      ('ident', 'ÿ_2', 1, 5),
      ('ident', '_é', 1, 9),
      ('eof', '', 1, 11)]),
    ('\tx\t=\t1;',
     [('ident', 'x', 1, 2),
      ('sym', '=', 1, 4),
      ('int', '1', 1, 6),
      ('sym', ';', 1, 7),
      ('eof', '', 1, 8)]),
    ('a\r\nb\rc',
     [('ident', 'a', 1, 1),
      ('ident', 'b', 2, 1),
      ('ident', 'c', 2, 3),
      ('eof', '', 2, 4)]),
    ('x # trailing',
     [('ident', 'x', 1, 1), ('eof', '', 1, 3)]),
    ('# only',
     [('eof', '', 1, 1)]),
    ('x # c\n',
     [('ident', 'x', 1, 1), ('eof', '', 2, 1)]),
    ('',
     [('eof', '', 1, 1)]),
    ('a ! b',
     ('syntax', "unexpected character '!'", 1, 3)),
    ('$',
     ('syntax', "unexpected character '$'", 1, 1)),
    ('class A {\n  x: Int;\n}\n',
     [('keyword', 'class', 1, 1),
      ('ident', 'A', 1, 7),
      ('sym', '{', 1, 9),
      ('ident', 'x', 2, 3),
      ('sym', ':', 2, 4),
      ('ident', 'Int', 2, 6),
      ('sym', ';', 2, 9),
      ('sym', '}', 3, 1),
      ('eof', '', 4, 1)]),
    ('0 007 123456789012345678901234567890',
     [('int', '0', 1, 1),
      ('int', '007', 1, 3),
      ('int', '123456789012345678901234567890', 1, 7),
      ('eof', '', 1, 37)]),
    ('٣٣ + 1٣',
     [('int', '٣٣', 1, 1),
      ('sym', '+', 1, 4),
      ('int', '1٣', 1, 6),
      ('eof', '', 1, 8)]),
    ('x = 12½;',
     ('syntax', "unexpected character '½'", 1, 7)),
    ('½',
     ('syntax', "unexpected character '½'", 1, 1)),
    ('"a # b" # c',
     [('str', 'a # b', 1, 1), ('eof', '', 1, 9)]),
    ('"héllo ²" x',
     [('str', 'héllo ²', 1, 1), ('ident', 'x', 1, 11), ('eof', '', 1, 12)]),
    ('if (a<=b) { return -1; }\n\n  while(x) {}',
     [('keyword', 'if', 1, 1),
      ('sym', '(', 1, 4),
      ('ident', 'a', 1, 5),
      ('sym', '<=', 1, 6),
      ('ident', 'b', 1, 8),
      ('sym', ')', 1, 9),
      ('sym', '{', 1, 11),
      ('keyword', 'return', 1, 13),
      ('sym', '-', 1, 20),
      ('int', '1', 1, 21),
      ('sym', ';', 1, 22),
      ('sym', '}', 1, 24),
      ('keyword', 'while', 3, 3),
      ('sym', '(', 3, 8),
      ('ident', 'x', 3, 9),
      ('sym', ')', 3, 10),
      ('sym', '{', 3, 12),
      ('sym', '}', 3, 13),
      ('eof', '', 3, 14)]),
]


_SYMBOLS = set(SYMBOLS)


def _kind(kind: str) -> str:
    return "sym" if kind in _SYMBOLS else "keyword" if kind in KEYWORDS else kind


def lex(source: str):
    """The token stream in the golden table's terms: keywords and symbols as
    "keyword" and "sym", offsets as line and column."""
    try:
        return [(_kind(t.kind), t.text, *line_col(source, t.pos))
                for t in tokenize(source)]
    except ParseError as e:
        return (e.kind, e.message, e.line, e.col)


@pytest.mark.parametrize("source,expected", GOLDEN)
def test_golden(source, expected):
    assert lex(source) == expected


ALPHABET = list('ab_Zé²٣½1 09\t\r\n"\\#ntr{}()[]<>=!-+*/%;:,.@$') + [
    "->", "<=", "class", "while", '"a\\n"', "12ab"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_tokenize_ends_in_eof_or_raises_parse_error(source):
    try:
        tokens = tokenize(source)
    except ParseError as e:
        assert e.kind == "syntax"
        return
    assert tokens[-1].kind == "eof"
    assert all(t.kind != "eof" for t in tokens[:-1])
