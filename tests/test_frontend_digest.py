"""One digest of everything the front end shows for a seeded corpus.

The corpus is the three fixtures, 20 generate_corpus programs and 1,500
seeded one-character edits of the fixtures.  For each input the digest
takes the token stream as (kind, text, line, col), or the lexer's
ParseError as (kind, message, line, col); then str(ParseError), or every
AST node's (class, line, col) in field-walk order; then every violation
string.  A change to any token, position, diagnostic or violation changes
the digest.  Tokens are read through the golden table's lex(), so in the
vocabulary the digest was first taken in, and node offsets through
line_col.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

from epart.bench import generate_corpus
from epart.dsl import parse_program, validate
from epart.dsl.lexer import line_col
from epart.errors import ParseError
from test_lexer_golden import ALPHABET, lex

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.ep"))

DIGEST = "a009ebfa6a5ce42cea2ba9a57e3b3998815b65c5d0fac68690918060082e90c7"


def _edits(sources: list[str], count: int, seed: int) -> list[str]:
    """count sources, each a fixture with one character inserted, deleted
    or replaced by an ALPHABET item, at a seeded place."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        src = rng.choice(sources)
        i = rng.randrange(len(src) + 1)
        op = rng.randrange(3)
        if op == 0:
            out.append(src[:i] + rng.choice(ALPHABET) + src[i:])
        elif op == 1:
            out.append(src[:i] + src[i + 1:])
        else:
            out.append(src[:i] + rng.choice(ALPHABET) + src[i + 1:])
    return out


# Field names per node class: calling dataclasses.fields() per node made the
# walk 3.5 times slower.
_FIELDS: dict[type, tuple] = {}


def _nodes(source: str, node, out: list) -> None:
    """(class, line, col) of node and of every positioned node below it."""
    if type(node) is list:
        for item in node:
            _nodes(source, item, out)
        return
    names = _FIELDS.get(type(node))
    if names is None:
        names = _FIELDS[type(node)] = tuple(
            f.name for f in dataclasses.fields(node)) \
            if dataclasses.is_dataclass(node) else ()
    if not names:
        return
    if "pos" in names:
        out.append((type(node).__name__, *line_col(source, node.pos)))
    for name in names:
        _nodes(source, getattr(node, name), out)


def _observe(source: str) -> list:
    seen = [lex(source)]
    try:
        program = parse_program(source)
    except ParseError as e:
        seen.append(str(e))
        return seen
    nodes: list = []
    _nodes(source, program, nodes)
    seen.append(nodes)
    seen.append([str(v) for v in validate(program).violations])
    return seen


def corpus() -> list[str]:
    fixtures = [p.read_text(encoding="utf-8") for p in FIXTURES]
    return fixtures + generate_corpus(20, seed=3) + _edits(fixtures, 1500, seed=11)


def test_front_end_output_is_unchanged():
    h = hashlib.sha256()
    for source in corpus():
        h.update(repr(_observe(source)).encode())
    assert h.hexdigest() == DIGEST
