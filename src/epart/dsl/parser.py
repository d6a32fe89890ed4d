"""Recursive-descent parser producing the class-language AST.

It reads the lexer's scan lists, kinds, texts and positions, by index: a token
is passed around as its index into them, and no Token is built.  Parsing is
total: any input either yields a Program or raises ParseError with a
line/column position.  Structural duplicate checks (classes, methods, fields,
params) and the single-main rule are enforced here; typing rules live in the
validator.  Nodes carry the offset of their token and the Program keeps its
source, so the validator can place a violation too.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast
from .ast import (
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, Expr, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Program, Return, Stmt, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility,
    While,
)
from .lexer import KEYWORDS, line_col, scan, str_token_source

_MAX_INT_LITERAL = 2**63 - 1
_MAX_INT_DIGITS = len(str(_MAX_INT_LITERAL))

_ANNOTATIONS = {a.value: a for a in Annotation}

# The level of each binary operator, loosest first.
_LEVEL = {op: level for level, ops in enumerate(ast.BINARY_OPS) for op in ops}


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts, self.positions = scan(source)
        self.i = 0  # the next token; only a match moves it, and eof matches none

    # -- token plumbing ----------------------------------------------------

    def fail(self, kind: str, message: str, pos: int) -> ParseError:
        return ParseError(kind, message, *line_col(self.source, pos))

    def error(self, message: str, i: int | None = None) -> ParseError:
        return self.fail("syntax", message, self.positions[self.i if i is None else i])

    def expected(self, what: str) -> ParseError:
        i = self.i
        kind = self.kinds[i]
        if kind == "eof":
            found = "end of input"
        elif kind == "str":
            found = str_token_source(self.source, self.positions[i])
        else:
            found = self.texts[i]
        return self.error(f"expected {what}, found {found!r}")

    def expect(self, kind: str) -> int:
        i = self.i
        if self.kinds[i] != kind:
            raise self.expected(repr(kind))
        self.i = i + 1
        return i

    def expect_ident(self, what: str) -> int:
        i = self.i
        if self.kinds[i] != "ident":
            raise self.expected(what)
        if self.texts[i] in ast.BUILTIN_FUNCS:
            raise self.error(f"{self.texts[i]!r} is a reserved builtin name")
        self.i = i + 1
        return i

    # -- program structure --------------------------------------------------

    def parse_program(self) -> Program:
        classes: list[ClassDecl] = []
        seen: set[str] = set()
        while self.kinds[self.i] != "eof":
            c = self.parse_class()
            if c.name in seen:
                raise self.fail("duplicate_class", f"class {c.name} declared twice",
                                c.pos)
            seen.add(c.name)
            classes.append(c)
        program = Program(classes)
        self._check_main(program)
        program.__dict__[ast.SOURCE] = self.source
        return program

    def _check_main(self, program: Program) -> None:
        mains = [(c, m) for c in program.classes for m in c.methods if m.name == "main"]
        if not mains:
            raise self.fail("no_main", "program declares no main method",
                            self.positions[self.i])
        if len(mains) > 1:
            c, m = mains[1]
            raise self.fail("multiple_main",
                            f"main declared again in class {c.name}", m.pos)

    def parse_class(self) -> ClassDecl:
        at = self.expect("@")
        annotation = _ANNOTATIONS.get(self.texts[self.i]) \
            if self.kinds[self.i] == "ident" else None
        if annotation is None:
            raise self.expected("Trusted, Untrusted or Neutral after '@'")
        self.i += 1
        self.expect("class")
        c = self.expect_ident("class name")
        cname = self.texts[c]
        if cname in ast.BUILTIN_TYPE_NAMES:
            raise self.error(f"{cname!r} is a built-in type name", c)
        self.expect("{")
        # Keyed by name, in declaration order, so a duplicate is one lookup.
        fields: dict[str, FieldDecl] = {}
        methods: dict[str, MethodDecl] = {}
        while self.kinds[self.i] != "}":
            self.parse_member(cname, fields, methods)
        self.i += 1
        return ClassDecl(cname, annotation, list(fields.values()),
                         list(methods.values()), pos=self.positions[at])

    def parse_member(self, class_name: str, fields: dict[str, FieldDecl],
                     methods: dict[str, MethodDecl]) -> None:
        kinds, texts = self.kinds, self.texts
        visibility = None
        if kinds[self.i] in ("public", "private"):
            visibility = Visibility(texts[self.i])
            self.i += 1
        is_static = kinds[self.i] == "static"
        if is_static:
            if visibility is not None:
                raise self.error("visibility markers apply to fields only")
            self.i += 1
        n = self.expect_ident("member name")
        name, pos = texts[n], self.positions[n]
        if kinds[self.i] == ":":
            if is_static:
                raise self.error("fields cannot be static", n)
            self.i += 1
            ftype = self.parse_type()
            self.expect(";")
            if name in fields:
                raise self.fail("duplicate_field",
                                f"field {name} declared twice in {class_name}", pos)
            fields[name] = FieldDecl(name, ftype, visibility or Visibility.PRIVATE,
                                     pos=pos)
            return
        if visibility is not None:
            raise self.error("visibility markers apply to fields only", n)
        method = self.parse_method(class_name, n, is_static)
        if name in methods:
            raise self.fail("duplicate_method",
                            f"method {name} declared twice in {class_name}", pos)
        methods[name] = method

    def parse_method(self, class_name: str, n: int, is_static: bool) -> MethodDecl:
        name = self.texts[n]
        is_constructor = name == class_name
        self.expect("(")
        params: dict[str, Param] = {}
        kinds = self.kinds
        while kinds[self.i] != ")":
            if params:
                self.expect(",")
            p = self.expect_ident("parameter name")
            pname, ppos = self.texts[p], self.positions[p]
            if pname in params:
                raise self.fail("duplicate_param",
                                f"parameter {pname} declared twice", ppos)
            self.expect(":")
            params[pname] = Param(pname, self.parse_type(), pos=ppos)
        self.i += 1
        return_type = ast.UNIT
        if kinds[self.i] == "->":
            if is_constructor:
                raise self.error("constructors cannot declare a return type")
            self.i += 1
            return_type = self.parse_type()
        if is_constructor and is_static:
            raise self.error("constructors cannot be static", n)
        return MethodDecl(name, list(params.values()), return_type, self.parse_block(),
                          is_constructor=is_constructor, is_static=is_static,
                          pos=self.positions[n])

    def parse_type(self) -> TypeRef:
        i = self.i
        if self.kinds[i] != "ident":
            raise self.expected("a type")
        self.i = i + 1
        if self.texts[i] == "List":
            self.expect("[")
            elem = self.parse_type()
            self.expect("]")
            return ast.list_of(elem)
        return ast.PRIMITIVE_TYPES.get(self.texts[i]) or TypeRef(self.texts[i])

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        kinds = self.kinds
        body: list[Stmt] = []
        while kinds[self.i] != "}":
            body.append(self.parse_stmt())
        self.i += 1
        return body

    def parse_stmt(self) -> Stmt:
        i = self.i
        kinds = self.kinds
        kind, pos = kinds[i], self.positions[i]
        if kind == "var":
            self.i = i + 1
            name = self.texts[self.expect_ident("variable name")]
            declared = None
            if kinds[self.i] == ":":
                self.i += 1
                declared = self.parse_type()
            self.expect("=")
            init = self.parse_expr()
            self.expect(";")
            return VarDecl(name, declared, init, pos=pos)
        if kind == "return":
            self.i = i + 1
            value = None
            if kinds[self.i] != ";":
                value = self.parse_expr()
            self.expect(";")
            return Return(value, pos=pos)
        if kind == "if" or kind == "while":
            self.i = i + 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            if kind == "while":
                return While(cond, body, pos=pos)
            else_body: list[Stmt] = []
            if kinds[self.i] == "else":
                self.i += 1
                else_body = self.parse_block()
            return If(cond, body, else_body, pos=pos)
        expr = self.parse_expr()
        if kinds[self.i] == "=":
            if not isinstance(expr, (Var, FieldGet)):
                raise self.error("invalid assignment target")
            self.i += 1
            value = self.parse_expr()
            self.expect(";")
            return Assign(expr, value, pos=pos)
        self.expect(";")
        return ExprStmt(expr, pos=pos)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, level: int = 0) -> Expr:
        """An operand, then each operator of this level or a tighter one with
        its right operand, which binds only tighter operators."""
        left = self.parse_unary()
        kinds = self.kinds
        while (op_level := _LEVEL.get(kinds[i := self.i], -1)) >= level:
            self.i = i + 1
            right = self.parse_expr(op_level + 1)
            # An operator's kind is its text.
            left = Binary(kinds[i], left, right, pos=self.positions[i])
        return left

    def parse_unary(self) -> Expr:
        """A minus, or an operand followed by field reads and method calls."""
        kinds = self.kinds
        i = self.i
        if kinds[i] == "-":
            self.i = i + 1
            return Unary("-", self.parse_unary(), pos=self.positions[i])
        expr = self.parse_primary()
        while kinds[dot := self.i] == ".":
            # Neither dot nor a matched name is eof, so n + 1 is in range.
            n = dot + 1
            if kinds[n] != "ident":
                raise self.error(f"{self.texts[n]!r} cannot follow '.'"
                                 if kinds[n] in KEYWORDS
                                 else "expected member name after '.'", n)
            if kinds[n + 1] == "(":
                self.i = n + 2
                expr = MethodCall(expr, self.texts[n], self.parse_exprs(")"),
                                  pos=self.positions[dot])
            else:
                self.i = n + 1
                expr = FieldGet(expr, self.texts[n], pos=self.positions[dot])
        return expr

    def parse_exprs(self, close: str) -> list[Expr]:
        """Comma-separated expressions, up to and past the close token."""
        kinds = self.kinds
        items: list[Expr] = []
        while kinds[self.i] != close:
            if items:
                self.expect(",")
            items.append(self.parse_expr())
        self.i += 1
        return items

    def parse_primary(self) -> Expr:
        i = self.i
        kind, text, pos = self.kinds[i], self.texts[i], self.positions[i]
        if kind == "ident":
            call = self.kinds[i + 1] == "("
            if text in ast.BUILTIN_FUNCS:
                if not call:
                    raise self.error(f"builtin {text!r} must be called", i)
                self.i = i + 2
                return BuiltinCall(text, self.parse_exprs(")"), pos=pos)
            if call:
                raise self.error(
                    f"unknown function {text!r}; only builtins can be called "
                    "without a receiver", i)
            self.i = i + 1
            return Var(text, pos=pos)
        if kind == "int":
            self.i = i + 1
            # int() refuses strings of more than 4300 digits, so count the
            # digits first, leading zeros of any script aside.
            digits = text if text.isascii() else "".join(str(int(c)) for c in text)
            digits = digits.lstrip("0") or "0"
            if len(digits) > _MAX_INT_DIGITS or int(digits) > _MAX_INT_LITERAL:
                raise self.error("integer literal out of 64-bit range", i)
            return IntLit(int(digits), pos=pos)
        if kind == "str":
            self.i = i + 1
            return StrLit(text, pos=pos)
        if kind == "this":
            self.i = i + 1
            return This(pos=pos)
        if kind == "true" or kind == "false":
            self.i = i + 1
            return BoolLit(kind == "true", pos=pos)
        if kind == "new":
            self.i = i + 1
            cname = self.texts[self.expect_ident("class name after 'new'")]
            self.expect("(")
            return New(cname, self.parse_exprs(")"), pos=pos)
        if kind == "(":
            self.i = i + 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if kind == "[":
            self.i = i + 1
            return ListLit(self.parse_exprs("]"), pos=pos)
        raise self.expected("an expression")


def parse_program(source: str) -> Program:
    """Parse source text into a Program or raise ParseError."""
    return _Parser(source).parse_program()
