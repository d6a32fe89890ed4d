"""Recursive-descent parser producing the class-language AST.

Parsing is total: any input either yields a Program or raises ParseError with a
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
from .lexer import KEYWORDS, Token, line_col, tokenize

_MAX_INT_LITERAL = 2**63 - 1
_MAX_INT_DIGITS = len(str(_MAX_INT_LITERAL))

_ANNOTATIONS = {a.value: a for a in Annotation}

_COMPARE_OPS = {"<", "<=", ">", ">=", "==", "!="}
_ADD_OPS = {"+", "-"}
_MUL_OPS = {"*", "/", "%"}
# The level of each binary operator, loosest first; all are left-associative.
_LEVEL = {op: level for level, ops in enumerate((_COMPARE_OPS, _ADD_OPS, _MUL_OPS))
          for op in ops}


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0  # of the next token (a Token.pos is a source offset)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        # advance never moves past the eof token, so index is always in range.
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.index][0] == kind

    def fail(self, kind: str, message: str, pos: int) -> ParseError:
        return ParseError(kind, message, *line_col(self.source, pos))

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        return self.fail("syntax", message, (tok or self.peek()).pos)

    def expect(self, kind: str) -> Token:
        if not self.at(kind):
            t = self.peek()
            raise self.error(f"expected {kind!r}, found {t.text or 'end of input'!r}")
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(f"expected {what}, found {t.text or 'end of input'!r}")
        if t.text in ast.BUILTIN_FUNCS:
            raise self.error(f"{t.text!r} is a reserved builtin name")
        return self.advance()

    # -- program structure --------------------------------------------------

    def parse_program(self) -> Program:
        classes: list[ClassDecl] = []
        seen: set[str] = set()
        while not self.peek().kind == "eof":
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
                            self.peek().pos)
        if len(mains) > 1:
            c, m = mains[1]
            raise self.fail("multiple_main",
                            f"main declared again in class {c.name}", m.pos)

    def parse_class(self) -> ClassDecl:
        at = self.expect("@")
        name_tok = self.advance()
        if name_tok.text not in _ANNOTATIONS:
            raise self.error(
                f"expected Trusted, Untrusted or Neutral after '@', found {name_tok.text!r}",
                name_tok)
        annotation = _ANNOTATIONS[name_tok.text]
        self.expect("class")
        cname = self.expect_ident("class name")
        if cname.text in ast.BUILTIN_TYPE_NAMES:
            raise self.error(f"{cname.text!r} is a built-in type name", cname)
        self.expect("{")
        # Keyed by name, in declaration order, so a duplicate is one lookup.
        fields: dict[str, FieldDecl] = {}
        methods: dict[str, MethodDecl] = {}
        while not self.at("}"):
            self.parse_member(cname.text, fields, methods)
        self.expect("}")
        return ClassDecl(cname.text, annotation, list(fields.values()),
                         list(methods.values()), pos=at.pos)

    def parse_member(self, class_name: str, fields: dict[str, FieldDecl],
                     methods: dict[str, MethodDecl]) -> None:
        visibility = None
        if self.at("public") or self.at("private"):
            visibility = Visibility(self.advance().text)
        is_static = False
        if self.at("static"):
            if visibility is not None:
                raise self.error("visibility markers apply to fields only")
            is_static = True
            self.advance()
        name = self.expect_ident("member name")
        if self.at(":"):
            if is_static:
                raise self.error("fields cannot be static", name)
            self.advance()
            ftype = self.parse_type()
            self.expect(";")
            if name.text in fields:
                raise self.fail("duplicate_field",
                                f"field {name.text} declared twice in {class_name}",
                                name.pos)
            fields[name.text] = FieldDecl(name.text, ftype,
                                          visibility or Visibility.PRIVATE,
                                          pos=name.pos)
            return
        if visibility is not None:
            raise self.error("visibility markers apply to fields only", name)
        method = self.parse_method(class_name, name, is_static)
        if method.name in methods:
            raise self.fail("duplicate_method",
                            f"method {method.name} declared twice in {class_name}",
                            name.pos)
        methods[method.name] = method

    def parse_method(self, class_name: str, name: Token, is_static: bool) -> MethodDecl:
        is_constructor = name.text == class_name
        self.expect("(")
        params: dict[str, Param] = {}
        while not self.at(")"):
            if params:
                self.expect(",")
            pname = self.expect_ident("parameter name")
            if pname.text in params:
                raise self.fail("duplicate_param",
                                f"parameter {pname.text} declared twice",
                                pname.pos)
            self.expect(":")
            ptype = self.parse_type()
            params[pname.text] = Param(pname.text, ptype,
                                       pos=pname.pos)
        self.expect(")")
        return_type = ast.UNIT
        if self.at("->"):
            if is_constructor:
                raise self.error("constructors cannot declare a return type")
            self.advance()
            return_type = self.parse_type()
        if is_constructor and is_static:
            raise self.error("constructors cannot be static", name)
        body = self.parse_block()
        return MethodDecl(name.text, list(params.values()), return_type, body,
                          is_constructor=is_constructor, is_static=is_static,
                          pos=name.pos)

    def parse_type(self) -> TypeRef:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(f"expected a type, found {t.text or 'end of input'!r}")
        self.advance()
        if t.text == "List":
            self.expect("[")
            elem = self.parse_type()
            self.expect("]")
            return ast.list_of(elem)
        return TypeRef(t.text)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.at("}"):
            body.append(self.parse_stmt())
        self.expect("}")
        return body

    def parse_stmt(self) -> Stmt:
        t = self.tokens[self.index]
        kind = t.kind
        if kind == "var":
            self.advance()
            name = self.expect_ident("variable name")
            declared = None
            if self.at(":"):
                self.advance()
                declared = self.parse_type()
            self.expect("=")
            init = self.parse_expr()
            self.expect(";")
            return VarDecl(name.text, declared, init, pos=t.pos)
        if kind == "return":
            self.advance()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            return Return(value, pos=t.pos)
        if kind == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_block()
            else_body: list[Stmt] = []
            if self.at("else"):
                self.advance()
                else_body = self.parse_block()
            return If(cond, then_body, else_body, pos=t.pos)
        if kind == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return While(cond, body, pos=t.pos)
        expr = self.parse_expr()
        if self.at("="):
            eq = self.advance()
            if not isinstance(expr, (Var, FieldGet)):
                raise self.error("invalid assignment target", eq)
            value = self.parse_expr()
            self.expect(";")
            return Assign(expr, value, pos=t.pos)
        self.expect(";")
        return ExprStmt(expr, pos=t.pos)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, level: int = 0) -> Expr:
        """An operand, then each operator of this level or a tighter one with
        its right operand, which binds only tighter operators."""
        left = self.parse_unary()
        tokens = self.tokens
        while (op_level := _LEVEL.get((op := tokens[self.index])[0], -1)) >= level:
            self.index += 1
            right = self.parse_expr(op_level + 1)
            left = Binary(op.text, left, right, pos=op.pos)
        return left

    def parse_unary(self) -> Expr:
        if self.at("-"):
            op = self.advance()
            operand = self.parse_unary()
            return Unary("-", operand, pos=op.pos)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("."):
            dot = self.advance()
            name = self.peek()
            if name.kind == "ident":
                self.advance()
            elif name.kind in KEYWORDS:
                raise self.error(f"{name.text!r} cannot follow '.'", name)
            else:
                raise self.error("expected member name after '.'", name)
            if self.at("("):
                args = self.parse_args()
                expr = MethodCall(expr, name.text, args, pos=dot.pos)
            else:
                expr = FieldGet(expr, name.text, pos=dot.pos)
        return expr

    def parse_args(self) -> list[Expr]:
        self.expect("(")
        args: list[Expr] = []
        while not self.at(")"):
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self) -> Expr:
        t = self.tokens[self.index]
        kind = t.kind
        if kind == "ident":
            self.advance()
            if t.text in ast.BUILTIN_FUNCS:
                if not self.at("("):
                    raise self.error(f"builtin {t.text!r} must be called", t)
                args = self.parse_args()
                return BuiltinCall(t.text, args, pos=t.pos)
            if self.at("("):
                raise self.error(
                    f"unknown function {t.text!r}; only builtins can be called "
                    "without a receiver", t)
            return Var(t.text, pos=t.pos)
        if kind == "int":
            self.advance()
            # int() refuses strings of more than 4300 digits, so count the
            # digits first, leading zeros of any script aside.
            digits = t.text if t.text.isascii() \
                else "".join(str(int(c)) for c in t.text)
            digits = digits.lstrip("0") or "0"
            if len(digits) > _MAX_INT_DIGITS or int(digits) > _MAX_INT_LITERAL:
                raise self.error("integer literal out of 64-bit range", t)
            return IntLit(int(digits), pos=t.pos)
        if kind == "str":
            self.advance()
            return StrLit(t.text, pos=t.pos)
        if kind == "this":
            self.advance()
            return This(pos=t.pos)
        if kind == "true" or kind == "false":
            self.advance()
            return BoolLit(kind == "true", pos=t.pos)
        if kind == "new":
            self.advance()
            cname = self.expect_ident("class name after 'new'")
            args = self.parse_args()
            return New(cname.text, args, pos=t.pos)
        if kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if kind == "[":
            self.advance()
            elements: list[Expr] = []
            while not self.at("]"):
                if elements:
                    self.expect(",")
                elements.append(self.parse_expr())
            self.expect("]")
            return ListLit(elements, pos=t.pos)
        raise self.error(f"expected an expression, found {t.text or 'end of input'!r}")


def parse_program(source: str) -> Program:
    """Parse source text into a Program or raise ParseError."""
    return _Parser(source).parse_program()
