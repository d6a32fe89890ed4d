"""Recursive-descent parser producing the class-language AST.

Parsing is total: any input either yields a Program or raises ParseError with a
line/column position.  Structural duplicate checks (classes, methods, fields,
params) and the single-main rule are enforced here; typing rules live in the
validator.
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
from .lexer import Token, tokenize

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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        # advance never moves past the eof token, so pos is always in range.
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t[1] == text and t[0] == "sym"

    def at_kw(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t[1] == text and t[0] == "keyword"

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError("syntax", message, tok.line, tok.col)

    def expect_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            t = self.peek()
            raise self.error(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.advance()

    def expect_kw(self, text: str) -> Token:
        if not self.at_kw(text):
            t = self.peek()
            raise self.error(f"expected {text!r}, found {t.text or 'end of input'!r}")
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
                raise ParseError("duplicate_class", f"class {c.name} declared twice",
                                 c.line, c.col)
            seen.add(c.name)
            classes.append(c)
        program = Program(classes)
        self._check_main(program)
        return program

    def _check_main(self, program: Program) -> None:
        mains = [(c, m) for c in program.classes for m in c.methods if m.name == "main"]
        if not mains:
            tok = self.peek()
            raise ParseError("no_main", "program declares no main method",
                             tok.line, tok.col)
        if len(mains) > 1:
            c, m = mains[1]
            raise ParseError("multiple_main",
                             f"main declared again in class {c.name}", m.line, m.col)

    def parse_class(self) -> ClassDecl:
        at = self.expect_sym("@")
        name_tok = self.advance()
        if name_tok.text not in _ANNOTATIONS:
            raise self.error(
                f"expected Trusted, Untrusted or Neutral after '@', found {name_tok.text!r}",
                name_tok)
        annotation = _ANNOTATIONS[name_tok.text]
        self.expect_kw("class")
        cname = self.expect_ident("class name")
        if cname.text in ast.BUILTIN_TYPE_NAMES:
            raise self.error(f"{cname.text!r} is a built-in type name", cname)
        self.expect_sym("{")
        # Keyed by name, in declaration order, so a duplicate is one lookup.
        fields: dict[str, FieldDecl] = {}
        methods: dict[str, MethodDecl] = {}
        while not self.at_sym("}"):
            self.parse_member(cname.text, fields, methods)
        self.expect_sym("}")
        return ClassDecl(cname.text, annotation, list(fields.values()),
                         list(methods.values()), line=at.line, col=at.col)

    def parse_member(self, class_name: str, fields: dict[str, FieldDecl],
                     methods: dict[str, MethodDecl]) -> None:
        visibility = None
        if self.at_kw("public") or self.at_kw("private"):
            visibility = Visibility(self.advance().text)
        is_static = False
        if self.at_kw("static"):
            if visibility is not None:
                raise self.error("visibility markers apply to fields only")
            is_static = True
            self.advance()
        name = self.expect_ident("member name")
        if self.at_sym(":"):
            if is_static:
                raise self.error("fields cannot be static", name)
            self.advance()
            ftype = self.parse_type()
            self.expect_sym(";")
            if name.text in fields:
                raise ParseError("duplicate_field",
                                 f"field {name.text} declared twice in {class_name}",
                                 name.line, name.col)
            fields[name.text] = FieldDecl(name.text, ftype,
                                          visibility or Visibility.PRIVATE,
                                          line=name.line, col=name.col)
            return
        if visibility is not None:
            raise self.error("visibility markers apply to fields only", name)
        method = self.parse_method(class_name, name, is_static)
        if method.name in methods:
            raise ParseError("duplicate_method",
                             f"method {method.name} declared twice in {class_name}",
                             name.line, name.col)
        methods[method.name] = method

    def parse_method(self, class_name: str, name: Token, is_static: bool) -> MethodDecl:
        is_constructor = name.text == class_name
        self.expect_sym("(")
        params: dict[str, Param] = {}
        while not self.at_sym(")"):
            if params:
                self.expect_sym(",")
            pname = self.expect_ident("parameter name")
            if pname.text in params:
                raise ParseError("duplicate_param",
                                 f"parameter {pname.text} declared twice",
                                 pname.line, pname.col)
            self.expect_sym(":")
            ptype = self.parse_type()
            params[pname.text] = Param(pname.text, ptype,
                                       line=pname.line, col=pname.col)
        self.expect_sym(")")
        return_type = ast.UNIT
        if self.at_sym("->"):
            if is_constructor:
                raise self.error("constructors cannot declare a return type")
            self.advance()
            return_type = self.parse_type()
        if is_constructor and is_static:
            raise self.error("constructors cannot be static", name)
        body = self.parse_block()
        return MethodDecl(name.text, list(params.values()), return_type, body,
                          is_constructor=is_constructor, is_static=is_static,
                          line=name.line, col=name.col)

    def parse_type(self) -> TypeRef:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(f"expected a type, found {t.text or 'end of input'!r}")
        self.advance()
        if t.text == "List":
            self.expect_sym("[")
            elem = self.parse_type()
            self.expect_sym("]")
            return ast.list_of(elem)
        return TypeRef(t.text)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect_sym("{")
        body: list[Stmt] = []
        while not self.at_sym("}"):
            body.append(self.parse_stmt())
        self.expect_sym("}")
        return body

    def parse_stmt(self) -> Stmt:
        t = self.tokens[self.pos]
        kw = t.text if t.kind == "keyword" else None
        if kw == "var":
            self.advance()
            name = self.expect_ident("variable name")
            declared = None
            if self.at_sym(":"):
                self.advance()
                declared = self.parse_type()
            self.expect_sym("=")
            init = self.parse_expr()
            self.expect_sym(";")
            return VarDecl(name.text, declared, init, line=t.line, col=t.col)
        if kw == "return":
            self.advance()
            value = None
            if not self.at_sym(";"):
                value = self.parse_expr()
            self.expect_sym(";")
            return Return(value, line=t.line, col=t.col)
        if kw == "if":
            self.advance()
            self.expect_sym("(")
            cond = self.parse_expr()
            self.expect_sym(")")
            then_body = self.parse_block()
            else_body: list[Stmt] = []
            if self.at_kw("else"):
                self.advance()
                else_body = self.parse_block()
            return If(cond, then_body, else_body, line=t.line, col=t.col)
        if kw == "while":
            self.advance()
            self.expect_sym("(")
            cond = self.parse_expr()
            self.expect_sym(")")
            body = self.parse_block()
            return While(cond, body, line=t.line, col=t.col)
        expr = self.parse_expr()
        if self.at_sym("="):
            eq = self.advance()
            if not isinstance(expr, (Var, FieldGet)):
                raise self.error("invalid assignment target", eq)
            value = self.parse_expr()
            self.expect_sym(";")
            return Assign(expr, value, line=t.line, col=t.col)
        self.expect_sym(";")
        return ExprStmt(expr, line=t.line, col=t.col)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, level: int = 0) -> Expr:
        """An operand, then each operator of this level or a tighter one with
        its right operand, which binds only tighter operators."""
        left = self.parse_unary()
        tokens = self.tokens
        while (op := tokens[self.pos])[0] == "sym" and _LEVEL.get(op[1], -1) >= level:
            self.pos += 1
            right = self.parse_expr(_LEVEL[op[1]] + 1)
            left = Binary(op.text, left, right, line=op.line, col=op.col)
        return left

    def parse_unary(self) -> Expr:
        if self.at_sym("-"):
            op = self.advance()
            operand = self.parse_unary()
            return Unary("-", operand, line=op.line, col=op.col)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at_sym("."):
            dot = self.advance()
            name = self.peek()
            if name.kind == "ident":
                self.advance()
            elif name.kind == "keyword":
                raise self.error(f"{name.text!r} cannot follow '.'", name)
            else:
                raise self.error("expected member name after '.'", name)
            if self.at_sym("("):
                args = self.parse_args()
                expr = MethodCall(expr, name.text, args, line=dot.line, col=dot.col)
            else:
                expr = FieldGet(expr, name.text, line=dot.line, col=dot.col)
        return expr

    def parse_args(self) -> list[Expr]:
        self.expect_sym("(")
        args: list[Expr] = []
        while not self.at_sym(")"):
            if args:
                self.expect_sym(",")
            args.append(self.parse_expr())
        self.expect_sym(")")
        return args

    def parse_primary(self) -> Expr:
        t = self.tokens[self.pos]
        kind = t.kind
        if kind == "int":
            self.advance()
            # int() refuses strings of more than 4300 digits, so count the
            # digits first, leading zeros of any script aside.
            digits = t.text if t.text.isascii() \
                else "".join(str(int(c)) for c in t.text)
            digits = digits.lstrip("0") or "0"
            if len(digits) > _MAX_INT_DIGITS or int(digits) > _MAX_INT_LITERAL:
                raise self.error("integer literal out of 64-bit range", t)
            return IntLit(int(digits), line=t.line, col=t.col)
        if kind == "str":
            self.advance()
            return StrLit(t.text, line=t.line, col=t.col)
        kw = t.text if kind == "keyword" else None
        if kw == "true" or kw == "false":
            self.advance()
            return BoolLit(kw == "true", line=t.line, col=t.col)
        if kw == "this":
            self.advance()
            return This(line=t.line, col=t.col)
        if kw == "new":
            self.advance()
            cname = self.expect_ident("class name after 'new'")
            args = self.parse_args()
            return New(cname.text, args, line=t.line, col=t.col)
        if self.at_sym("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_sym(")")
            return expr
        if self.at_sym("["):
            self.advance()
            elements: list[Expr] = []
            while not self.at_sym("]"):
                if elements:
                    self.expect_sym(",")
                elements.append(self.parse_expr())
            self.expect_sym("]")
            return ListLit(elements, line=t.line, col=t.col)
        if kind == "ident":
            if t.text in ast.BUILTIN_FUNCS:
                self.advance()
                if not self.at_sym("("):
                    raise self.error(f"builtin {t.text!r} must be called", t)
                args = self.parse_args()
                return BuiltinCall(t.text, args, line=t.line, col=t.col)
            self.advance()
            if self.at_sym("("):
                raise self.error(
                    f"unknown function {t.text!r}; only builtins can be called "
                    "without a receiver", t)
            return Var(t.text, line=t.line, col=t.col)
        raise self.error(f"expected an expression, found {t.text or 'end of input'!r}")


def parse_program(source: str) -> Program:
    """Parse source text into a Program or raise ParseError."""
    return _Parser(tokenize(source)).parse_program()
