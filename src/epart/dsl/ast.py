"""AST for the annotated class language.

Positions (line, col) are carried for diagnostics but excluded from equality so
that parse -> print -> parse round trips compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


class Annotation(Enum):
    TRUSTED = "Trusted"
    UNTRUSTED = "Untrusted"
    NEUTRAL = "Neutral"


class Visibility(Enum):
    PUBLIC = "public"
    PRIVATE = "private"


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class TypeRef:
    """A surface type: Int, Bool, Str, Unit, List[T], or a class name."""

    name: str
    elem: Optional["TypeRef"] = None  # set only for List

    def __str__(self) -> str:
        if self.name == "List":
            return f"List[{self.elem}]"
        return self.name


INT = TypeRef("Int")
BOOL = TypeRef("Bool")
STR = TypeRef("Str")
UNIT = TypeRef("Unit")

BUILTIN_TYPE_NAMES = {"Int", "Bool", "Str", "Unit", "List"}


def list_of(elem: TypeRef) -> TypeRef:
    return TypeRef("List", elem)


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class This(Expr):
    pass


@dataclass
class FieldGet(Expr):
    receiver: Expr = None  # type: ignore[assignment]
    field_name: str = ""


@dataclass
class Unary(Expr):
    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class New(Expr):
    class_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class MethodCall(Expr):
    """receiver.method(args).

    The receiver may also name a class (static call); resolution prefers local
    bindings and falls back to declared class names.
    """

    receiver: Expr = None  # type: ignore[assignment]
    method: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class BuiltinCall(Expr):
    """print / file_write / file_read / compute / gc."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class ListLit(Expr):
    elements: list[Expr] = field(default_factory=list)


BUILTIN_FUNCS = {"print", "file_write", "file_read", "compute", "gc"}
LIST_METHODS = {"get", "append", "len"}


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class VarDecl(Stmt):
    name: str = ""
    declared_type: Optional[TypeRef] = None
    init: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Stmt):
    """Assignment to a local variable or to this.field."""

    target: Union[Var, FieldGet] = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class Param:
    name: str
    type: TypeRef
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class FieldDecl:
    name: str
    type: TypeRef
    visibility: Visibility = Visibility.PRIVATE
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class MethodDecl:
    name: str
    params: list[Param]
    return_type: TypeRef
    body: list[Stmt]
    is_constructor: bool = False
    is_static: bool = False
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class ClassDecl:
    name: str
    annotation: Annotation
    fields: list[FieldDecl]
    methods: list[MethodDecl]  # constructors included, in declaration order
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)

    @property
    def constructor(self) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.is_constructor:
                return m
        return None

    def method(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def field_decl(self, name: str) -> Optional[FieldDecl]:
        for f in self.fields:
            if f.name == name:
                return f
        return None


@dataclass
class Program:
    classes: list[ClassDecl]

    def main_location(self) -> tuple[ClassDecl, MethodDecl]:
        for c in self.classes:
            m = c.method("main")
            if m is not None:
                return c, m
        raise LookupError("program has no main")


# ---------------------------------------------------------------------------
# Pretty printer


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    return "".join(out)


def expr_to_source(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StrLit):
        return f'"{_escape(e.value)}"'
    if isinstance(e, Var):
        return e.name
    if isinstance(e, This):
        return "this"
    if isinstance(e, FieldGet):
        return f"{expr_to_source(e.receiver)}.{e.field_name}"
    if isinstance(e, Unary):
        return f"(-{expr_to_source(e.operand)})"
    if isinstance(e, Binary):
        return f"({expr_to_source(e.left)} {e.op} {expr_to_source(e.right)})"
    if isinstance(e, New):
        args = ", ".join(expr_to_source(a) for a in e.args)
        return f"new {e.class_name}({args})"
    if isinstance(e, MethodCall):
        args = ", ".join(expr_to_source(a) for a in e.args)
        return f"{expr_to_source(e.receiver)}.{e.method}({args})"
    if isinstance(e, BuiltinCall):
        args = ", ".join(expr_to_source(a) for a in e.args)
        return f"{e.name}({args})"
    if isinstance(e, ListLit):
        return "[" + ", ".join(expr_to_source(x) for x in e.elements) + "]"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _stmt_lines(s: Stmt, indent: str) -> list[str]:
    if isinstance(s, VarDecl):
        ann = f": {s.declared_type}" if s.declared_type else ""
        return [f"{indent}var {s.name}{ann} = {expr_to_source(s.init)};"]
    if isinstance(s, Assign):
        return [f"{indent}{expr_to_source(s.target)} = {expr_to_source(s.value)};"]
    if isinstance(s, ExprStmt):
        return [f"{indent}{expr_to_source(s.expr)};"]
    if isinstance(s, Return):
        if s.value is None:
            return [f"{indent}return;"]
        return [f"{indent}return {expr_to_source(s.value)};"]
    if isinstance(s, If):
        lines = [f"{indent}if ({expr_to_source(s.cond)}) {{"]
        for st in s.then_body:
            lines += _stmt_lines(st, indent + "    ")
        if s.else_body:
            lines.append(f"{indent}}} else {{")
            for st in s.else_body:
                lines += _stmt_lines(st, indent + "    ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, While):
        lines = [f"{indent}while ({expr_to_source(s.cond)}) {{"]
        for st in s.body:
            lines += _stmt_lines(st, indent + "    ")
        lines.append(f"{indent}}}")
        return lines
    raise TypeError(f"unknown statement node {type(s).__name__}")


def method_signature(m: MethodDecl) -> str:
    params = ", ".join(f"{p.name}: {p.type}" for p in m.params)
    head = "static " if m.is_static else ""
    sig = f"{head}{m.name}({params})"
    if not m.is_constructor and m.return_type != UNIT:
        sig += f" -> {m.return_type}"
    return sig


def to_source(program: Program) -> str:
    """Render a Program back to canonical source text."""
    chunks: list[str] = []
    for c in program.classes:
        lines = [f"@{c.annotation.value}", f"class {c.name} {{"]
        for f in c.fields:
            vis = "public " if f.visibility == Visibility.PUBLIC else ""
            lines.append(f"    {vis}{f.name}: {f.type};")
        for m in c.methods:
            lines.append(f"    {method_signature(m)} {{")
            for st in m.body:
                lines += _stmt_lines(st, "        ")
            lines.append("    }")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
