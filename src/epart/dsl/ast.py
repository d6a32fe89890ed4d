"""AST for the annotated class language.

Each node carries pos, the source offset of the token its diagnostics point
at, and epart.dsl.lexer.line_col turns it into line:col.  A node built
without source has pos -1, which prints as 0:0.  pos is excluded from
equality, so nodes compare structurally, and from the image encoding.
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
# TypeRef is frozen, so the parser and the image decoder give every use of a
# primitive type one of these instances, not one TypeRef per parameter,
# field and return type.
PRIMITIVE_TYPES = {t.name: t for t in (INT, BOOL, STR, UNIT)}

BUILTIN_TYPE_NAMES = {"Int", "Bool", "Str", "Unit", "List"}


def list_of(elem: TypeRef) -> TypeRef:
    return TypeRef("List", elem)


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    pos: int = field(default=-1, compare=False, kw_only=True)


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


# The binary operators by precedence level, loosest first; all are
# left-associative.
BINARY_OPS: tuple[tuple[str, ...], ...] = (
    ("<", "<=", ">", ">=", "==", "!="),
    ("+", "-"),
    ("*", "/", "%"),
)


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


# Each builtin's parameter types and result type; a None parameter takes
# any Int, Bool or Str.  The keys are the reserved builtin names.
BUILTINS: dict[str, tuple[tuple[TypeRef | None, ...], TypeRef]] = {
    "print": ((None,), UNIT),
    "file_write": ((STR, STR), UNIT),
    "file_read": ((STR,), STR),
    "compute": ((INT,), UNIT),
    "gc": ((), UNIT),
}
BUILTIN_FUNCS = frozenset(BUILTINS)


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    pos: int = field(default=-1, compare=False, kw_only=True)


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
    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass
class FieldDecl:
    name: str
    type: TypeRef
    visibility: Visibility = Visibility.PRIVATE
    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass
class MethodDecl:
    name: str
    params: list[Param]
    return_type: TypeRef
    body: list[Stmt]
    is_constructor: bool = False
    is_static: bool = False
    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass
class ClassDecl:
    name: str
    annotation: Annotation
    fields: list[FieldDecl]
    methods: list[MethodDecl]  # constructors included, in declaration order
    pos: int = field(default=-1, compare=False, kw_only=True)

    def method(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


def method_table(classes: dict[str, ClassDecl]) -> dict[tuple[str, str],
                                                       MethodDecl]:
    """(class, method name) -> the first method of that name, the one a call
    runs, of each class keyed by name; a constructor is named as its class.
    Each runtime isolate, the checker and derive_interface all look methods
    up here."""
    return {(c.name, m.name): m for c in classes.values()
            for m in reversed(c.methods)}


# Instance __dict__ key of the source a parsed Program was read from: not a
# dataclass field, so ==, repr and the image codec never see it.
SOURCE = "_source"


@dataclass
class Program:
    """A parsed program.  It is read-only once it has been checked: the first
    validate/resolve keeps its one checker walk on the instance, and every
    later consumer (compute_images, the baselines, the CLI) reuses it.  Code
    that wants a changed program parses or builds a new one.  The parser
    keeps the source under SOURCE, against which node positions resolve."""

    classes: list[ClassDecl]

    def main_location(self) -> tuple[ClassDecl, MethodDecl]:
        for c in self.classes:
            m = c.method("main")
            if m is not None:
                return c, m
        raise LookupError("program has no main")

