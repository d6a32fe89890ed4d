"""Semantic validation: annotation rules, encapsulation, simple type checking.

One walk of the program resolves every name and call; it dispatches on
each node's class through the _CHECK and _INFER tables.  resolve() returns
both of its results: the report of rule violations and, for each method, the
ordered set of (class, method) targets it calls, which the partitioner
walks from main.  validate() returns only the report and never raises
on program content; analyze_calls() returns only the calls and raises when
the program does not validate.

The walk runs at most once per Program object: its results are kept, as
immutable tuples, in the instance __dict__ under _CHECKED (not a dataclass
field, so ==, repr and the image codec never see it), and every later
validate/resolve/analyze_calls answers from there with fresh copies.  So a
Program is read-only once it has been checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnresolvedCall
from . import ast
from .ast import (
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, Expr, ExprStmt,
    FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Program, Return,
    Stmt, StrLit, This, TypeRef, Unary, Var, VarDecl, While,
)
from .lexer import line_col

# Rule identifiers attached to violations.
ENCAPSULATION = "ENCAPSULATION"
MAIN_PLACEMENT = "MAIN_PLACEMENT"
MAIN_SIGNATURE = "MAIN_SIGNATURE"
STATIC_PLACEMENT = "STATIC_PLACEMENT"
TYPE_RESOLVE = "TYPE_RESOLVE"
TYPE_ERROR = "TYPE_ERROR"
FIELD_ACCESS = "FIELD_ACCESS"


@dataclass(frozen=True)
class Violation:
    rule: str
    class_name: str
    method_name: str | None
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        where = self.class_name if self.method_name is None \
            else f"{self.class_name}.{self.method_name}"
        return f"{self.rule} {where} {self.line}:{self.col}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


# A call target: (class, method), as the partition walk keys methods.  A
# constructor's method name is its class name, as the DSL spells it.
CallTarget = tuple[str, str]


def _is_list_none(t: TypeRef) -> bool:
    return t.name == "List" and t.elem is None


def assignable(src: TypeRef, dst: TypeRef) -> bool:
    """src value can bind to a dst slot.  Lists of unknown element type (the
    empty literal) bind to any list."""
    if src == dst:
        return True
    if src.name == "List" and dst.name == "List":
        if src.elem is None:
            return True
        if dst.elem is None:
            return False
        return assignable(src.elem, dst.elem)
    return False


class _Checker:
    """Walks one program; collects violations and resolved call targets.

    check_class and check_method set the class, the method (None for a
    class's fields), the local types and the call targets being walked, so
    each handler takes only its node; nested blocks share the one env."""

    def __init__(self, program: Program):
        self.program = program
        self.source = program.__dict__.get(ast.SOURCE, "")
        self.report = ValidationReport()
        self.classes = {c.name: c for c in program.classes}
        self.methods = ast.method_table(self.classes)
        # (class name, field name) -> the field's first declaration
        self.fields = {(c.name, f.name): f for c in program.classes
                       for f in reversed(c.fields)}
        # (class, method) -> its call targets, in first-call order (dict keys)
        self.calls: dict[CallTarget, dict[CallTarget, None]] = {}
        self.cls: ClassDecl | None = None
        self.m: MethodDecl | None = None
        # local name -> its type; None for a declaration that did not type,
        # so that its uses report nothing more
        self.env: dict[str, TypeRef | None] = {}
        self.targets: dict[CallTarget, None] = {}

    # -- helpers -------------------------------------------------------------

    def fail(self, rule: str, node, message: str) -> None:
        line, col = line_col(self.source, node.pos)
        method = None if self.m is None else self.m.name
        self.report.violations.append(
            Violation(rule, self.cls.name, method, line, col, message))

    def check_typeref(self, t: TypeRef, node, allow_unit: bool = False) -> bool:
        if t.name == "Unit":
            if not allow_unit:
                self.fail(TYPE_ERROR, node, "Unit is not a value type")
                return False
            return True
        if t.name == "List":
            if t.elem is None:
                self.fail(TYPE_ERROR, node, "List requires an element type")
                return False
            return self.check_typeref(t.elem, node)
        if t.name in ("Int", "Bool", "Str"):
            return True
        if t.name not in self.classes:
            self.fail(TYPE_RESOLVE, node, f"unknown type {t.name}")
            return False
        return True

    # -- program walk ----------------------------------------------------------

    def run(self) -> ValidationReport:
        for cls in self.program.classes:
            self.check_class(cls)
        return self.report

    def check_class(self, cls: ClassDecl) -> None:
        self.cls, self.m = cls, None
        annotated = cls.annotation in (Annotation.TRUSTED, Annotation.UNTRUSTED)
        for f in cls.fields:
            self.check_typeref(f.type, f)
            if annotated and f.visibility == ast.Visibility.PUBLIC:
                self.fail(ENCAPSULATION, f,
                          f"annotated class {cls.name} exposes public field {f.name}")
        for m in cls.methods:
            self.check_method(m)

    def check_method(self, m: MethodDecl) -> None:
        cls = self.cls
        self.m = m
        annotated = cls.annotation in (Annotation.TRUSTED, Annotation.UNTRUSTED)
        if m.name == "main":
            if cls.annotation == Annotation.TRUSTED:
                self.fail(MAIN_PLACEMENT, m, "main cannot live in a trusted class")
            if not m.is_static:
                self.fail(MAIN_SIGNATURE, m, "main must be static")
            if m.return_type != ast.UNIT:
                self.fail(MAIN_SIGNATURE, m, "main returns unit")
            ok_params = len(m.params) == 0 or (
                len(m.params) == 1 and m.params[0].type == ast.list_of(ast.STR))
            if not ok_params:
                self.fail(MAIN_SIGNATURE, m,
                          "main takes no parameters or a single List[Str]")
        elif m.is_static and annotated:
            self.fail(STATIC_PLACEMENT, m,
                      "static methods are allowed only on neutral classes")

        self.env = env = {}
        for p in m.params:
            self.check_typeref(p.type, p)
            env[p.name] = p.type
        if not m.is_constructor:
            self.check_typeref(m.return_type, m, allow_unit=True)

        self.targets = self.calls[(cls.name, m.name)] = {}
        self.check_body(m.body)

    # -- statements ----------------------------------------------------------

    def check_body(self, body: list[Stmt]) -> None:
        for st in body:
            _CHECK[st.__class__](self, st)

    def check_var_decl(self, st: VarDecl) -> None:
        t = _INFER[st.init.__class__](self, st.init)
        env = self.env
        if st.name in env:
            self.fail(TYPE_ERROR, st, f"variable {st.name} already declared")
        if st.declared_type is not None:
            if self.check_typeref(st.declared_type, st):
                if t is not None and not assignable(t, st.declared_type):
                    self.fail(TYPE_ERROR, st,
                              f"cannot assign {t} to {st.declared_type}")
            env[st.name] = st.declared_type
        else:
            if t is not None and _is_list_none(t):
                self.fail(TYPE_ERROR, st, "empty list needs a declared list type")
                t = None
            env[st.name] = t

    def check_assign(self, st: Assign) -> None:
        vt = _INFER[st.value.__class__](self, st.value)
        target = st.target
        if target.__class__ is Var:
            if target.name not in self.env:
                self.fail(TYPE_RESOLVE, target, f"unknown variable {target.name}")
                return
            dst = self.env[target.name]
        else:
            dst = self.check_field_target(target)
        if dst is not None and vt is not None and not assignable(vt, dst):
            self.fail(TYPE_ERROR, st, f"cannot assign {vt} to {dst}")

    def check_expr_stmt(self, st: ExprStmt) -> None:
        _INFER[st.expr.__class__](self, st.expr)

    def check_return(self, st: Return) -> None:
        m = self.m
        if m.is_constructor:
            if st.value is not None:
                self.fail(TYPE_ERROR, st, "constructors cannot return a value")
            return
        if st.value is None:
            if m.return_type != ast.UNIT:
                self.fail(TYPE_ERROR, st, f"return needs a {m.return_type} value")
            return
        t = _INFER[st.value.__class__](self, st.value)
        if m.return_type == ast.UNIT:
            self.fail(TYPE_ERROR, st, "unit method cannot return a value")
        elif t is not None and not assignable(t, m.return_type):
            self.fail(TYPE_ERROR, st,
                      f"cannot return {t} from a {m.return_type} method")

    def check_if(self, st: If) -> None:
        t = _INFER[st.cond.__class__](self, st.cond)
        if t is not None and t != ast.BOOL:
            self.fail(TYPE_ERROR, st, "if condition must be Bool")
        self.check_body(st.then_body)
        self.check_body(st.else_body)

    def check_while(self, st: While) -> None:
        t = _INFER[st.cond.__class__](self, st.cond)
        if t is not None and t != ast.BOOL:
            self.fail(TYPE_ERROR, st, "while condition must be Bool")
        self.check_body(st.body)

    def check_field_target(self, fg: FieldGet) -> TypeRef | None:
        """Field reads and writes go through this; returns the field type."""
        if fg.receiver.__class__ is not This:
            self.fail(FIELD_ACCESS, fg,
                      "fields of other objects cannot be accessed directly")
            return None
        if self.m.is_static:
            self.fail(TYPE_ERROR, fg, "no this in a static method")
            return None
        f = self.fields.get((self.cls.name, fg.field_name))
        if f is None:
            self.fail(TYPE_RESOLVE, fg,
                      f"class {self.cls.name} has no field {fg.field_name}")
            return None
        return f.type

    # -- expressions ----------------------------------------------------------

    def infer_int(self, e: IntLit) -> TypeRef:
        return ast.INT

    def infer_bool(self, e: BoolLit) -> TypeRef:
        return ast.BOOL

    def infer_str(self, e: StrLit) -> TypeRef:
        return ast.STR

    def infer_this(self, e: This) -> TypeRef | None:
        if self.m.is_static:
            self.fail(TYPE_ERROR, e, "no this in a static method")
            return None
        return TypeRef(self.cls.name)

    def infer_var(self, e: Var) -> TypeRef | None:
        try:
            return self.env[e.name]
        except KeyError:
            self.fail(TYPE_RESOLVE, e, f"unknown variable {e.name}")
            return None

    def infer_unary(self, e: Unary) -> TypeRef:
        t = _INFER[e.operand.__class__](self, e.operand)
        if t is not None and t != ast.INT:
            self.fail(TYPE_ERROR, e, "unary '-' needs an Int")
        return ast.INT

    def infer_list_lit(self, e: ListLit) -> TypeRef:
        elem: TypeRef | None = None
        for el in e.elements:
            t = _INFER[el.__class__](self, el)
            if t is None:
                continue
            if elem is None or (_is_list_none(elem) and t.name == "List"):
                elem = t
            elif not assignable(t, elem):
                self.fail(TYPE_ERROR, el, f"list elements disagree: {elem} vs {t}")
        return TypeRef("List", elem)

    def infer_binary(self, e: Binary) -> TypeRef | None:
        lt = _INFER[e.left.__class__](self, e.left)
        rt = _INFER[e.right.__class__](self, e.right)
        if lt is None or rt is None:
            return None
        if e.op == "+":
            if lt == ast.INT and rt == ast.INT:
                return ast.INT
            if lt == ast.STR and rt == ast.STR:
                return ast.STR
            self.fail(TYPE_ERROR, e,
                      f"'+' needs two Ints or two Strs, got {lt} and {rt}")
            return None
        if e.op in ("-", "*", "/", "%"):
            if lt == ast.INT and rt == ast.INT:
                return ast.INT
            self.fail(TYPE_ERROR, e,
                      f"{e.op!r} needs Int operands, got {lt} and {rt}")
            return None
        if e.op in ("<", "<=", ">", ">="):
            if lt == ast.INT and rt == ast.INT:
                return ast.BOOL
            self.fail(TYPE_ERROR, e, f"{e.op!r} compares Ints, got {lt} and {rt}")
            return ast.BOOL
        # "==" or "!="
        if lt == rt and lt in (ast.INT, ast.BOOL, ast.STR):
            return ast.BOOL
        self.fail(TYPE_ERROR, e,
                  f"{e.op!r} compares Int, Bool or Str values of one type")
        return ast.BOOL

    def infer_new(self, e: New) -> TypeRef | None:
        target = self.classes.get(e.class_name)
        if target is None:
            self.fail(TYPE_RESOLVE, e, f"unknown class {e.class_name}")
            return None
        ctor = self.methods.get((target.name, target.name))
        if ctor is None:
            self.fail(TYPE_ERROR, e, f"class {e.class_name} has no constructor")
            return TypeRef(e.class_name)
        self.check_args(e, ctor.params, f"constructor {e.class_name}")
        self.targets[(target.name, ctor.name)] = None
        return TypeRef(e.class_name)

    def infer_call(self, e: MethodCall) -> TypeRef | None:
        receiver = e.receiver
        # Static dispatch: a bare name that is no local binding but names a class.
        if receiver.__class__ is Var and receiver.name not in self.env \
                and receiver.name in self.classes:
            target_cls = self.classes[receiver.name]
            target = self.method_of(target_cls, e)
            if target is None:
                return None
            if not target.is_static:
                self.fail(TYPE_ERROR, e, f"{target_cls.name}.{e.method} is not static")
                return None
            if target_cls.annotation != Annotation.NEUTRAL:
                # Only neutral statics exist in both images; main in
                # particular is an entry point, not a callable.
                self.fail(STATIC_PLACEMENT, e,
                          f"static {target_cls.name}.{e.method} is only "
                          "callable on a neutral class")
                return None
        else:
            rt = _INFER[receiver.__class__](self, receiver)
            if rt is None:
                return None
            if rt.name == "List":
                return self.infer_list_method(e, rt)
            target_cls = self.classes.get(rt.name)
            if target_cls is None:
                self.fail(TYPE_ERROR, e, f"type {rt} has no methods")
                return None
            target = self.method_of(target_cls, e)
            if target is None:
                return None
            if target.is_static:
                self.fail(TYPE_ERROR, e,
                          f"static {target_cls.name}.{e.method} called on an instance")
                return None
            if target.is_constructor:
                self.fail(TYPE_ERROR, e, "constructors are invoked with new")
                return None
        self.check_args(e, target.params, f"{target_cls.name}.{e.method}")
        self.targets[(target_cls.name, target.name)] = None
        return target.return_type

    def method_of(self, target_cls: ClassDecl, e: MethodCall) -> MethodDecl | None:
        target = self.methods.get((target_cls.name, e.method))
        if target is None:
            self.fail(TYPE_RESOLVE, e,
                      f"class {target_cls.name} has no method {e.method}")
        return target

    def infer_list_method(self, e: MethodCall, list_type: TypeRef) -> TypeRef | None:
        elem = list_type.elem
        if e.method == "len":
            if e.args:
                self.fail(TYPE_ERROR, e, "len takes no arguments")
            return ast.INT
        if e.method == "get":
            if len(e.args) != 1:
                self.fail(TYPE_ERROR, e, "get takes one Int index")
            else:
                t = _INFER[e.args[0].__class__](self, e.args[0])
                if t is not None and t != ast.INT:
                    self.fail(TYPE_ERROR, e, "get index must be Int")
            if elem is None:
                self.fail(TYPE_ERROR, e,
                          "cannot get from a list of unknown element type")
            return elem
        if e.method == "append":
            if len(e.args) != 1:
                self.fail(TYPE_ERROR, e, "append takes one value")
                return ast.UNIT
            t = _INFER[e.args[0].__class__](self, e.args[0])
            if elem is not None and t is not None and not assignable(t, elem):
                self.fail(TYPE_ERROR, e, f"cannot append {t} to {list_type}")
            return ast.UNIT
        self.fail(TYPE_RESOLVE, e, f"lists have no method {e.method}")
        return None

    def infer_builtin(self, e: BuiltinCall) -> TypeRef:
        argts = [_INFER[a.__class__](self, a) for a in e.args]
        params, result = ast.BUILTINS[e.name]
        if len(argts) != len(params):
            self.fail(TYPE_ERROR, e, f"{e.name} takes {len(params)} argument(s)")
            return result
        for got, want in zip(argts, params):
            if got is None:
                continue
            if want is None:
                if got not in (ast.INT, ast.BOOL, ast.STR):
                    self.fail(TYPE_ERROR, e, f"{e.name} takes an Int, Bool or Str")
            elif got != want:
                self.fail(TYPE_ERROR, e, f"{e.name} argument must be {want}, got {got}")
        return result

    def check_args(self, e: Expr, params: list[ast.Param], what: str) -> None:
        args = e.args
        if len(params) != len(args):
            self.fail(TYPE_ERROR, e,
                      f"{what} takes {len(params)} argument(s), got {len(args)}")
        for p, a in zip(params, args):
            t = _INFER[a.__class__](self, a)
            if t is not None and not assignable(t, p.type):
                self.fail(TYPE_ERROR, a,
                          f"{what}: cannot pass {t} for {p.name}: {p.type}")


_CHECK = {
    VarDecl: _Checker.check_var_decl, Assign: _Checker.check_assign,
    ExprStmt: _Checker.check_expr_stmt, Return: _Checker.check_return,
    If: _Checker.check_if, While: _Checker.check_while,
}
_INFER = {
    IntLit: _Checker.infer_int, BoolLit: _Checker.infer_bool,
    StrLit: _Checker.infer_str, This: _Checker.infer_this,
    Var: _Checker.infer_var, FieldGet: _Checker.check_field_target,
    Unary: _Checker.infer_unary, Binary: _Checker.infer_binary,
    ListLit: _Checker.infer_list_lit, New: _Checker.infer_new,
    MethodCall: _Checker.infer_call, BuiltinCall: _Checker.infer_builtin,
}


# Instance __dict__ key of a checked program's kept walk.
_CHECKED = "_checked"


def _checked(program: Program) -> tuple[tuple[Violation, ...],
                                        dict[CallTarget, tuple[CallTarget, ...]]]:
    """The program's violations and calls, walking the checker on first use."""
    kept = program.__dict__.get(_CHECKED)
    if kept is None:
        checker = _Checker(program)
        kept = (tuple(checker.run().violations),
                {k: tuple(v) for k, v in checker.calls.items()})
        program.__dict__[_CHECKED] = kept
    return kept


def resolve(program: Program) -> tuple[ValidationReport,
                                       dict[CallTarget, list[CallTarget]]]:
    """The violation report and the resolved call targets per (class, method),
    from one walk.  The calls are complete only when the report is ok."""
    violations, calls = _checked(program)
    return (ValidationReport(list(violations)),
            {k: list(v) for k, v in calls.items()})


def validate(program: Program) -> ValidationReport:
    """Check annotation placement, encapsulation and simple type correctness."""
    return ValidationReport(list(_checked(program)[0]))


def analyze_calls(program: Program) -> dict[CallTarget, list[CallTarget]]:
    """Resolved call targets per (class, method).  Requires a valid program."""
    report, calls = resolve(program)
    if not report.ok:
        raise UnresolvedCall(f"program does not validate: {report.violations[0]}")
    return calls
