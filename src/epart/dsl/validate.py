"""Semantic validation: annotation rules, encapsulation, simple type checking.

One walk of the program resolves every name and call.  resolve() returns
both of its results: the report of rule violations and, for each method, the
ordered set of (class, method) targets it calls, from which the partitioner
builds its call graphs.  validate() returns only the report and never raises
on program content; analyze_calls() returns only the calls and raises when
the program does not validate.
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


# A call target, keyed the same way call-graph nodes are.  Constructors use the
# class name as the method name (the DSL spells them that way).
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
    """Walks one program; collects violations and resolved call targets."""

    def __init__(self, program: Program):
        self.program = program
        self.report = ValidationReport()
        self.classes = {c.name: c for c in program.classes}
        # (class, method) -> its call targets, in first-call order (dict keys)
        self.calls: dict[CallTarget, dict[CallTarget, None]] = {}

    # -- helpers -------------------------------------------------------------

    def fail(self, rule: str, cls: str, method: str | None, node, message: str) -> None:
        self.report.violations.append(
            Violation(rule, cls, method, getattr(node, "line", 0),
                      getattr(node, "col", 0), message))

    def check_typeref(self, t: TypeRef, cls: str, method: str | None, node,
                      allow_unit: bool = False) -> bool:
        if t.name == "Unit":
            if not allow_unit:
                self.fail(TYPE_ERROR, cls, method, node, "Unit is not a value type")
                return False
            return True
        if t.name == "List":
            if t.elem is None:
                self.fail(TYPE_ERROR, cls, method, node, "List requires an element type")
                return False
            return self.check_typeref(t.elem, cls, method, node)
        if t.name in ("Int", "Bool", "Str"):
            return True
        if t.name not in self.classes:
            self.fail(TYPE_RESOLVE, cls, method, node, f"unknown type {t.name}")
            return False
        return True

    # -- program walk ----------------------------------------------------------

    def run(self) -> ValidationReport:
        for cls in self.program.classes:
            self.check_class(cls)
        return self.report

    def check_class(self, cls: ClassDecl) -> None:
        annotated = cls.annotation in (Annotation.TRUSTED, Annotation.UNTRUSTED)
        for f in cls.fields:
            self.check_typeref(f.type, cls.name, None, f)
            if annotated and f.visibility == ast.Visibility.PUBLIC:
                self.fail(ENCAPSULATION, cls.name, None, f,
                          f"annotated class {cls.name} exposes public field {f.name}")
        for m in cls.methods:
            self.check_method(cls, m)

    def check_method(self, cls: ClassDecl, m: MethodDecl) -> None:
        annotated = cls.annotation in (Annotation.TRUSTED, Annotation.UNTRUSTED)
        if m.name == "main":
            if cls.annotation == Annotation.TRUSTED:
                self.fail(MAIN_PLACEMENT, cls.name, m.name, m,
                          "main cannot live in a trusted class")
            if not m.is_static:
                self.fail(MAIN_SIGNATURE, cls.name, m.name, m, "main must be static")
            if m.return_type != ast.UNIT:
                self.fail(MAIN_SIGNATURE, cls.name, m.name, m, "main returns unit")
            ok_params = len(m.params) == 0 or (
                len(m.params) == 1 and m.params[0].type == ast.list_of(ast.STR))
            if not ok_params:
                self.fail(MAIN_SIGNATURE, cls.name, m.name, m,
                          "main takes no parameters or a single List[Str]")
        elif m.is_static and annotated:
            self.fail(STATIC_PLACEMENT, cls.name, m.name, m,
                      "static methods are allowed only on neutral classes")

        env: dict[str, TypeRef] = {}
        for p in m.params:
            self.check_typeref(p.type, cls.name, m.name, p)
            env[p.name] = p.type
        if not m.is_constructor:
            self.check_typeref(m.return_type, cls.name, m.name, m, allow_unit=True)

        self.calls[(cls.name, m.name)] = {}
        self.check_body(cls, m, m.body, env)

    # -- statements ----------------------------------------------------------

    def check_body(self, cls: ClassDecl, m: MethodDecl, body: list[Stmt],
                   env: dict[str, TypeRef]) -> None:
        for st in body:
            self.check_stmt(cls, m, st, env)

    def check_stmt(self, cls: ClassDecl, m: MethodDecl, st: Stmt,
                   env: dict[str, TypeRef]) -> None:
        name = m.name
        if isinstance(st, VarDecl):
            t = self.infer(cls, m, st.init, env)
            if st.name in env:
                self.fail(TYPE_ERROR, cls.name, name, st,
                          f"variable {st.name} already declared")
            if st.declared_type is not None:
                if self.check_typeref(st.declared_type, cls.name, name, st):
                    if t is not None and not assignable(t, st.declared_type):
                        self.fail(TYPE_ERROR, cls.name, name, st,
                                  f"cannot assign {t} to {st.declared_type}")
                env[st.name] = st.declared_type
            else:
                if t is not None and _is_list_none(t):
                    self.fail(TYPE_ERROR, cls.name, name, st,
                              "empty list needs a declared list type")
                env[st.name] = t or ast.INT
            return
        if isinstance(st, Assign):
            vt = self.infer(cls, m, st.value, env)
            if isinstance(st.target, Var):
                if st.target.name not in env:
                    self.fail(TYPE_RESOLVE, cls.name, name, st.target,
                              f"unknown variable {st.target.name}")
                    return
                dst = env[st.target.name]
            else:
                dst = self.check_field_target(cls, m, st.target, env)
                if dst is None:
                    return
            if vt is not None and not assignable(vt, dst):
                self.fail(TYPE_ERROR, cls.name, name, st,
                          f"cannot assign {vt} to {dst}")
            return
        if isinstance(st, ExprStmt):
            self.infer(cls, m, st.expr, env)
            return
        if isinstance(st, Return):
            if m.is_constructor:
                if st.value is not None:
                    self.fail(TYPE_ERROR, cls.name, name, st,
                              "constructors cannot return a value")
                return
            if st.value is None:
                if m.return_type != ast.UNIT:
                    self.fail(TYPE_ERROR, cls.name, name, st,
                              f"return needs a {m.return_type} value")
                return
            t = self.infer(cls, m, st.value, env)
            if m.return_type == ast.UNIT:
                self.fail(TYPE_ERROR, cls.name, name, st,
                          "unit method cannot return a value")
            elif t is not None and not assignable(t, m.return_type):
                self.fail(TYPE_ERROR, cls.name, name, st,
                          f"cannot return {t} from a {m.return_type} method")
            return
        if isinstance(st, If):
            t = self.infer(cls, m, st.cond, env)
            if t is not None and t != ast.BOOL:
                self.fail(TYPE_ERROR, cls.name, name, st, "if condition must be Bool")
            self.check_body(cls, m, st.then_body, env)
            self.check_body(cls, m, st.else_body, env)
            return
        if isinstance(st, While):
            t = self.infer(cls, m, st.cond, env)
            if t is not None and t != ast.BOOL:
                self.fail(TYPE_ERROR, cls.name, name, st, "while condition must be Bool")
            self.check_body(cls, m, st.body, env)
            return
        raise TypeError(f"unknown statement {type(st).__name__}")

    def check_field_target(self, cls: ClassDecl, m: MethodDecl, fg: FieldGet,
                           env: dict[str, TypeRef]) -> TypeRef | None:
        """Field writes must go through this; returns the field type."""
        if not isinstance(fg.receiver, This):
            self.fail(FIELD_ACCESS, cls.name, m.name, fg,
                      "fields of other objects cannot be accessed directly")
            return None
        if m.is_static:
            self.fail(TYPE_ERROR, cls.name, m.name, fg, "no this in a static method")
            return None
        f = cls.field_decl(fg.field_name)
        if f is None:
            self.fail(TYPE_RESOLVE, cls.name, m.name, fg,
                      f"class {cls.name} has no field {fg.field_name}")
            return None
        return f.type

    # -- expressions ----------------------------------------------------------

    def record_call(self, cls: ClassDecl, m: MethodDecl, target: CallTarget) -> None:
        self.calls[(cls.name, m.name)][target] = None

    def infer(self, cls: ClassDecl, m: MethodDecl, e: Expr,
              env: dict[str, TypeRef]) -> TypeRef | None:
        name = m.name
        if isinstance(e, IntLit):
            return ast.INT
        if isinstance(e, BoolLit):
            return ast.BOOL
        if isinstance(e, StrLit):
            return ast.STR
        if isinstance(e, This):
            if m.is_static:
                self.fail(TYPE_ERROR, cls.name, name, e, "no this in a static method")
                return None
            return TypeRef(cls.name)
        if isinstance(e, Var):
            if e.name in env:
                return env[e.name]
            self.fail(TYPE_RESOLVE, cls.name, name, e, f"unknown variable {e.name}")
            return None
        if isinstance(e, FieldGet):
            return self.check_field_target(cls, m, e, env)
        if isinstance(e, Unary):
            t = self.infer(cls, m, e.operand, env)
            if t is not None and t != ast.INT:
                self.fail(TYPE_ERROR, cls.name, name, e, "unary '-' needs an Int")
            return ast.INT
        if isinstance(e, Binary):
            return self.infer_binary(cls, m, e, env)
        if isinstance(e, ListLit):
            elem: TypeRef | None = None
            for el in e.elements:
                t = self.infer(cls, m, el, env)
                if t is None:
                    continue
                if elem is None or (_is_list_none(elem) and t.name == "List"):
                    elem = t
                elif not assignable(t, elem):
                    self.fail(TYPE_ERROR, cls.name, name, el,
                              f"list elements disagree: {elem} vs {t}")
            return TypeRef("List", elem)
        if isinstance(e, New):
            return self.infer_new(cls, m, e, env)
        if isinstance(e, MethodCall):
            return self.infer_call(cls, m, e, env)
        if isinstance(e, BuiltinCall):
            return self.infer_builtin(cls, m, e, env)
        raise TypeError(f"unknown expression {type(e).__name__}")

    def infer_binary(self, cls: ClassDecl, m: MethodDecl, e: Binary,
                     env: dict[str, TypeRef]) -> TypeRef | None:
        lt = self.infer(cls, m, e.left, env)
        rt = self.infer(cls, m, e.right, env)
        if lt is None or rt is None:
            return None
        if e.op == "+":
            if lt == ast.INT and rt == ast.INT:
                return ast.INT
            if lt == ast.STR and rt == ast.STR:
                return ast.STR
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"'+' needs two Ints or two Strs, got {lt} and {rt}")
            return None
        if e.op in ("-", "*", "/", "%"):
            if lt == ast.INT and rt == ast.INT:
                return ast.INT
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"{e.op!r} needs Int operands, got {lt} and {rt}")
            return None
        if e.op in ("<", "<=", ">", ">="):
            if lt == ast.INT and rt == ast.INT:
                return ast.BOOL
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"{e.op!r} compares Ints, got {lt} and {rt}")
            return ast.BOOL
        if e.op in ("==", "!="):
            if lt == rt and lt in (ast.INT, ast.BOOL, ast.STR):
                return ast.BOOL
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"{e.op!r} compares Int, Bool or Str values of one type")
            return ast.BOOL
        raise ValueError(f"unknown operator {e.op}")

    def infer_new(self, cls: ClassDecl, m: MethodDecl, e: New,
                  env: dict[str, TypeRef]) -> TypeRef | None:
        target = self.classes.get(e.class_name)
        if target is None:
            self.fail(TYPE_RESOLVE, cls.name, m.name, e,
                      f"unknown class {e.class_name}")
            return None
        ctor = target.constructor
        if ctor is None:
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"class {e.class_name} has no constructor")
            return TypeRef(e.class_name)
        self.check_args(cls, m, e, ctor.params, e.args, env,
                        f"constructor {e.class_name}")
        self.record_call(cls, m, (target.name, ctor.name))
        return TypeRef(e.class_name)

    def infer_call(self, cls: ClassDecl, m: MethodDecl, e: MethodCall,
                   env: dict[str, TypeRef]) -> TypeRef | None:
        # Static dispatch: a bare name that is no local binding but names a class.
        if isinstance(e.receiver, Var) and e.receiver.name not in env \
                and e.receiver.name in self.classes:
            target_cls = self.classes[e.receiver.name]
            target = target_cls.method(e.method)
            if target is None:
                self.fail(TYPE_RESOLVE, cls.name, m.name, e,
                          f"class {target_cls.name} has no method {e.method}")
                return None
            if not target.is_static:
                self.fail(TYPE_ERROR, cls.name, m.name, e,
                          f"{target_cls.name}.{e.method} is not static")
                return None
            if target_cls.annotation != Annotation.NEUTRAL:
                # Only neutral statics exist in both images; main in
                # particular is an entry point, not a callable.
                self.fail(STATIC_PLACEMENT, cls.name, m.name, e,
                          f"static {target_cls.name}.{e.method} is only "
                          "callable on a neutral class")
                return None
            self.check_args(cls, m, e, target.params, e.args, env,
                            f"{target_cls.name}.{e.method}")
            self.record_call(cls, m, (target_cls.name, target.name))
            return target.return_type
        rt = self.infer(cls, m, e.receiver, env)
        if rt is None:
            return None
        if rt.name == "List":
            return self.infer_list_method(cls, m, e, rt, env)
        target_cls = self.classes.get(rt.name)
        if target_cls is None:
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"type {rt} has no methods")
            return None
        target = target_cls.method(e.method)
        if target is None:
            self.fail(TYPE_RESOLVE, cls.name, m.name, e,
                      f"class {target_cls.name} has no method {e.method}")
            return None
        if target.is_static:
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"static {target_cls.name}.{e.method} called on an instance")
            return None
        if target.is_constructor:
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      "constructors are invoked with new")
            return None
        self.check_args(cls, m, e, target.params, e.args, env,
                        f"{target_cls.name}.{e.method}")
        self.record_call(cls, m, (target_cls.name, target.name))
        return target.return_type

    def infer_list_method(self, cls: ClassDecl, m: MethodDecl, e: MethodCall,
                          list_type: TypeRef,
                          env: dict[str, TypeRef]) -> TypeRef | None:
        elem = list_type.elem
        if e.method == "len":
            if e.args:
                self.fail(TYPE_ERROR, cls.name, m.name, e, "len takes no arguments")
            return ast.INT
        if e.method == "get":
            if len(e.args) != 1:
                self.fail(TYPE_ERROR, cls.name, m.name, e, "get takes one Int index")
            else:
                t = self.infer(cls, m, e.args[0], env)
                if t is not None and t != ast.INT:
                    self.fail(TYPE_ERROR, cls.name, m.name, e, "get index must be Int")
            if elem is None:
                self.fail(TYPE_ERROR, cls.name, m.name, e,
                          "cannot get from a list of unknown element type")
                return None
            return elem
        if e.method == "append":
            if len(e.args) != 1:
                self.fail(TYPE_ERROR, cls.name, m.name, e, "append takes one value")
                return ast.UNIT
            t = self.infer(cls, m, e.args[0], env)
            if elem is not None and t is not None and not assignable(t, elem):
                self.fail(TYPE_ERROR, cls.name, m.name, e,
                          f"cannot append {t} to {list_type}")
            return ast.UNIT
        self.fail(TYPE_RESOLVE, cls.name, m.name, e,
                  f"lists have no method {e.method}")
        return None

    def infer_builtin(self, cls: ClassDecl, m: MethodDecl, e: BuiltinCall,
                      env: dict[str, TypeRef]) -> TypeRef | None:
        argts = [self.infer(cls, m, a, env) for a in e.args]

        def want(n: int, types: list[TypeRef | None]) -> bool:
            if len(e.args) != n:
                self.fail(TYPE_ERROR, cls.name, m.name, e,
                          f"{e.name} takes {n} argument(s)")
                return False
            for got, exp in zip(argts, types):
                if got is not None and exp is not None and got != exp:
                    self.fail(TYPE_ERROR, cls.name, m.name, e,
                              f"{e.name} argument must be {exp}, got {got}")
            return True

        if e.name == "print":
            if want(1, [None]) and argts[0] is not None and \
                    argts[0] not in (ast.INT, ast.BOOL, ast.STR):
                self.fail(TYPE_ERROR, cls.name, m.name, e,
                          "print takes an Int, Bool or Str")
            return ast.UNIT
        if e.name == "file_write":
            want(2, [ast.STR, ast.STR])
            return ast.UNIT
        if e.name == "file_read":
            want(1, [ast.STR])
            return ast.STR
        if e.name == "compute":
            want(1, [ast.INT])
            return ast.UNIT
        if e.name == "gc":
            want(0, [])
            return ast.UNIT
        raise ValueError(f"unknown builtin {e.name}")

    def check_args(self, cls: ClassDecl, m: MethodDecl, e: Expr,
                   params: list[ast.Param], args: list[Expr],
                   env: dict[str, TypeRef], what: str) -> None:
        if len(params) != len(args):
            self.fail(TYPE_ERROR, cls.name, m.name, e,
                      f"{what} takes {len(params)} argument(s), got {len(args)}")
        for p, a in zip(params, args):
            t = self.infer(cls, m, a, env)
            if t is not None and not assignable(t, p.type):
                self.fail(TYPE_ERROR, cls.name, m.name, a,
                          f"{what}: cannot pass {t} for {p.name}: {p.type}")


def resolve(program: Program) -> tuple[ValidationReport,
                                       dict[CallTarget, list[CallTarget]]]:
    """The violation report and the resolved call targets per (class, method),
    from one walk.  The calls are complete only when the report is ok."""
    checker = _Checker(program)
    report = checker.run()
    return report, {k: list(v) for k, v in checker.calls.items()}


def validate(program: Program) -> ValidationReport:
    """Check annotation placement, encapsulation and simple type correctness."""
    return _Checker(program).run()


def analyze_calls(program: Program) -> dict[CallTarget, list[CallTarget]]:
    """Resolved call targets per (class, method).  Requires a valid program."""
    report, calls = resolve(program)
    if not report.ok:
        raise UnresolvedCall(f"program does not validate: {report.violations[0]}")
    return calls
