"""Tree-walking evaluator for one isolate's image.

The interpreter is deliberately unaware of transitions: anything that crosses
the isolate boundary (constructing through a proxy class, invoking a proxy
object, shimmed file access, safepoint policy) is delegated to a context
object supplied by the surrounding runtime.

Garbage collection may only run at statement boundaries, so every heap value
produced mid-expression is parked in the current frame's temp list until the
expression completes.  That keeps receivers and argument values alive across
re-entrant callbacks from the other isolate.
"""

from __future__ import annotations

import sys

from ..dsl import ast
from ..errors import DslRuntimeError
from .heap import UNSET, Frame, HeapObject, InstanceObj, Isolate, ListObj, ProxyObj

MAX_FRAMES = 512

# Every simulated frame or transition costs a dozen host stack frames, so
# the default host recursion limit trips long before the simulated caps do.
_RECURSION_HEADROOM = 30_000


def ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _RECURSION_HEADROOM:
        sys.setrecursionlimit(_RECURSION_HEADROOM)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def wrap64(v: int) -> int:
    return ((v - _I64_MIN) & ((1 << 64) - 1)) + _I64_MIN


class ReturnSignal(Exception):
    def __init__(self, value):
        super().__init__("return")
        self.value = value


def render_value(v) -> str:
    """How print shows a value; booleans use source-language spelling."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    raise DslRuntimeError(f"cannot print {v!r}")


class Interpreter:
    def __init__(self, isolate: Isolate, classes: dict[str, ast.ClassDecl],
                 proxy_names: set[str], context):
        self.isolate = isolate
        self.classes = classes
        self.proxy_names = proxy_names
        self.context = context

    # -- entry points ------------------------------------------------------

    def instantiate(self, decl: ast.ClassDecl, args: list,
                    charged: bool = True) -> InstanceObj:
        iso = self.isolate
        obj = InstanceObj(decl)
        iso.alloc(obj, charged=charged)
        for f in decl.fields:
            t = f.type
            if t == ast.INT:
                obj.values[f.name] = 0
            elif t == ast.BOOL:
                obj.values[f.name] = False
            elif t == ast.STR:
                obj.values[f.name] = ""
            elif t.name == "List":
                lst = ListObj()
                iso.alloc(lst, charged=charged)
                obj.values[f.name] = lst
            # class-typed fields stay UNSET until assigned
        ctor = decl.constructor
        if ctor is not None:
            self.call_method(decl, ctor, obj, args)
        return obj

    def call_method(self, decl: ast.ClassDecl, method: ast.MethodDecl,
                    this: InstanceObj | None, args: list):
        iso = self.isolate
        if len(iso.frames) >= MAX_FRAMES:
            raise self.error(f"call stack exhausted at {decl.name}.{method.name}")
        frame = Frame(f"{decl.name}.{method.name}", this=this)
        for p, v in zip(method.params, args):
            frame.env[p.name] = v
        iso.frames.append(frame)
        try:
            try:
                self.exec_block(method.body, frame)
                result = None
            except ReturnSignal as r:
                result = r.value
            if result is None and not method.is_constructor \
                    and method.return_type != ast.UNIT:
                raise self.error(
                    f"{frame.where} finished without returning a value")
        except DslRuntimeError as e:
            e.trace.append(f"at {frame.where}")
            raise
        except RecursionError:
            raise DslRuntimeError("call stack exhausted",
                                  trace=[f"at {frame.where}"]) from None
        finally:
            iso.frames.pop()
        return result

    def error(self, message: str) -> DslRuntimeError:
        return DslRuntimeError(message)

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts: list[ast.Stmt], frame: Frame) -> None:
        for s in stmts:
            self.exec_stmt(s, frame)
            self.context.safepoint(self.isolate)

    def exec_stmt(self, s: ast.Stmt, frame: Frame) -> None:
        if isinstance(s, ast.If):
            if self.eval_bool(s.cond, frame):
                self.exec_block(s.then_body, frame)
            else:
                self.exec_block(s.else_body, frame)
        elif isinstance(s, ast.While):
            while self.eval_bool(s.cond, frame):
                self.exec_block(s.body, frame)
                self.context.safepoint(self.isolate)
        elif isinstance(s, ast.VarDecl):
            frame.env[s.name] = self.eval(s.init, frame)
        elif isinstance(s, ast.Assign):
            self.exec_assign(s, frame)
        elif isinstance(s, ast.ExprStmt):
            self.eval(s.expr, frame)
        elif isinstance(s, ast.Return):
            value = self.eval(s.value, frame) if s.value is not None else None
            raise ReturnSignal(value)
        else:
            raise ValueError(f"unknown statement {s!r}")

    def exec_assign(self, s: ast.Assign, frame: Frame) -> None:
        value = self.eval(s.value, frame)
        target = s.target
        if isinstance(target, ast.Var):
            frame.env[target.name] = value
        elif isinstance(target, ast.FieldGet):
            this = frame.this
            if this is None:
                raise self.error("field assignment outside an instance method")
            this.values[target.field_name] = value
            self.isolate.charge_scaled("field", self.isolate.model.field_access_cost)
        else:
            raise ValueError(f"bad assignment target {target!r}")

    # -- expressions ---------------------------------------------------------

    def eval_bool(self, e: ast.Expr, frame: Frame) -> bool:
        v = self.eval(e, frame)
        if not isinstance(v, bool):
            raise self.error("condition is not a Bool")
        return v

    def eval(self, e: ast.Expr, frame: Frame):
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.StrLit):
            return e.value
        if isinstance(e, ast.Var):
            if e.name not in frame.env:
                raise self.error(f"unbound variable {e.name}")
            return frame.env[e.name]
        if isinstance(e, ast.This):
            if frame.this is None:
                raise self.error("this outside an instance method")
            return frame.this
        if isinstance(e, ast.FieldGet):
            return self.eval_field(e, frame)
        if isinstance(e, ast.Unary):
            v = self.eval(e.operand, frame)
            return wrap64(-v)
        if isinstance(e, ast.Binary):
            return self.eval_binary(e, frame)
        if isinstance(e, ast.New):
            return self.eval_new(e, frame)
        if isinstance(e, ast.MethodCall):
            return self.eval_call(e, frame)
        if isinstance(e, ast.BuiltinCall):
            return self.eval_builtin(e, frame)
        if isinstance(e, ast.ListLit):
            return self.eval_list_lit(e, frame)
        raise ValueError(f"unknown expression {e!r}")

    def eval_field(self, e: ast.FieldGet, frame: Frame):
        this = frame.this
        if this is None:
            raise self.error("field access outside an instance method")
        v = this.values[e.field_name]
        if v is UNSET:
            raise self.error(
                f"field {this.decl.name}.{e.field_name} read before assignment")
        self.isolate.charge_scaled("field", self.isolate.model.field_access_cost)
        return v

    def eval_binary(self, e: ast.Binary, frame: Frame):
        base = len(frame.temps)
        left = self.eval(e.left, frame)
        frame.temps.append(left)
        right = self.eval(e.right, frame)
        del frame.temps[base:]
        op = e.op
        if op == "+":
            if isinstance(left, str):
                return left + right
            return wrap64(left + right)
        if op == "-":
            return wrap64(left - right)
        if op == "*":
            return wrap64(left * right)
        if op in ("/", "%"):
            if right == 0:
                raise self.error("division by zero")
            q = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                q = -q
            if op == "/":
                return wrap64(q)
            return wrap64(left - q * right)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        raise ValueError(f"unknown operator {op}")

    def eval_args(self, args: list[ast.Expr], frame: Frame) -> list:
        values = []
        for a in args:
            v = self.eval(a, frame)
            frame.temps.append(v)
            values.append(v)
        return values

    def eval_new(self, e: ast.New, frame: Frame):
        base = len(frame.temps)
        args = self.eval_args(e.args, frame)
        try:
            if e.class_name in self.proxy_names:
                return self.context.remote_new(self.isolate, e.class_name, args)
            decl = self.classes[e.class_name]
            return self.instantiate(decl, args)
        finally:
            del frame.temps[base:]

    def eval_call(self, e: ast.MethodCall, frame: Frame):
        # Static dispatch: receiver is a bare class name, never a binding.
        if isinstance(e.receiver, ast.Var) and e.receiver.name not in frame.env \
                and e.receiver.name in self.classes:
            decl = self.classes[e.receiver.name]
            method = decl.method(e.method)
            base = len(frame.temps)
            args = self.eval_args(e.args, frame)
            try:
                return self.call_method(decl, method, None, args)
            finally:
                del frame.temps[base:]

        base = len(frame.temps)
        receiver = self.eval(e.receiver, frame)
        frame.temps.append(receiver)
        args = self.eval_args(e.args, frame)
        try:
            if isinstance(receiver, ListObj):
                return self.eval_list_method(receiver, e, args)
            if isinstance(receiver, ProxyObj):
                return self.context.remote_invoke(self.isolate, receiver,
                                                  e.method, args)
            if isinstance(receiver, InstanceObj):
                method = receiver.decl.method(e.method)
                if method is None:
                    raise self.error(
                        f"{receiver.decl.name} has no method {e.method}")
                return self.call_method(receiver.decl, method, receiver, args)
            raise self.error(f"cannot call {e.method} on {receiver!r}")
        finally:
            del frame.temps[base:]

    def eval_list_method(self, lst: ListObj, e: ast.MethodCall, args: list):
        iso = self.isolate
        if e.method == "len":
            iso.charge_scaled("field", iso.model.field_access_cost)
            return len(lst.items)
        if e.method == "get":
            idx = args[0]
            if not 0 <= idx < len(lst.items):
                raise self.error(
                    f"list index {idx} out of range for length {len(lst.items)}")
            iso.charge_scaled("field", iso.model.field_access_cost)
            return lst.items[idx]
        if e.method == "append":
            iso.grow_list(lst, args[0])
            iso.charge_scaled("field", iso.model.field_access_cost)
            return None
        raise ValueError(f"unknown list method {e.method}")

    def eval_builtin(self, e: ast.BuiltinCall, frame: Frame):
        iso = self.isolate
        base = len(frame.temps)
        args = self.eval_args(e.args, frame)
        try:
            if e.name == "print":
                self.context.builtin_print(iso, render_value(args[0]))
                return None
            if e.name == "file_write":
                self.context.builtin_file_write(iso, args[0], args[1])
                return None
            if e.name == "file_read":
                return self.context.builtin_file_read(iso, args[0])
            if e.name == "compute":
                units = args[0]
                if units < 0:
                    raise self.error("compute of a negative unit count")
                iso.charge_scaled("compute", units * iso.model.compute_unit_cost)
                return None
            if e.name == "gc":
                self.context.explicit_gc(iso)
                return None
            raise ValueError(f"unknown builtin {e.name}")
        finally:
            del frame.temps[base:]

    def eval_list_lit(self, e: ast.ListLit, frame: Frame):
        base = len(frame.temps)
        values = self.eval_args(e.elements, frame)
        try:
            lst = ListObj(list(values))
            self.isolate.alloc(lst)
            return lst
        finally:
            del frame.temps[base:]
