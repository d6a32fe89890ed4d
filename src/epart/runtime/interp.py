"""Tree-walking evaluator for one isolate's image.

The interpreter is deliberately unaware of transitions: anything that crosses
the isolate boundary (constructing through a proxy class, invoking a proxy
object, the host builtins print/file_write/file_read, a collection) is
delegated to a context object supplied by the surrounding runtime.

Dispatch is by table: _EVAL and _EXEC map each ast node class to its
handler, _BINARY each operator to its function.  Leaf operands skip the
table: a literal, or a Var bound in frame.env, is read at its use site (a
binary operand, a call argument, the value of a declaration, assignment or
return), and so is a call receiver that is a bound Var.  An unbound Var
still goes through eval_var, for its fault.

What is fixed for a run is worked out once: the EPC-scaled price of a field
access, charged straight into the isolate's cycles_by_source; the method
table, built with the interpreter; and each class's layout (field defaults
and constructor), kept from its first instantiation.  A call reads a hit
from the method table itself and leaves a miss to method, which faults.

Returns are values, not exceptions.  A statement handler returns None to
fall through, or a one-element box (value,) for `return`; exec_block,
exec_if and exec_while pass the box up unchanged and call_method unboxes
it.  There is a safepoint after every statement that falls through and
after every loop iteration, but none on the way out of a `return`.  The
safepoint test is inline: the isolate's bytes_since_gc against the
runtime's gc_threshold, read once.  The interpreter calls into the runtime
only to collect.

Int arithmetic range-checks inline and calls wrap64 only on overflow.  Str
`+` faults once its result would be longer than MAX_STR_CHARS.

Garbage collection may only run at statement boundaries, so every heap value
produced mid-expression is parked in the current frame's temp list until the
expression completes.  That keeps receivers and argument values alive across
re-entrant callbacks from the other isolate.  Two values are not parked: a
value read straight from frame.env, which is already a root, and a binary
node's left operand when its right operand is a leaf (_LEAVES), since
evaluating a leaf never reaches a safepoint.
"""

from __future__ import annotations

import operator
import sys

from ..dsl import ast
from ..errors import DslRuntimeError
from .heap import UNSET, Frame, InstanceObj, Isolate, ListObj, ProxyObj

MAX_FRAMES = 512

# Every simulated frame or transition costs a dozen host stack frames, so
# the default host recursion limit trips long before the simulated caps do.
_RECURSION_HEADROOM = 30_000


def ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _RECURSION_HEADROOM:
        sys.setrecursionlimit(_RECURSION_HEADROOM)

# The longest Str a program may build; a longer `+` result is a fault.
MAX_STR_CHARS = 16 << 20

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def wrap64(v: int) -> int:
    if _I64_MIN <= v <= _I64_MAX:
        return v
    return ((v - _I64_MIN) & ((1 << 64) - 1)) + _I64_MIN


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
                 context):
        self.isolate = isolate
        self.classes = classes
        self.context = context
        self.gc_threshold = context.gc_threshold
        self.field_cost = isolate.model.scaled(
            isolate.model.field_access_cost, isolate.trusted)
        # charged inline, as Isolate.charge would
        self.cycles_by_source = isolate.cycles_by_source
        # (class name, method name) -> first declaration of that name
        self.methods: dict[tuple[str, str], ast.MethodDecl] = {
            (c.name, m.name): m for c in classes.values()
            for m in reversed(c.methods)}
        # class name -> (field defaults, List field names, constructor)
        self.layouts: dict[str, tuple[dict, tuple[str, ...],
                                      ast.MethodDecl | None]] = {}

    # -- entry points ------------------------------------------------------

    def method(self, decl: ast.ClassDecl, name: str) -> ast.MethodDecl:
        method = self.methods.get((decl.name, name))
        if method is None:
            raise DslRuntimeError(f"{decl.name} has no method {name}")
        return method

    def new(self, class_name: str, args: list):
        """`new C(args)` as code on this side runs it: a class of this image
        is built here, any other through its constructor relay."""
        decl = self.classes.get(class_name)
        if decl is None:
            return self.context.remote_new(self.isolate, class_name, args)
        return self.instantiate(decl, args)

    def instantiate(self, decl: ast.ClassDecl, args: list) -> InstanceObj:
        layout = self.layouts.get(decl.name)
        if layout is None:
            layout = self.layouts[decl.name] = _layout(decl)
        defaults, list_fields, ctor = layout
        iso = self.isolate
        obj = InstanceObj(decl, dict(defaults))
        iso.alloc(obj)
        values = obj.values
        for name in list_fields:  # each List field gets its own empty list
            lst = ListObj()
            iso.alloc(lst)
            values[name] = lst
        if ctor is not None:
            self.call_method(decl, ctor, obj, args)
        return obj

    def call_method(self, decl: ast.ClassDecl, method: ast.MethodDecl,
                    this: InstanceObj | None, args: list):
        frames = self.isolate.frames
        if len(frames) >= MAX_FRAMES:
            raise DslRuntimeError(f"call stack exhausted at {decl.name}.{method.name}")
        env = {}
        for p, v in zip(method.params, args):
            env[p.name] = v
        frame = Frame(env, this)
        frames.append(frame)
        try:
            box = self.exec_block(method.body, frame)
        except DslRuntimeError as e:
            e.trace.append(f"at {decl.name}.{method.name}")
            raise
        except RecursionError:
            raise DslRuntimeError("call stack exhausted",
                                  trace=[f"at {decl.name}.{method.name}"]) from None
        finally:
            frames.pop()
        result = None if box is None else box[0]
        if result is None and not method.is_constructor \
                and method.return_type != ast.UNIT:
            where = f"{decl.name}.{method.name}"
            raise DslRuntimeError(f"{where} finished without returning a value",
                                  trace=[f"at {where}"])
        return result

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts: list[ast.Stmt], frame: Frame):
        """None when the block falls through, else the box of its return."""
        iso, threshold = self.isolate, self.gc_threshold
        for s in stmts:
            box = _EXEC[s.__class__](self, s, frame)
            if box is not None:
                return box
            if iso.bytes_since_gc >= threshold:
                self.context.collect(iso, force_scan=False)
        return None

    def exec_if(self, s: ast.If, frame: Frame):
        cond = s.cond
        v = _EVAL[cond.__class__](self, cond, frame)
        if v.__class__ is not bool:
            raise DslRuntimeError("condition is not a Bool")
        return self.exec_block(s.then_body if v else s.else_body, frame)

    def exec_while(self, s: ast.While, frame: Frame):
        iso, threshold = self.isolate, self.gc_threshold
        cond, body = s.cond, s.body
        test = _EVAL[cond.__class__]
        while True:
            v = test(self, cond, frame)
            if v.__class__ is not bool:
                raise DslRuntimeError("condition is not a Bool")
            if not v:
                return None
            box = self.exec_block(body, frame)
            if box is not None:
                return box
            if iso.bytes_since_gc >= threshold:
                self.context.collect(iso, force_scan=False)

    def exec_var_decl(self, s: ast.VarDecl, frame: Frame) -> None:
        init, env = s.init, frame.env
        cls = init.__class__
        if cls is _VAR and init.name in env:
            env[s.name] = env[init.name]
        elif cls in _LITERALS:
            env[s.name] = init.value
        else:
            env[s.name] = _EVAL[cls](self, init, frame)

    def exec_assign(self, s: ast.Assign, frame: Frame) -> None:
        value, env = s.value, frame.env
        cls = value.__class__
        if cls is _VAR and value.name in env:
            value = env[value.name]
        elif cls in _LITERALS:
            value = value.value
        else:
            value = _EVAL[cls](self, value, frame)
        target = s.target
        if target.__class__ is _VAR:
            env[target.name] = value
        else:  # a FieldGet: parser and image decoder allow nothing else
            this = frame.this
            if this is None:
                raise DslRuntimeError("field assignment outside an instance method")
            values, name = this.values, target.field_name
            if name not in values:  # a tampered image can name any field
                raise DslRuntimeError(f"{this.decl.name} has no field {name}")
            values[name] = value
            by_source = self.cycles_by_source
            by_source["field"] = by_source.get("field", 0) + self.field_cost

    def exec_expr(self, s: ast.ExprStmt, frame: Frame) -> None:
        e = s.expr
        _EVAL[e.__class__](self, e, frame)

    def exec_return(self, s: ast.Return, frame: Frame) -> tuple:
        e = s.value
        if e is None:
            return (None,)
        cls, env = e.__class__, frame.env
        if cls is _VAR and e.name in env:
            return (env[e.name],)
        if cls in _LITERALS:
            return (e.value,)
        return (_EVAL[cls](self, e, frame),)

    # -- expressions ---------------------------------------------------------

    def eval_literal(self, e: ast.IntLit, frame: Frame):
        return e.value

    def eval_var(self, e: ast.Var, frame: Frame):
        try:
            return frame.env[e.name]
        except KeyError:
            raise DslRuntimeError(f"unbound variable {e.name}") from None

    def eval_this(self, e: ast.This, frame: Frame):
        if frame.this is None:
            raise DslRuntimeError("this outside an instance method")
        return frame.this

    def eval_field(self, e: ast.FieldGet, frame: Frame):
        this = frame.this
        if this is None:
            raise DslRuntimeError("field access outside an instance method")
        try:
            v = this.values[e.field_name]
        except KeyError:
            raise DslRuntimeError(
                f"{this.decl.name} has no field {e.field_name}") from None
        if v is UNSET:
            raise DslRuntimeError(
                f"field {this.decl.name}.{e.field_name} read before assignment")
        by_source = self.cycles_by_source
        by_source["field"] = by_source.get("field", 0) + self.field_cost
        return v

    def eval_unary(self, e: ast.Unary, frame: Frame):
        operand = e.operand
        value = _EVAL[operand.__class__](self, operand, frame)
        try:
            return wrap64(-value)
        except TypeError:  # a tampered image's operand of another type
            raise _bad_operands(e.op) from None

    def eval_binary(self, e: ast.Binary, frame: Frame):
        left, right, env = e.left, e.right, frame.env
        cls = left.__class__
        if cls is _VAR and left.name in env:
            left = env[left.name]
        elif cls in _LITERALS:
            left = left.value
        elif right.__class__ in _LEAVES:
            left = _EVAL[cls](self, left, frame)
        else:
            temps = frame.temps
            base = len(temps)
            left = _EVAL[cls](self, left, frame)
            temps.append(left)
            right = _EVAL[right.__class__](self, right, frame)
            del temps[base:]
            try:
                return _BINARY[e.op](left, right)
            except TypeError:  # a tampered image's operand of another type
                raise _bad_operands(e.op) from None
        cls = right.__class__
        if cls is _VAR and right.name in env:
            right = env[right.name]
        elif cls in _LITERALS:
            right = right.value
        else:
            right = _EVAL[cls](self, right, frame)
        try:
            return _BINARY[e.op](left, right)
        except TypeError:
            raise _bad_operands(e.op) from None

    def eval_args(self, args: list[ast.Expr], frame: Frame) -> list:
        values = []
        temps, env = frame.temps, frame.env
        for a in args:
            cls = a.__class__
            if cls is _VAR and a.name in env:
                values.append(env[a.name])
            elif cls in _LITERALS:
                values.append(a.value)
            else:
                v = _EVAL[cls](self, a, frame)
                temps.append(v)
                values.append(v)
        return values

    def eval_new(self, e: ast.New, frame: Frame):
        base = len(frame.temps)
        args = self.eval_args(e.args, frame)
        try:
            return self.new(e.class_name, args)
        finally:
            del frame.temps[base:]

    def eval_call(self, e: ast.MethodCall, frame: Frame):
        temps = frame.temps
        base = len(temps)
        receiver = e.receiver
        if receiver.__class__ is _VAR:
            env = frame.env
            if receiver.name in env:
                receiver = env[receiver.name]
            else:
                # Static dispatch: receiver is a bare class name, never a
                # binding.
                decl = self.classes.get(receiver.name)
                if decl is None:  # neither a binding nor a class
                    return self.eval_var(receiver, frame)  # raises
                method = self.methods.get((decl.name, e.method)) \
                    or self.method(decl, e.method)
                args = self.eval_args(e.args, frame)
                try:
                    return self.call_method(decl, method, None, args)
                finally:
                    del temps[base:]
        else:
            receiver = _EVAL[receiver.__class__](self, receiver, frame)
            temps.append(receiver)
        args = self.eval_args(e.args, frame)
        try:
            cls = receiver.__class__
            if cls is ListObj:
                return self.eval_list_method(receiver, e, args)
            if cls is ProxyObj:
                return self.context.remote_invoke(self.isolate, receiver,
                                                  e.method, args)
            if cls is InstanceObj:
                decl = receiver.decl
                method = self.methods.get((decl.name, e.method)) \
                    or self.method(decl, e.method)
                return self.call_method(decl, method, receiver, args)
            raise DslRuntimeError(f"cannot call {e.method} on {receiver!r}")
        finally:
            del temps[base:]

    def eval_list_method(self, lst: ListObj, e: ast.MethodCall, args: list):
        by_source = self.cycles_by_source
        if e.method == "len":
            by_source["field"] = by_source.get("field", 0) + self.field_cost
            return len(lst.items)
        if e.method == "get":
            idx = args[0]
            if not 0 <= idx < len(lst.items):
                raise DslRuntimeError(
                    f"list index {idx} out of range for length {len(lst.items)}")
            by_source["field"] = by_source.get("field", 0) + self.field_cost
            return lst.items[idx]
        if e.method == "append":
            self.isolate.grow_list(lst, args[0])
            by_source["field"] = by_source.get("field", 0) + self.field_cost
            return None
        raise DslRuntimeError(f"lists have no method {e.method}")

    def eval_builtin(self, e: ast.BuiltinCall, frame: Frame):
        iso = self.isolate
        base = len(frame.temps)
        args = self.eval_args(e.args, frame)
        try:
            if e.name in _HOST_BUILTINS:
                if e.name == "print":
                    args[0] = render_value(args[0])
                return self.context.host_call(iso, e.name, args)
            if e.name == "compute":
                units = args[0]
                if units < 0:
                    raise DslRuntimeError("compute of a negative unit count")
                iso.charge_scaled("compute", units * iso.model.compute_unit_cost)
                return None
            self.context.collect(iso, force_scan=True)  # gc
            return None
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


def _layout(decl: ast.ClassDecl) -> tuple[dict, tuple[str, ...],
                                          ast.MethodDecl | None]:
    """A new instance's field values before its constructor runs, the
    List-typed fields among them, and the constructor."""
    defaults: dict[str, object] = {}
    list_fields = []
    for f in decl.fields:
        t = f.type
        # t == ast.INT, BOOL or STR, without a dataclass compare
        if t.elem is None and t.name in _PRIMITIVE_DEFAULTS:
            defaults[f.name] = _PRIMITIVE_DEFAULTS[t.name]
        else:  # List and class-typed fields; the latter stay UNSET
            defaults[f.name] = UNSET
            if t.name == "List":
                list_fields.append(f.name)
    return defaults, tuple(list_fields), decl.constructor


def _bad_operands(op: str) -> DslRuntimeError:
    """The checker types every operand, but a tampered image can hold an
    operator applied to a value of another type."""
    return DslRuntimeError(f"operands of {op} are not of its types")


def _add(left, right):
    if left.__class__ is str:
        v = left + right
        if len(v) > MAX_STR_CHARS:
            raise DslRuntimeError(f"string longer than {MAX_STR_CHARS >> 20} MiB")
        return v
    v = left + right
    if _I64_MIN <= v <= _I64_MAX:
        return v
    return wrap64(v)


def _sub(left: int, right: int) -> int:
    v = left - right
    if _I64_MIN <= v <= _I64_MAX:
        return v
    return wrap64(v)


def _mul(left: int, right: int) -> int:
    v = left * right
    if _I64_MIN <= v <= _I64_MAX:
        return v
    return wrap64(v)


def _div(left: int, right: int) -> int:
    """Division truncating toward zero, as on the JVM."""
    if right == 0:
        raise DslRuntimeError("division by zero")
    q = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        return -q
    if q > _I64_MAX:  # MIN / -1, the one quotient out of range
        return wrap64(q)
    return q


def _rem(left: int, right: int) -> int:
    """Remainder of truncating division: it takes the dividend's sign."""
    if right == 0:
        raise DslRuntimeError("division by zero")
    r = left % right  # floored: takes the divisor's sign
    if r and (left < 0) != (right < 0):
        return r - right
    return r


_BINARY = {
    "+": _add, "-": _sub, "*": _mul, "/": _div, "%": _rem,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}

# A primitive field's value before its constructor runs.
_PRIMITIVE_DEFAULTS = {"Int": 0, "Bool": False, "Str": ""}

# Builtins served by the host, through the context's one host hook.
_HOST_BUILTINS = frozenset({"print", "file_write", "file_read"})

# Node kinds whose evaluation never reaches a safepoint.
_LEAVES = frozenset({ast.IntLit, ast.BoolLit, ast.StrLit, ast.Var, ast.This,
                     ast.FieldGet})
# Leaves read at their use site, with no handler call: a literal's value,
# and a Var bound in frame.env.
_LITERALS = frozenset({ast.IntLit, ast.BoolLit, ast.StrLit})
_VAR = ast.Var

_EVAL = {
    ast.IntLit: Interpreter.eval_literal, ast.BoolLit: Interpreter.eval_literal,
    ast.StrLit: Interpreter.eval_literal, ast.Var: Interpreter.eval_var,
    ast.This: Interpreter.eval_this, ast.FieldGet: Interpreter.eval_field,
    ast.Unary: Interpreter.eval_unary, ast.Binary: Interpreter.eval_binary,
    ast.New: Interpreter.eval_new, ast.MethodCall: Interpreter.eval_call,
    ast.BuiltinCall: Interpreter.eval_builtin,
    ast.ListLit: Interpreter.eval_list_lit,
}
_EXEC = {
    ast.If: Interpreter.exec_if, ast.While: Interpreter.exec_while,
    ast.VarDecl: Interpreter.exec_var_decl, ast.Assign: Interpreter.exec_assign,
    ast.ExprStmt: Interpreter.exec_expr, ast.Return: Interpreter.exec_return,
}
