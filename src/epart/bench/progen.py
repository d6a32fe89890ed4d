"""Seeded random program generator for differential testing.

Programs are valid and terminating by construction:

  - classes form a chain; a method only constructs and calls classes
    with a smaller index, so the call graph is acyclic
  - loops use a dedicated counter with a literal bound and a mandatory
    increment, and loop bodies contain no constructor or method calls
  - division and modulo always use a nonzero literal divisor
  - cross-class parameters and returns are primitives only, and methods
    touch no fields but their own, so partitioned and reference runs
    cannot diverge through shared neutral values
  - file reads only target paths written earlier in the same method

The generator does not parse or check what it returns; the tests check
the construction.  TestImagesResolveAlone (tests/test_partition.py)
partitions generate_corpus(200, seed=0), which fails on an invalid
program, and validates each image on its own; TestProgramGenerator
(tests/test_bench.py) runs generate_corpus(25, seed=3) partitioned and
whole and compares the two.
"""

import random

WORDS = ("ada", "bit", "cog", "dot", "elk", "fig", "gnu", "hex")
ANNOTATIONS = ("@Trusted", "@Untrusted", "@Neutral")
PRIMS = ("Int", "Bool", "Str")

MAX_EXPR_DEPTH = 3


class _ClassInfo:
    def __init__(self, name, annotation):
        self.name = name
        self.annotation = annotation
        self.fields: list[tuple[str, str]] = []
        self.ctor_params: list[str] = []
        self.methods: list[tuple[str, list[str], str]] = []


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.path_counter = 0

    # -- expressions ---------------------------------------------------------

    def expr(self, typ: str, env: dict[str, str], fields: dict[str, str],
             depth: int = 0) -> str:
        rng = self.rng
        vars_of = [n for n, t in env.items() if t == typ]
        fields_of = [n for n, t in fields.items() if t == typ]
        choices = ["lit"]
        if vars_of:
            choices += ["var"] * 2
        if fields_of:
            choices.append("field")
        if depth < MAX_EXPR_DEPTH:
            choices += ["op"] * 2
        kind = rng.choice(choices)
        if kind == "var":
            return rng.choice(vars_of)
        if kind == "field":
            return "this." + rng.choice(fields_of)
        if kind == "op":
            return self.op_expr(typ, env, fields, depth)
        return self.literal(typ)

    def literal(self, typ: str) -> str:
        rng = self.rng
        if typ == "Int":
            return str(rng.randrange(10))
        if typ == "Bool":
            return rng.choice(("true", "false"))
        return f'"{rng.choice(WORDS)}"'

    def op_expr(self, typ, env, fields, depth) -> str:
        rng = self.rng
        d = depth + 1
        if typ == "Int":
            op = rng.choice(("+", "-", "*", "/", "%", "neg"))
            a = self.expr("Int", env, fields, d)
            if op == "neg":
                return f"(-{a})"
            if op in ("/", "%"):
                return f"({a} {op} {rng.randrange(1, 8)})"
            b = self.expr("Int", env, fields, d)
            return f"({a} {op} {b})"
        if typ == "Bool":
            op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            if op in ("==", "!=") and rng.random() < 0.4:
                t = rng.choice(("Bool", "Str"))
                return (f"({self.expr(t, env, fields, d)} {op} "
                        f"{self.expr(t, env, fields, d)})")
            return (f"({self.expr('Int', env, fields, d)} {op} "
                    f"{self.expr('Int', env, fields, d)})")
        a = self.expr("Str", env, fields, d)
        b = self.expr("Str", env, fields, d)
        return f"({a} + {b})"

    # -- statements ----------------------------------------------------------

    def block(self, classes: list[_ClassInfo], upto: int, env: dict[str, str],
              fields: dict[str, str], names: list[int], indent: str,
              budget: int, allow_calls: bool,
              frozen: frozenset[str] = frozenset()) -> list[str]:
        rng = self.rng
        out: list[str] = []
        for _ in range(budget):
            kinds = ["decl", "print", "assign_field" if fields else "decl"]
            mutable = [v for v in env if v not in frozen]
            if mutable:
                kinds.append("assign_var")
            kinds += ["loop", "branch"]
            if allow_calls and upto > 0:
                kinds += ["call", "call"]
            if allow_calls:
                kinds.append("list")
                kinds.append("io")
            k = rng.choice(kinds)
            if k == "decl":
                t = rng.choice(PRIMS)
                v = f"v{names[0]}"
                names[0] += 1
                out.append(f"{indent}var {v}: {t} = "
                           f"{self.expr(t, env, fields)};")
                env[v] = t
            elif k == "assign_var":
                v = rng.choice(mutable)
                out.append(f"{indent}{v} = {self.expr(env[v], env, fields)};")
            elif k == "assign_field":
                f = rng.choice(list(fields))
                out.append(f"{indent}this.{f} = "
                           f"{self.expr(fields[f], env, fields)};")
            elif k == "print":
                t = rng.choice(PRIMS)
                out.append(f"{indent}print({self.expr(t, env, fields)});")
            elif k == "loop":
                c = f"i{names[0]}"
                names[0] += 1
                bound = rng.randrange(1, 7)
                out.append(f"{indent}var {c}: Int = 0;")
                out.append(f"{indent}while ({c} < {bound}) {{")
                inner_env = dict(env)
                inner_env[c] = "Int"
                body = self.block(classes, upto, inner_env, fields, names,
                                  indent + "    ", rng.randrange(1, 3),
                                  allow_calls=False,
                                  frozen=frozen | {c})
                out.extend(body)
                out.append(f"{indent}    {c} = {c} + 1;")
                out.append(f"{indent}}}")
            elif k == "branch":
                cond = self.expr("Bool", env, fields)
                out.append(f"{indent}if ({cond}) {{")
                out.extend(self.block(classes, upto, dict(env), fields, names,
                                      indent + "    ", 1, allow_calls=False,
                                      frozen=frozen))
                if rng.random() < 0.6:
                    out.append(f"{indent}}} else {{")
                    out.extend(self.block(classes, upto, dict(env), fields,
                                          names, indent + "    ", 1,
                                          allow_calls=False, frozen=frozen))
                out.append(f"{indent}}}")
            elif k == "call":
                target = classes[rng.randrange(upto)]
                o = f"v{names[0]}"
                names[0] += 1
                args = ", ".join(self.expr(t, env, fields)
                                 for t in target.ctor_params)
                out.append(f"{indent}var {o}: {target.name} = "
                           f"new {target.name}({args});")
                if target.methods:
                    mname, params, ret = rng.choice(target.methods)
                    args = ", ".join(self.expr(t, env, fields)
                                     for t in params)
                    if ret == "Unit":
                        out.append(f"{indent}{o}.{mname}({args});")
                    else:
                        r = f"v{names[0]}"
                        names[0] += 1
                        out.append(f"{indent}var {r}: {ret} = "
                                   f"{o}.{mname}({args});")
                        env[r] = ret
                        out.append(f"{indent}print({r});")
            elif k == "list":
                l = f"v{names[0]}"
                names[0] += 1
                out.append(f"{indent}var {l}: List[Int] = [];")
                count = rng.randrange(1, 4)
                for _ in range(count):
                    out.append(f"{indent}{l}.append("
                               f"{self.expr('Int', env, fields)});")
                out.append(f"{indent}print({l}.len());")
                out.append(f"{indent}print({l}.get("
                           f"{rng.randrange(count)}));")
            else:
                self.path_counter += 1
                path = f"/data/p{self.path_counter}.txt"
                s = f"v{names[0]}"
                names[0] += 1
                out.append(f'{indent}file_write("{path}", '
                           f'{self.expr("Str", env, fields)});')
                out.append(f'{indent}var {s}: Str = file_read("{path}");')
                env[s] = "Str"
                out.append(f"{indent}print({s});")
        return out

    # -- classes ---------------------------------------------------------------

    def gen_class(self, classes: list[_ClassInfo], idx: int) -> str:
        rng = self.rng
        info = classes[idx]
        lines = [f"{info.annotation}", f"class {info.name} {{"]
        fields = dict(info.fields)
        for fname, ftype in info.fields:
            lines.append(f"    {fname}: {ftype};")
        params = [(f"p{i}", t) for i, t in enumerate(info.ctor_params)]
        sig = ", ".join(f"{n}: {t}" for n, t in params)
        lines.append(f"    {info.name}({sig}) {{")
        env = dict(params)
        for fname, ftype in info.fields:
            lines.append(f"        this.{fname} = "
                         f"{self.expr(ftype, env, {})};")
        lines.append("    }")
        for mname, mparams, ret in info.methods:
            params = [(f"p{i}", t) for i, t in enumerate(mparams)]
            sig = ", ".join(f"{n}: {t}" for n, t in params)
            arrow = f" -> {ret}" if ret != "Unit" else ""
            lines.append(f"    {mname}({sig}){arrow} {{")
            env = dict(params)
            names = [0]
            lines.extend(self.block(classes, idx, env, fields, names,
                                    "        ", rng.randrange(1, 4),
                                    allow_calls=True))
            if ret != "Unit":
                lines.append(f"        return {self.expr(ret, env, fields)};")
            lines.append("    }")
        lines.append("}")
        return "\n".join(lines)

    def gen_program(self) -> str:
        rng = self.rng
        n = rng.randrange(2, 6)
        classes = []
        for i in range(n):
            info = _ClassInfo(f"C{i}", rng.choice(ANNOTATIONS))
            for j in range(rng.randrange(1, 4)):
                info.fields.append((f"f{j}", rng.choice(PRIMS)))
            info.ctor_params = [rng.choice(PRIMS)
                                for _ in range(rng.randrange(3))]
            for j in range(rng.randrange(1, 4)):
                ret = rng.choice(PRIMS + ("Unit",))
                mparams = [rng.choice(PRIMS)
                           for _ in range(rng.randrange(3))]
                info.methods.append((f"m{j}", mparams, ret))
            classes.append(info)
        parts = [self.gen_class(classes, i) for i in range(n)]
        main_lines = ["@Untrusted", "class Main {", "    static main() {"]
        env: dict[str, str] = {}
        names = [0]
        main_lines.extend(self.block(classes, n, env, {}, names,
                                     "        ", rng.randrange(3, 7),
                                     allow_calls=True))
        main_lines.append('        print("done");')
        main_lines.append("    }")
        main_lines.append("}")
        parts.append("\n".join(main_lines))
        return "\n\n".join(parts) + "\n"


def generate_program(seed: int) -> str:
    return _Gen(seed).gen_program()


def generate_corpus(count: int, seed: int = 0) -> list[str]:
    return [generate_program(seed * 10007 + i) for i in range(count)]
