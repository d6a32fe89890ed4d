"""Seeded inputs for the four workloads, with oracles computed here.

Every expected output below is worked out in plain Python from the
generator's own parameters; none of it comes from the toolchain under test.
The toolchain only ever receives the generated source text.
"""

from __future__ import annotations

import dataclasses
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from string import Template

MOD = 1000003

# Repetitions after which a geometrically growing string is too big; see
# grows_a_string.
MAX_TRIPS = 12

# Sizes of one operation.  `tiny` exists for the benchmark's self-tests.
SIZES = {
    "full": {
        "wide_classes": 200, "wide_cases": 3,
        "loop_iters": 1500, "loop_programs": 4,
        "churn_cells": 500, "churn_rounds": 2, "churn_programs": 3,
        "corpus_programs": 200,
    },
    "tiny": {
        "wide_classes": 8, "wide_cases": 1,
        "loop_iters": 20, "loop_programs": 2,
        "churn_cells": 12, "churn_rounds": 2, "churn_programs": 1,
        "corpus_programs": 4,
    },
}


@dataclass
class Unit:
    """One program an operation runs, with what its runs must produce.

    Where `transcript` or `vfs` is None the reference run is the oracle.
    """

    source: str
    transcript: list[str] | None = None
    vfs: dict[str, str] | None = None
    ecalls: int | None = None
    shim_ocalls: int | None = None
    check_registry: bool = False


@dataclass
class Workload:
    name: str
    ops: list[list[Unit]]
    # Values of the kinds this workload sends across the boundary, for the
    # wire-layer probe.
    wire_values: list[tuple] = field(default_factory=list)
    # Generated inputs left out, with the reason.
    skipped: dict[str, int] = field(default_factory=dict)


# -- partition_wide ----------------------------------------------------------

def partition_wide(api, seed: int, size: dict) -> Workload:
    ops, values = [], []
    for case in range(size["wide_cases"]):
        units = []
        for kind in ("cpu", "io"):
            spec = api.SyntheticSpec(n_classes=size["wide_classes"],
                                     pct_untrusted=50, workload=kind,
                                     seed=seed * 7919 + case)
            payload = "x" * spec.io_bytes
            vfs = ({f"/out/w{i}.txt": payload for i in range(spec.n_classes)}
                   if kind == "io" else {})
            units.append(Unit(api.generate_synthetic(spec), transcript=[],
                              vfs=vfs, ecalls=spec.expected_ecalls(),
                              shim_ocalls=spec.expected_shim_ocalls()))
            values += [v for path, data in sorted(vfs.items())
                       for v in (("str", path), ("str", data))]
        ops.append(units)
    return Workload("partition_wide", ops, values)


# -- interp_loop -------------------------------------------------------------

LOOP_SOURCE = Template("""\
@Neutral
class Acc {
    total: Int;
    Acc() {
        this.total = 0;
    }
    add(v: Int) -> Int {
        this.total = (this.total + v) % $MOD;
        return this.total;
    }
}

@Neutral
class Loop {
    static run(h0: Int, n: Int) -> Int {
        var acc: Acc = new Acc();
        var xs: List[Int] = [];
        var h: Int = h0;
        var i: Int = 0;
        while (i < n) {
            h = (h * $A + $B) % $M;
            xs.append(h % 97);
            acc.add(h + xs.get(i / 2));
            i = i + 1;
        }
        return acc.add(xs.len());
    }
}

@Trusted
class Worker {
    seed: Int;
    Worker(s: Int) {
        this.seed = s;
    }
    spin(n: Int) -> Int {
        return Loop.run(this.seed, n);
    }
}

@Untrusted
class Main {
    static main() {
        print(Loop.run($S0, $N0));
        var w: Worker = new Worker($S1);
        print(w.spin($N1));
    }
}
""")


def loop_result(h: int, n: int, a: int, b: int, m: int) -> int:
    """What Loop.run returns, in plain Python."""
    total, xs = 0, []
    for i in range(n):
        h = (h * a + b) % m
        xs.append(h % 97)
        total = (total + h + xs[i // 2]) % MOD
    return (total + len(xs)) % MOD


def loop_unit(rng: random.Random, iters: int) -> Unit:
    """Half the iterations run untrusted, half inside one ecall."""
    p = {"MOD": MOD, "A": rng.randrange(1000, 2000), "B": rng.randrange(1, 50000),
         "M": rng.choice((65497, 65519, 65521)), "S0": rng.randrange(1, 1000),
         "S1": rng.randrange(1, 1000), "N0": iters // 2, "N1": iters - iters // 2}
    expected = [str(loop_result(p["S0"], p["N0"], p["A"], p["B"], p["M"])),
                str(loop_result(p["S1"], p["N1"], p["A"], p["B"], p["M"]))]
    return Unit(LOOP_SOURCE.substitute(p), transcript=expected, vfs={},
                ecalls=2, shim_ocalls=0)


def interp_loop(api, seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    units = [loop_unit(rng, size["loop_iters"])
             for _ in range(size["loop_programs"])]
    values = [("int", int(line)) for u in units for line in u.transcript]
    values += [("int", size["loop_iters"])] * len(units)
    return Workload("interp_loop", [[u] for u in units], values)


# -- boundary_churn ----------------------------------------------------------

CHURN_SOURCE = Template("""\
@Untrusted
class Note {
    tag: Int;
    Note(t: Int) {
        this.tag = t;
    }
    value() -> Int {
        return this.tag;
    }
}

@Trusted
class Cell {
    id: Int;
    Cell(i: Int) {
        this.id = i;
    }
    take(words: List[Str], note: Note) -> Int {
        return (this.id * $P + note.value() + words.len()) % $MOD;
    }
}

@Untrusted
class Main {
    static main() {
        var words: List[Str] = [$WORDS];
        var round: Int = 0;
        while (round < $R) {
            var cells: List[Cell] = [];
            var i: Int = 0;
            while (i < $N) {
                cells.append(new Cell(round * $N + i));
                i = i + 1;
            }
            var sum: Int = 0;
            i = 0;
            while (i < $N) {
                sum = (sum + cells.get(i).take(words, new Note(i % $K))) % $MOD;
                i = i + 1;
            }
            print(sum);
            cells = [];
            gc();
            round = round + 1;
        }
    }
}
""")


@dataclass
class Churn:
    """Parameters of one boundary_churn program."""

    words: list[str]
    p: int
    k: int
    cells: int
    rounds: int

    @classmethod
    def draw(cls, rng: random.Random, cells: int, rounds: int) -> "Churn":
        # Fixed word count and length: the seed changes the bytes, not the
        # amount of work.
        words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(16))
                 for _ in range(6)]
        return cls(words, rng.randrange(17, 98), rng.randrange(5, 30),
                   cells, rounds)

    def source(self) -> str:
        return CHURN_SOURCE.substitute(
            MOD=MOD, P=self.p, K=self.k, N=self.cells, R=self.rounds,
            WORDS=", ".join(f'"{w}"' for w in self.words))

    def take(self, cell_id: int, i: int) -> int:
        """What Cell.take returns for the i-th call of a round."""
        return (cell_id * self.p + i % self.k + len(self.words)) % MOD

    def round_sum(self, r: int) -> int:
        s = 0
        for i in range(self.cells):
            s = (s + self.take(r * self.cells + i, i)) % MOD
        return s

    def unit(self) -> Unit:
        return Unit(self.source(),
                    transcript=[str(self.round_sum(r)) for r in range(self.rounds)],
                    vfs={}, check_registry=True)

    def wire_values(self) -> list[tuple]:
        words = ("list", [("str", w) for w in self.words])
        # A take() request: the word list and an href to the caller's Note.
        return [v for i in range(self.cells)
                for v in (words, ("href", i + 1, 1))]


def boundary_churn(api, seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    churns = [Churn.draw(rng, size["churn_cells"], size["churn_rounds"])
              for _ in range(size["churn_programs"])]
    return Workload("boundary_churn", [[c.unit()] for c in churns],
                    churns[0].wire_values())


# -- corpus_diff -------------------------------------------------------------

def _reads(node, strs: set, out: Counter) -> Counter:
    """Count the reads, in an expression, of the Str locals and fields in
    `strs` (a local by name, a field as ("this", name))."""
    kind = type(node).__name__
    key = (node.name if kind == "Var" else
           ("this", node.field_name)
           if kind == "FieldGet" and type(node.receiver).__name__ == "This"
           else None)
    if key in strs:
        out[key] += 1
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if dataclasses.is_dataclass(item):
                _reads(item, strs, out)
    return out


def _str_assignments(body: list, strs: set, trips: int, out: list) -> list:
    """(target, reads, trips) for each Str assignment in `body`, where trips
    is the product of the enclosing loops' literal bounds."""
    for st in body:
        kind = type(st).__name__
        if kind == "VarDecl" and getattr(st.declared_type, "name", "") == "Str":
            strs.add(st.name)
            out.append((st.name, _reads(st.init, strs, Counter()), trips))
        elif kind == "Assign":
            t = st.target
            key = t.name if type(t).__name__ == "Var" else ("this", t.field_name)
            if key in strs:
                out.append((key, _reads(st.value, strs, Counter()), trips))
        elif kind == "While":
            bound = getattr(st.cond.right, "value", 1)
            _str_assignments(st.body, strs, trips * bound, out)
        elif kind == "If":
            _str_assignments(st.then_body, strs, trips, out)
            _str_assignments(st.else_body, strs, trips, out)
    return out


def grows_a_string(program) -> bool:
    """Whether a loop can grow a Str geometrically, as in
    ``v0 = "bit" + (v0 + (v2 + v0));`` or the pair ``v1 = v1 + v0;``
    ``v0 = v0 + v1;``: an assignment, repeated MAX_TRIPS times or more, that
    reads two or more values of the strings it feeds back into.  bench.progen
    nests such loops deep enough that a run needs gigabytes (its seed 2
    draws two such programs among its first 200)."""
    for cls in program.classes:
        fields = {("this", f.name) for f in cls.fields if f.type.name == "Str"}
        for m in cls.methods:
            strs = fields | {p.name for p in m.params if p.type.name == "Str"}
            loops = [a for a in _str_assignments(m.body, strs, 1, []) if a[2] > 1]
            feeds: dict = {}
            for target, reads, _ in loops:
                for r in reads:
                    feeds.setdefault(r, set()).add(target)

            def reach(x):
                seen, todo = set(), [x]
                while todo:
                    for y in feeds.get(todo.pop(), ()):
                        if y not in seen:
                            seen.add(y)
                            todo.append(y)
                return seen

            for target, reads, trips in loops:
                cycle = sum(n for r, n in reads.items() if r in reach(target))
                if trips >= MAX_TRIPS and cycle >= 2:
                    return True
    return False


def corpus_diff(api, seed: int, size: dict) -> Workload:
    """bench.progen programs drawn as generate_corpus draws them, leaving out
    those whose memory grows exponentially (see grows_a_string)."""
    sources, skipped, i = [], 0, 0
    while len(sources) < size["corpus_programs"]:
        source = api.generate_program(seed * 10007 + i)
        i += 1
        if grows_a_string(api.parse_program(source)):
            skipped += 1
        else:
            sources.append(source)
    # Printed values reach the host as shim payloads when trusted code prints;
    # they stand in for this workload's boundary traffic in the wire probe.
    values = [("str", line) for src in sources[:20]
              for line in api.run_reference(api.parse_program(src)).transcript]
    return Workload("corpus_diff", [[Unit(s)] for s in sources], values,
                    {"string_growing_loop": skipped} if skipped else {})


WORKLOADS = {
    "partition_wide": partition_wide,
    "interp_loop": interp_loop,
    "boundary_churn": boundary_churn,
    "corpus_diff": corpus_diff,
}
