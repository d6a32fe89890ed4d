"""Method-level call graph and reachability closure for one image side.

Nodes are (kind, class, method) where kind distinguishes a concrete method from
a proxy stub living in this image.  Dispatch is exact: the language has no
inheritance, so each call site resolves to one node.  Proxy stubs have no
outgoing edges; their work happens in the opposite image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl.ast import Annotation, Program
from ..dsl.validate import CallTarget, analyze_calls

CONCRETE = "concrete"
PROXY = "proxy"

Node = tuple[str, str, str]  # (kind, class_name, method_name)


@dataclass
class CallGraph:
    side: Annotation  # TRUSTED or UNTRUSTED: which image this graph describes
    nodes: set[Node] = field(default_factory=set)
    edges: dict[Node, list[Node]] = field(default_factory=dict)
    entry_points: list[Node] = field(default_factory=list)
    reachable: set[Node] = field(default_factory=set)


def image_edges(program: Program, side: Annotation,
                calls: dict[CallTarget, list[CallTarget]]) -> dict[Node, list[Node]]:
    """Successors of every node of the image for `side`, given the resolved
    calls (dsl.validate.resolve).  A target maps to one node, so the unique
    targets of a method give it unique edges."""
    kinds = {c.name: CONCRETE if c.annotation in (side, Annotation.NEUTRAL)
             else PROXY for c in program.classes}
    edges: dict[Node, list[Node]] = {}
    for cls in program.classes:
        for m in cls.methods:
            node = (kinds[cls.name], cls.name, m.name)
            edges[node] = [] if node[0] == PROXY else [
                (kinds[c], c, name) for c, name in calls[(cls.name, m.name)]]
    return edges


def build_call_graph(program: Program, side: Annotation,
                     entry_points: list[Node]) -> CallGraph:
    """Graph of the image for `side` with reachability from entry_points.

    Raises UnresolvedCall (via analyze_calls) if any body names a missing
    class or method.
    """
    edges = image_edges(program, side, analyze_calls(program))
    g = CallGraph(side, set(edges), edges, list(entry_points))
    g.reachable = reachable_set(g)
    return g


def reachable_set(g: CallGraph) -> set[Node]:
    """Least fixed point of the successor relation over the entry points."""
    seen = {n for n in g.entry_points if n in g.nodes}
    work = list(seen)
    while work:
        for succ in g.edges.get(work.pop(), []):
            if succ in g.nodes and succ not in seen:
                seen.add(succ)
                work.append(succ)
    return seen
