"""Method-level call graph and reachability closure for one image side.

Nodes are (kind, class, method) where kind distinguishes a concrete method from
a proxy stub living in this image.  Dispatch is exact: the language has no
inheritance, so each call site resolves to one node.  Proxy stubs have no
outgoing edges; their work happens in the opposite image.  The partitioner
does not build these graphs: compute_images (plan.py) walks the resolved
calls themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl.ast import Annotation, Program
from ..dsl.validate import analyze_calls

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


def build_call_graph(program: Program, side: Annotation,
                     entry_points: list[Node]) -> CallGraph:
    """Graph of the image for `side` with reachability from entry_points:
    the least fixed point of the successor relation over those of them that
    are nodes.  A call target maps to one node, so the unique targets of a
    method give it unique edges.

    Raises UnresolvedCall (via analyze_calls) if any body names a missing
    class or method.
    """
    calls = analyze_calls(program)
    kinds = {c.name: CONCRETE if c.annotation in (side, Annotation.NEUTRAL)
             else PROXY for c in program.classes}
    g = CallGraph(side, entry_points=list(entry_points))
    for cls in program.classes:
        for m in cls.methods:
            node = (kinds[cls.name], cls.name, m.name)
            g.edges[node] = [] if node[0] == PROXY else [
                (kinds[c], c, name) for c, name in calls[(cls.name, m.name)]]
    g.nodes = set(g.edges)
    work = [n for n in g.entry_points if n in g.nodes]
    while work:
        node = work.pop()
        if node not in g.reachable:
            g.reachable.add(node)
            work += g.edges[node]
    return g
