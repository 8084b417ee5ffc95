"""Dependency graphs over programs and XML documents.

Three kinds share one data structure:

* PDG: one node per predicate, an edge from each head to each predicate
  called in the rule's body; edges from negated literals carry a "not" mark.
* RPG: bipartite over predicates and rules.  Calls to meta-predicates
  (not/1, findall/3 by default) get their own call node per call site, with
  the predicates called inside hanging below; this keeps recursion through
  findall visible.
* Schema: one node per XML tag, edges parent tag -> child tag, attributes
  as "@name" leaves.

Contracting the rule and call nodes of an RPG yields exactly the PDG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    BuiltinLiteralError,
    GraphKindError,
    NegatedLiteralError,
    NodeNotFound,
    NotUnifiableError,
)
from .kernel import (
    CONTROL,
    Atom,
    Compound,
    Const,
    Literal,
    PredKey,
    Program,
    Rule,
    Term,
    apply,
    mgu,
    rename_apart,
    term_vars,
)
from .xmlterm import XmlTerm

PDG = "pdg"
RPG = "rpg"
SCHEMA = "schema"

PLAIN = "plain"
NOT = "not"

# meta-predicates whose calls get their own graph node; for each, the
# argument positions scanned for inner goals
DEFAULT_META: dict[PredKey, tuple[int, ...]] = {
    PredKey(None, "not", 1): (0,),
    PredKey(None, "findall", 3): (1,),
}


@dataclass(frozen=True)
class PredNode:
    key: PredKey

    @property
    def id(self) -> str:
        return str(self.key)


@dataclass(frozen=True)
class RuleNode:
    rule_name: str

    @property
    def id(self) -> str:
        return self.rule_name


@dataclass(frozen=True)
class MetaCallNode:
    key: PredKey
    call_site: int

    @property
    def id(self) -> str:
        return f"{self.key}#{self.call_site}"


@dataclass(frozen=True)
class TagNode:
    tag: str

    @property
    def id(self) -> str:
        return self.tag


Node = object  # PredNode | RuleNode | MetaCallNode | TagNode


class Edge(NamedTuple):
    src: Node
    dst: Node
    mark: str = PLAIN


@dataclass(frozen=True, eq=False)
class DepGraph:
    kind: str
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepGraph):
            return NotImplemented
        return (
            self.kind == other.kind
            and frozenset(self.nodes) == frozenset(other.nodes)
            and frozenset(self.edges) == frozenset(other.edges)
        )

    def __hash__(self) -> int:
        return hash((self.kind, frozenset(self.nodes), frozenset(self.edges)))

    def successors(self, node: Node) -> list[Node]:
        return [e.dst for e in self.edges if e.src == node]


class _Builder:
    """Accumulates nodes and edges preserving first-insertion order."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nodes: dict[Node, None] = {}
        self.edges: dict[Edge, None] = {}

    def node(self, n: Node) -> Node:
        self.nodes.setdefault(n, None)
        return n

    def edge(self, src: Node, dst: Node, mark: str = PLAIN):
        self.node(src)
        self.node(dst)
        self.edges.setdefault(Edge(src, dst, mark), None)

    def done(self) -> DepGraph:
        return DepGraph(self.kind, tuple(self.nodes), tuple(self.edges))


def _inner_goals(t: Term) -> list[PredKey]:
    """Predicates called inside a meta-argument, through conjunctions."""
    if isinstance(t, Compound) and t.functor == "," and len(t.args) == 2:
        return _inner_goals(t.args[0]) + _inner_goals(t.args[1])
    if isinstance(t, Compound):
        return [PredKey(None, t.functor, len(t.args))]
    if isinstance(t, Const):
        return [PredKey(None, t.symbol, 0)]
    return []


def _body_targets(
    lit: Literal, meta: dict[PredKey, tuple[int, ...]]
) -> Optional[tuple[Optional[PredKey], list[PredKey], str]]:
    """Classify a body literal for graph building.

    Returns (meta key or None, called predicate keys, mark), or None for
    literals that contribute no edge (builtins, control atoms).
    """
    atom = lit.atom
    if lit.is_negated():
        inner = [atom.key]
        return (PredKey(None, "not", 1), inner, NOT)
    if lit.is_builtin():
        return None
    if atom.key in CONTROL:
        return None
    positions = meta.get(atom.key)
    if positions is not None:
        inner: list[PredKey] = []
        for p in positions:
            inner.extend(_inner_goals(atom.args[p]))
        return (atom.key, inner, PLAIN)
    return (None, [atom.key], PLAIN)


def build_pdg(p: Program, meta: Optional[dict] = None) -> DepGraph:
    """Predicate dependency graph: head -> called predicate per body literal."""
    meta = DEFAULT_META if meta is None else meta
    b = _Builder(PDG)
    for rule in p.rules:
        head = b.node(PredNode(rule.head.key))
        for lit in rule.body:
            classified = _body_targets(lit, meta)
            if classified is None:
                continue
            _, targets, mark = classified
            for key in targets:
                b.edge(head, PredNode(key), mark)
    return b.done()


def build_rpg(p: Program, meta: Optional[dict] = None) -> DepGraph:
    """Rule predicate graph with one call node per meta-predicate call."""
    meta = DEFAULT_META if meta is None else meta
    b = _Builder(RPG)
    site = 0
    for rule in p.rules:
        head = b.node(PredNode(rule.head.key))
        rnode = RuleNode(rule.name)
        b.edge(head, rnode)
        for lit in rule.body:
            classified = _body_targets(lit, meta)
            if classified is None:
                continue
            meta_key, targets, mark = classified
            if meta_key is None:
                b.edge(rnode, PredNode(targets[0]), mark)
            else:
                site += 1
                call = MetaCallNode(meta_key, site)
                b.edge(rnode, call, mark)
                for key in targets:
                    b.edge(call, PredNode(key))
    return b.done()


def pdg_from_rpg(g: DepGraph) -> DepGraph:
    """Contract rule and meta-call nodes; an edge is Not-marked iff some
    contracted path carried a Not mark."""
    if g.kind != RPG:
        raise GraphKindError(f"expected an rpg, got {g.kind}")
    b = _Builder(PDG)
    out: dict[Node, list[Edge]] = {}
    for e in g.edges:
        out.setdefault(e.src, []).append(e)
    for n in g.nodes:
        if isinstance(n, PredNode):
            b.node(n)
    for n in g.nodes:
        if not isinstance(n, PredNode):
            continue
        # walk through non-predicate nodes, or-ing marks along the way
        stack = [(e.dst, e.mark == NOT) for e in out.get(n, ())]
        seen = set()
        while stack:
            cur, marked = stack.pop(0)
            if isinstance(cur, PredNode):
                b.edge(n, cur, NOT if marked else PLAIN)
                continue
            if (cur, marked) in seen:
                continue
            seen.add((cur, marked))
            for e in out.get(cur, ()):
                stack.append((e.dst, marked or e.mark == NOT))
    return b.done()


def reachable(g: DepGraph, start: Node) -> frozenset[Node]:
    """Nodes strictly reachable from start (start itself excluded; for an
    RPG the result is filtered to predicate nodes)."""
    if start not in set(g.nodes):
        raise NodeNotFound(f"node {getattr(start, 'id', start)!r} not in graph")
    out: dict[Node, list[Node]] = {}
    for e in g.edges:
        out.setdefault(e.src, []).append(e.dst)
    seen: set[Node] = set()
    stack = list(out.get(start, ()))
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(out.get(cur, ()))
    seen.discard(start)
    if g.kind == RPG:
        seen = {n for n in seen if isinstance(n, PredNode)}
    return frozenset(seen)


def on_cycle(g: DepGraph, node: Node) -> bool:
    """True if node can reach itself through at least one edge."""
    out: dict[Node, list[Node]] = {}
    for e in g.edges:
        out.setdefault(e.src, []).append(e.dst)
    seen: set[Node] = set()
    stack = list(out.get(node, ()))
    while stack:
        cur = stack.pop()
        if cur == node:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(out.get(cur, ()))
    return False


# ===========================================================================
# Helper unfolding
# ===========================================================================


def unfold_helper(r1: Rule, r2: Rule, i: int) -> Rule:
    """Resolve body literal i (1-based) of r1 against the head of r2.

    The literal must be positive and not a builtin call; r2 is renamed
    apart first.  The result is named "<r1>+<r2>".
    """
    if not 1 <= i <= len(r1.body):
        raise NodeNotFound(f"rule {r1.name} has no body literal {i}")
    lit = r1.body[i - 1]
    if lit.is_negated():
        raise NegatedLiteralError(f"body literal {i} of {r1.name} is negated")
    if lit.is_builtin():
        raise BuiltinLiteralError(f"body literal {i} of {r1.name} is a builtin call")
    suffix = "_h"
    k = 1
    r1_vars = term_vars(r1)
    while term_vars(rename_apart(r2, suffix)) & r1_vars:
        k += 1
        suffix = f"_h{k}"
    fresh = rename_apart(r2, suffix)
    theta = mgu(lit.atom, fresh.head)
    if theta is None:
        raise NotUnifiableError(
            f"body literal {i} of {r1.name} does not unify with the head of {r2.name}"
        )
    new_body = r1.body[: i - 1] + fresh.body + r1.body[i:]
    resolved = apply(theta, Rule(f"{r1.name}+{r2.name}", r1.head, new_body))
    return resolved


def equivalent_modulo_helpers(
    p1: Program, p2: Program, root: PredKey, helpers: frozenset[PredKey]
) -> bool:
    """Same reachable predicate set from root once helpers are removed."""
    sets = []
    for p in (p1, p2):
        g = build_pdg(p)
        node = PredNode(root)
        if node not in set(g.nodes):
            raise NodeNotFound(f"predicate {root} not in program")
        keys = {n.key for n in reachable(g, node) if isinstance(n, PredNode)}
        sets.append(keys - set(helpers))
    return sets[0] == sets[1]


# ===========================================================================
# Diff
# ===========================================================================


@dataclass(frozen=True)
class DiffReport:
    nodes_only_left: tuple[Node, ...]
    nodes_only_right: tuple[Node, ...]
    edges_only_left: tuple[Edge, ...]
    edges_only_right: tuple[Edge, ...]
    equivalent_modulo: frozenset[PredKey] = frozenset()

    def is_empty(self) -> bool:
        return not (
            self.nodes_only_left
            or self.nodes_only_right
            or self.edges_only_left
            or self.edges_only_right
        )


def _rule_shape(g: DepGraph, rnode: RuleNode):
    """Sort key describing a rule node: head key plus body target multiset."""
    heads = sorted(
        str(e.src.key) for e in g.edges if e.dst == rnode and isinstance(e.src, PredNode)
    )
    body = []
    for e in g.edges:
        if e.src != rnode:
            continue
        if isinstance(e.dst, MetaCallNode):
            inner = sorted(
                str(e2.dst.key)
                for e2 in g.edges
                if e2.src == e.dst and isinstance(e2.dst, PredNode)
            )
            body.append(("m", str(e.dst.key), e.mark, tuple(inner)))
        elif isinstance(e.dst, PredNode):
            body.append(("p", str(e.dst.key), e.mark, ()))
    return (tuple(heads), tuple(sorted(body)))


def _canonicalize(g: DepGraph) -> tuple[DepGraph, dict[Node, Node]]:
    """Renumber rule and meta-call nodes by shape so that reordering
    clauses does not show up as a difference.  Returns the renamed graph
    and the mapping canonical -> original."""
    rule_nodes = [n for n in g.nodes if isinstance(n, RuleNode)]
    order = sorted(
        range(len(rule_nodes)), key=lambda i: (_rule_shape(g, rule_nodes[i]), i)
    )
    mapping: dict[Node, Node] = {}
    back: dict[Node, Node] = {}
    for k, idx in enumerate(order, start=1):
        canon = RuleNode(f"c{k}")
        mapping[rule_nodes[idx]] = canon
        back[canon] = rule_nodes[idx]
    # meta-call sites renumbered in the order their owning rules sort;
    # within one rule, by call descriptor so body order does not matter
    meta_nodes = []
    for idx in order:
        rnode = rule_nodes[idx]
        calls = [
            e.dst
            for e in g.edges
            if e.src == rnode and isinstance(e.dst, MetaCallNode)
        ]

        def descriptor(m: MetaCallNode):
            inner = sorted(
                str(e.dst.key)
                for e in g.edges
                if e.src == m and isinstance(e.dst, PredNode)
            )
            return (str(m.key), tuple(inner))

        meta_nodes.extend(sorted(calls, key=descriptor))
    for k, m in enumerate(meta_nodes, start=1):
        canon = MetaCallNode(m.key, k)
        mapping[m] = canon
        back[canon] = m
    nodes = tuple(mapping.get(n, n) for n in g.nodes)
    edges = tuple(
        Edge(mapping.get(e.src, e.src), mapping.get(e.dst, e.dst), e.mark)
        for e in g.edges
    )
    return DepGraph(g.kind, nodes, edges), back


def graph_diff(
    g1: DepGraph, g2: DepGraph, helpers: frozenset[PredKey] = frozenset()
) -> DiffReport:
    """Set difference of nodes and edges after canonical rule renumbering.

    Predicates listed in helpers are factored out of the comparison and
    echoed in the report.  A nonempty report is an ordinary result, not an
    error.
    """
    if g1.kind != g2.kind:
        raise GraphKindError(f"cannot diff a {g1.kind} against a {g2.kind}")

    def drop_helpers(g: DepGraph) -> DepGraph:
        if not helpers:
            return g
        helper_pred = lambda n: isinstance(n, PredNode) and n.key in helpers
        # a rule node headed by a helper goes away with the helper, and so
        # do meta-call sites that belong to such a rule
        dead = {
            n
            for n in g.nodes
            if isinstance(n, RuleNode)
            and any(helper_pred(e.src) for e in g.edges if e.dst == n)
        }
        dead.update(
            e.dst
            for e in g.edges
            if e.src in dead and isinstance(e.dst, MetaCallNode)
        )
        keep = lambda n: not (helper_pred(n) or n in dead)
        nodes = tuple(n for n in g.nodes if keep(n))
        edges = tuple(e for e in g.edges if keep(e.src) and keep(e.dst))
        return DepGraph(g.kind, nodes, edges)

    c1, back1 = _canonicalize(drop_helpers(g1))
    c2, back2 = _canonicalize(drop_helpers(g2))
    n1, n2 = set(c1.nodes), set(c2.nodes)
    e1, e2 = set(c1.edges), set(c2.edges)

    def orig_node(back, n):
        return back.get(n, n)

    def orig_edge(back, e):
        return Edge(back.get(e.src, e.src), back.get(e.dst, e.dst), e.mark)

    key = lambda n: _node_sort_key(n)
    return DiffReport(
        nodes_only_left=tuple(
            sorted((orig_node(back1, n) for n in n1 - n2), key=key)
        ),
        nodes_only_right=tuple(
            sorted((orig_node(back2, n) for n in n2 - n1), key=key)
        ),
        edges_only_left=tuple(
            sorted(
                (orig_edge(back1, e) for e in e1 - e2),
                key=lambda e: (key(e.src), key(e.dst), e.mark),
            )
        ),
        edges_only_right=tuple(
            sorted(
                (orig_edge(back2, e) for e in e2 - e1),
                key=lambda e: (key(e.src), key(e.dst), e.mark),
            )
        ),
        equivalent_modulo=frozenset(helpers),
    )


# ===========================================================================
# XML schema graphs
# ===========================================================================


def schema_graph(x: XmlTerm, include_attrs: bool = True) -> DepGraph:
    """Tag-level summary of a document: parent tag -> child tag, plus
    "@name" attribute leaves when include_attrs is set."""
    b = _Builder(SCHEMA)

    def walk(node: XmlTerm):
        src = b.node(TagNode(node.tag))
        if include_attrs:
            for attr in node.attributes:
                b.edge(src, TagNode(f"@{attr}"))
        for child in node.child_elements():
            b.edge(src, TagNode(child.tag))
            walk(child)

    walk(x)
    return b.done()


# ===========================================================================
# Export
# ===========================================================================


def _node_sort_key(n: Node) -> tuple:
    return (getattr(n, "id", str(n)),)


def _node_label(n: Node) -> str:
    if isinstance(n, MetaCallNode):
        return str(n.key)
    return getattr(n, "id", str(n))


def to_dot(g: DepGraph) -> str:
    """Graphviz text; deterministic: nodes and edges in lexicographic order.

    Predicate nodes are ellipses, rule nodes boxes, meta-call nodes plain
    text; edges from negated literals carry label="not".
    """
    lines = ["digraph G {"]
    for n in sorted(g.nodes, key=_node_sort_key):
        nid = _node_label_id(n)
        if isinstance(n, RuleNode):
            lines.append(f'  "{nid}" [shape=box];')
        elif isinstance(n, MetaCallNode):
            lines.append(f'  "{nid}" [shape=plaintext, label="{_node_label(n)}"];')
        else:
            lines.append(f'  "{nid}" [shape=ellipse];')
    for e in sorted(
        g.edges, key=lambda e: (_node_sort_key(e.src), _node_sort_key(e.dst), e.mark)
    ):
        attr = ' [label="not"]' if e.mark == NOT else ""
        lines.append(f'  "{_node_label_id(e.src)}" -> "{_node_label_id(e.dst)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_label_id(n: Node) -> str:
    return getattr(n, "id", str(n)).replace('"', '\\"')


def _node_type(n: Node) -> str:
    return {
        PredNode: "pred",
        RuleNode: "rule",
        MetaCallNode: "meta",
        TagNode: "tag",
    }[type(n)]


def graph_to_json(g: DepGraph) -> dict:
    """Plain-data form: {kind, nodes: [{id,type}...], edges: [{from,to,mark}...]}
    with stable lexicographic ordering."""
    nodes = [
        {"id": getattr(n, "id", str(n)), "type": _node_type(n)}
        for n in sorted(g.nodes, key=_node_sort_key)
    ]
    edges = [
        {
            "from": getattr(e.src, "id", str(e.src)),
            "to": getattr(e.dst, "id", str(e.dst)),
            "mark": e.mark,
        }
        for e in sorted(
            g.edges,
            key=lambda e: (_node_sort_key(e.src), _node_sort_key(e.dst), e.mark),
        )
    ]
    return {"kind": g.kind, "nodes": nodes, "edges": edges}


def diff_to_json(d: DiffReport) -> dict:
    def node(n):
        return {"id": getattr(n, "id", str(n)), "type": _node_type(n)}

    def edge(e):
        return {
            "from": getattr(e.src, "id", str(e.src)),
            "to": getattr(e.dst, "id", str(e.dst)),
            "mark": e.mark,
        }

    return {
        "nodes_only_left": [node(n) for n in d.nodes_only_left],
        "nodes_only_right": [node(n) for n in d.nodes_only_right],
        "edges_only_left": [edge(e) for e in d.edges_only_left],
        "edges_only_right": [edge(e) for e in d.edges_only_right],
        "helpers": sorted(str(k) for k in d.equivalent_modulo),
        "identical": d.is_empty(),
    }
