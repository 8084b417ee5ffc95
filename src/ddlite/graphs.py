"""Dependency graphs over programs and XML documents.

Three kinds share one data structure:

* PDG: one node per predicate, an edge from each head to each predicate
  read in the rule's body; edges from negated literals carry a "not" mark.
  Builtin calls, negated or not, and control atoms draw nothing.
* RPG: bipartite over predicates and rules.  Calls to meta-predicates
  (not/1, findall/3 by default) get their own call node per call site, with
  the predicates called inside hanging below; this keeps recursion through
  findall visible.
* Schema: one node per XML tag, edges parent tag -> child tag, attributes
  as "@name" leaves.

Contracting the rule and call nodes of an RPG yields exactly the PDG.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (
    BuiltinLiteralError,
    GraphKindError,
    NegatedLiteralError,
    NodeNotFound,
    NotUnifiableError,
)
from .kernel import (
    Compound,
    Const,
    Literal,
    PredKey,
    Program,
    Record,
    Rule,
    Term,
    apply,
    mgu,
    rename_apart,
    term_vars,
)

TYPE_CHECKING = False  # typing and xmlterm are imported by type checkers alone
if TYPE_CHECKING:
    from typing import Optional, Sequence

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


class PredNode(Record):
    """A predicate's node.  A build makes one per predicate key (_Builder),
    and every node kind computes its hash once, when it is made."""

    __slots__ = ("key", "_hash")
    _fields = ("key",)

    def __init__(self, key: PredKey):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash((key,)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    @property
    def id(self) -> str:
        return str(self.key)


class RuleNode(Record):
    __slots__ = ("rule_name", "_hash")
    _fields = ("rule_name",)

    def __init__(self, rule_name: str):
        object.__setattr__(self, "rule_name", rule_name)
        object.__setattr__(self, "_hash", hash((rule_name,)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rule_name == other.rule_name

    def __hash__(self) -> int:
        return self._hash

    @property
    def id(self) -> str:
        return self.rule_name


class MetaCallNode(Record):
    __slots__ = ("key", "call_site", "_hash")
    _fields = ("key", "call_site")

    def __init__(self, key: PredKey, call_site: int):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "call_site", call_site)
        object.__setattr__(self, "_hash", hash((key, call_site)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.key, self.call_site) == (other.key, other.call_site)

    def __hash__(self) -> int:
        return self._hash

    @property
    def id(self) -> str:
        return f"{self.key}#{self.call_site}"


class TagNode(Record):
    __slots__ = ("tag", "_hash")
    _fields = ("tag",)

    def __init__(self, tag: str):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_hash", hash((tag,)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self) -> int:
        return self._hash

    @property
    def id(self) -> str:
        return self.tag


Node = object  # PredNode | RuleNode | MetaCallNode | TagNode


class Edge(namedtuple("Edge", ("src", "dst", "mark"), defaults=(PLAIN,))):
    """An edge from node src to node dst; mark is PLAIN or NOT."""

    __slots__ = ()


class Adjacency(namedtuple("Adjacency", ("out", "into"))):
    """The edges leaving (out) and entering (into) each node, in edge
    order: dicts from a node to its list of edges."""

    __slots__ = ()


class DepGraph(Record):
    """A graph of one kind; equal to another with the same node and edge
    sets.  Not slotted: adjacency is kept in the instance dict."""

    _fields = ("kind", "nodes", "edges")

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

    @cached_property
    def adjacency(self) -> Adjacency:
        """Built on first use; every graph walk reads it."""
        adj = Adjacency({n: [] for n in self.nodes}, {n: [] for n in self.nodes})
        for e in self.edges:
            adj.out[e.src].append(e)
            adj.into[e.dst].append(e)
        return adj

    def successors(self, node: Node) -> list[Node]:
        return [e.dst for e in self.adjacency.out.get(node, ())]


class _Builder:
    """Accumulates nodes and edges preserving first-insertion order, with
    one PredNode per predicate key.  An edge joins nodes added already."""

    def __init__(self, kind: str):
        self.kind = kind
        # each node under its predicate key (a PredNode) or itself (others)
        self.nodes: dict[object, Node] = {}
        self.edges: dict[Edge, None] = {}

    def pred(self, key: PredKey) -> PredNode:
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = PredNode(key)
        return node

    def node(self, n: Node) -> Node:
        return self.nodes.setdefault(n, n)

    def edge(self, src: Node, dst: Node, mark: str = PLAIN):
        self.edges.setdefault(Edge(src, dst, mark), None)

    def done(self) -> DepGraph:
        return DepGraph(self.kind, tuple(self.nodes.values()), tuple(self.edges))


def _inner_goals(t: Term) -> list[PredKey]:
    """Predicates called inside a meta-argument, through conjunctions, left
    to right; an explicit stack, so a long conjunction needs no recursion."""
    out: list[PredKey] = []
    stack: list[Term] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Compound) and t.functor == "," and len(t.args) == 2:
            stack += (t.args[1], t.args[0])
        elif isinstance(t, Compound):
            out.append(PredKey(None, t.functor, len(t.args)))
        elif isinstance(t, Const):
            out.append(PredKey(None, t.symbol, 0))
    return out


def _body_targets(
    lit: Literal, meta: dict[PredKey, Sequence[int]]
) -> Optional[tuple[Optional[PredKey], list[PredKey], str]]:
    """Classify a body literal for graph building.

    Returns (meta key or None, called predicate keys, mark), or None for
    literals that read no relation (builtin calls, negated or not, and
    control atoms), which contribute no edge.
    """
    if not lit.reads_relation():
        return None
    atom = lit.atom
    if lit.is_negated():
        return (PredKey(None, "not", 1), [atom.key], NOT)
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
        head = b.pred(rule.head.key)
        for lit in rule.body:
            classified = _body_targets(lit, meta)
            if classified is None:
                continue
            _, targets, mark = classified
            for key in targets:
                b.edge(head, b.pred(key), mark)
    return b.done()


def build_rpg(p: Program, meta: Optional[dict] = None) -> DepGraph:
    """Rule predicate graph with one call node per meta-predicate call."""
    meta = DEFAULT_META if meta is None else meta
    b = _Builder(RPG)
    site = 0
    for rule in p.rules:
        head = b.pred(rule.head.key)
        rnode = b.node(RuleNode(rule.name))
        b.edge(head, rnode)
        for lit in rule.body:
            classified = _body_targets(lit, meta)
            if classified is None:
                continue
            meta_key, targets, mark = classified
            if meta_key is None:
                b.edge(rnode, b.pred(targets[0]), mark)
            else:
                site += 1
                call = b.node(MetaCallNode(meta_key, site))
                b.edge(rnode, call, mark)
                for key in targets:
                    b.edge(call, b.pred(key))
    return b.done()


def reachable(g: DepGraph, start: Node) -> frozenset[Node]:
    """Nodes strictly reachable from start (start itself excluded; for an
    RPG the result is filtered to predicate nodes)."""
    out = g.adjacency.out
    if start not in out:
        raise NodeNotFound(f"node {getattr(start, 'id', start)!r} not in graph")
    seen: set[Node] = set()
    stack = [start]
    while stack:
        for e in out[stack.pop()]:
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    seen.discard(start)
    if g.kind == RPG:
        seen = {n for n in seen if isinstance(n, PredNode)}
    return frozenset(seen)


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


class DiffReport(Record):
    __slots__ = _fields = (
        "nodes_only_left",
        "nodes_only_right",
        "edges_only_left",
        "edges_only_right",
        "equivalent_modulo",  # a frozenset of PredKeys
    )
    _defaults = {"equivalent_modulo": frozenset()}

    def is_empty(self) -> bool:
        return not (
            self.nodes_only_left
            or self.nodes_only_right
            or self.edges_only_left
            or self.edges_only_right
        )


def _call_descriptor(g: DepGraph, m: MetaCallNode) -> tuple:
    """A meta-call site by what it calls: its key plus the sorted keys of
    the predicates called inside."""
    inner = sorted(
        str(e.dst.key) for e in g.adjacency.out[m] if isinstance(e.dst, PredNode)
    )
    return (str(m.key), tuple(inner))


def _rule_shape(g: DepGraph, rnode: RuleNode) -> tuple:
    """A rule node by what it is: its head keys and the multiset of its
    body targets, each meta-call by its descriptor."""
    heads = sorted(
        str(e.src.key) for e in g.adjacency.into[rnode] if isinstance(e.src, PredNode)
    )
    body = []
    for e in g.adjacency.out[rnode]:
        if isinstance(e.dst, MetaCallNode):
            key, inner = _call_descriptor(g, e.dst)
            body.append(("m", key, e.mark, inner))
        elif isinstance(e.dst, PredNode):
            body.append(("p", str(e.dst.key), e.mark, ()))
    return (tuple(heads), tuple(sorted(body)))


def _rank(counts: dict, key) -> int:
    """How many times key was counted before this call, which counts it."""
    counts[key] = counts.get(key, -1) + 1
    return counts[key]


def _diff_keys(g1: DepGraph, g2: DepGraph) -> list[dict]:
    """For each side, the key that each predicate, rule and meta-call node
    is compared by, as a small integer that equal keys on both sides share;
    any other node is its own key.  A predicate node's key is the node.

    A rule's key is its shape plus its rank among its side's rules of that
    shape, in written order, so equal rules pair however they are ordered.
    A rule with no same-shape partner is keyed instead by its heads and its
    rank among its side's leftover rules under those heads: it pairs with
    the leftover at the same rank on the other side, so a changed body
    shows only its changed edges.  A meta-call's key is its rule's key, its
    descriptor and its rank among that rule's calls with that descriptor.
    """
    ids: dict = {}  # each key met, on either side, and its integer
    shapes: dict = {}  # each rule shape met, and its integer

    def number(key) -> int:
        return ids.setdefault(key, len(ids))

    sides = []
    for g in (g1, g2):
        ranks: dict = {}
        rules = {}
        for n in g.nodes:
            if n.__class__ is RuleNode:
                heads, body = _rule_shape(g, n)
                shape = shapes.setdefault((heads, body), len(shapes))
                rules[n] = (heads, number((shape, _rank(ranks, shape))))
        sides.append(rules)
    paired = {k for _, k in sides[0].values()} & {k for _, k in sides[1].values()}
    out = []
    for g, rules in zip((g1, g2), sides):
        keys = {}
        head_ranks: dict = {}
        call_ranks: dict = {}
        for n in g.nodes:
            if n.__class__ is PredNode:
                keys[n] = number(n)
            elif n.__class__ is RuleNode:
                heads, key = rules[n]
                if key not in paired:
                    key = number((heads, None, _rank(head_ranks, heads)))
                keys[n] = key
                for e in g.adjacency.out[n]:
                    if e.dst.__class__ is MetaCallNode:
                        call = (key, _call_descriptor(g, e.dst))
                        keys[e.dst] = number((*call, _rank(call_ranks, call)))
        out.append(keys)
    return out


def graph_diff(
    g1: DepGraph, g2: DepGraph, helpers: frozenset[PredKey] = frozenset()
) -> DiffReport:
    """Set difference of nodes and edges, each node compared by the key
    _diff_keys gives it; each side's nodes and edges are reported under
    that side's own names.

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
        out, into = g.adjacency
        # a rule node headed by a helper goes away with the helper, and so
        # do meta-call sites that belong to such a rule
        dead = {
            n
            for n in g.nodes
            if isinstance(n, RuleNode) and any(helper_pred(e.src) for e in into[n])
        }
        dead.update(
            e.dst
            for n in list(dead)
            for e in out[n]
            if isinstance(e.dst, MetaCallNode)
        )
        keep = lambda n: not (helper_pred(n) or n in dead)
        nodes = tuple(n for n in g.nodes if keep(n))
        edges = tuple(e for e in g.edges if keep(e.src) and keep(e.dst))
        return DepGraph(g.kind, nodes, edges)

    g1, g2 = drop_helpers(g1), drop_helpers(g2)
    keyed = []
    for g, keys in zip((g1, g2), _diff_keys(g1, g2)):
        nodes = {keys.get(n, n): n for n in g.nodes}
        edges = {
            (keys.get(e.src, e.src), keys.get(e.dst, e.dst), e.mark): e
            for e in g.edges
        }
        keyed.append((nodes, edges))
    (n1, e1), (n2, e2) = keyed

    def only(a: dict, b: dict, sort_key) -> tuple:
        return tuple(sorted((a[k] for k in a.keys() - b.keys()), key=sort_key))

    return DiffReport(
        nodes_only_left=only(n1, n2, _node_key),
        nodes_only_right=only(n2, n1, _node_key),
        edges_only_left=only(e1, e2, _edge_key),
        edges_only_right=only(e2, e1, _edge_key),
        equivalent_modulo=frozenset(helpers),
    )


# ===========================================================================
# XML schema graphs
# ===========================================================================


def schema_graph(x: XmlTerm, include_attrs: bool = True) -> DepGraph:
    """Tag-level summary of a document: parent tag -> child tag, plus
    "@name" attribute leaves when include_attrs is set."""
    b = _Builder(SCHEMA)
    # (parent tag node, element): an explicit stack keeps deep documents
    # off the recursion limit and visits elements in document order
    stack: list[tuple[Optional[TagNode], XmlTerm]] = [(None, x)]
    while stack:
        parent, node = stack.pop()
        src = b.node(TagNode(node.tag))
        if parent is not None:
            b.edge(parent, src)
        if include_attrs:
            for attr in node.attributes:
                b.edge(src, b.node(TagNode(f"@{attr}")))
        stack.extend((src, child) for child in reversed(node.child_elements()))
    return b.done()


# ===========================================================================
# Export
# ===========================================================================


def _node_key(n: Node) -> str:
    return n.id


def _edge_key(e: Edge) -> tuple:
    return (e.src.id, e.dst.id, e.mark)


def _node_label(n: Node) -> str:
    if isinstance(n, MetaCallNode):
        return str(n.key)
    return n.id


def to_dot(g: DepGraph) -> str:
    """Graphviz text; deterministic: nodes and edges in lexicographic order.

    Predicate nodes are ellipses, rule nodes boxes, meta-call nodes plain
    text; edges from negated literals carry label="not".
    """
    lines = ["digraph G {"]
    for n in sorted(g.nodes, key=_node_key):
        nid = _node_label_id(n)
        if isinstance(n, RuleNode):
            lines.append(f'  "{nid}" [shape=box];')
        elif isinstance(n, MetaCallNode):
            lines.append(f'  "{nid}" [shape=plaintext, label="{_node_label(n)}"];')
        else:
            lines.append(f'  "{nid}" [shape=ellipse];')
    for e in sorted(g.edges, key=_edge_key):
        attr = ' [label="not"]' if e.mark == NOT else ""
        lines.append(f'  "{_node_label_id(e.src)}" -> "{_node_label_id(e.dst)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_label_id(n: Node) -> str:
    return n.id.replace('"', '\\"')


def _node_type(n: Node) -> str:
    return {
        PredNode: "pred",
        RuleNode: "rule",
        MetaCallNode: "meta",
        TagNode: "tag",
    }[type(n)]


def _node_json(n: Node) -> dict:
    return {"id": n.id, "type": _node_type(n)}


def _edge_json(e: Edge) -> dict:
    return {"from": e.src.id, "to": e.dst.id, "mark": e.mark}


def graph_to_json(g: DepGraph) -> dict:
    """Plain-data form: {kind, nodes: [{id,type}...], edges: [{from,to,mark}...]}
    with stable lexicographic ordering."""
    return {
        "kind": g.kind,
        "nodes": [_node_json(n) for n in sorted(g.nodes, key=_node_key)],
        "edges": [_edge_json(e) for e in sorted(g.edges, key=_edge_key)],
    }


def diff_to_json(d: DiffReport) -> dict:
    return {
        "nodes_only_left": [_node_json(n) for n in d.nodes_only_left],
        "nodes_only_right": [_node_json(n) for n in d.nodes_only_right],
        "edges_only_left": [_edge_json(e) for e in d.edges_only_left],
        "edges_only_right": [_edge_json(e) for e in d.edges_only_right],
        "helpers": sorted(str(k) for k in d.equivalent_modulo),
        "identical": d.is_empty(),
    }
