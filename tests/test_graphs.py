"""Dependency graphs, rule graphs, diffing, unfolding, schema graphs."""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from ddlite.engine import evaluate, stratify
from ddlite.errors import (
    BuiltinLiteralError,
    GraphKindError,
    NegatedLiteralError,
    NodeNotFound,
    NotUnifiableError,
)
from ddlite.graphs import (
    NOT,
    PDG,
    PLAIN,
    RPG,
    SCHEMA,
    Edge,
    MetaCallNode,
    PredNode,
    RuleNode,
    TagNode,
    build_pdg,
    build_rpg,
    diff_to_json,
    equivalent_modulo_helpers,
    graph_diff,
    graph_to_json,
    reachable,
    schema_graph,
    to_dot,
    unfold_helper,
)
from ddlite.kernel import Atom, Num, PredKey, Program, Rule
from ddlite.syntax import parse_program
from ddlite.xmlterm import parse_xml

from oracles import on_cycle, pdg_from_rpg, random_program

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_program(name):
    return parse_program((FIXTURES / name).read_text(encoding="utf-8"), name)


def key(text):
    name, _, arity = text.partition("/")
    return PredKey(None, name, int(arity))


def edge_ids(g):
    return {(e.src.id, e.dst.id, e.mark) for e in g.edges}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_pdg_of_single_goal_rules_equals_pdg_of_conjunction():
    g1 = build_pdg(fixture_program("p1.dl"))
    g2 = build_pdg(fixture_program("p2.dl"))
    assert g1 == g2
    assert edge_ids(g1) == {("p/0", "q1/0", PLAIN), ("p/0", "q2/0", PLAIN)}


def test_rpg_distinguishes_rule_structure():
    g1 = build_rpg(fixture_program("p1.dl"))
    g2 = build_rpg(fixture_program("p2.dl"))
    assert g1 != g2
    assert {n.id for n in g1.nodes if isinstance(n, RuleNode)} == {"r1", "r2"}
    assert {n.id for n in g2.nodes if isinstance(n, RuleNode)} == {"r1"}


def test_builtin_calls_produce_no_edges():
    g = build_pdg(fixture_program("route.dl"))
    assert {n.id for n in g.nodes} == {"route/4", "street/4"}
    assert edge_ids(g) == {
        ("route/4", "street/4", PLAIN),
        ("route/4", "route/4", PLAIN),
    }


def test_negation_marks_the_edge():
    g = build_pdg(parse_program("p(X) :- q(X), not(r(X))."))
    assert ("p/1", "r/1", NOT) in edge_ids(g)
    assert ("p/1", "q/1", PLAIN) in edge_ids(g)


def test_a_negated_builtin_call_draws_nothing_as_a_positive_one():
    text = "p(X) :- q(X), {}prolog:same_as(X, a), not true, !."
    for sign in ("", "not "):
        p = parse_program(text.format(sign))
        assert edge_ids(build_pdg(p)) == {("p/1", "q/1", PLAIN)}
        rpg = build_rpg(p)
        assert {n.id for n in rpg.nodes} == {"p/1", "q/1", "r1"}
        assert pdg_from_rpg(rpg) == build_pdg(p)
        plain = parse_program("p(X) :- q(X).")
        assert graph_diff(rpg, build_rpg(plain)).is_empty()


def test_a_negated_builtin_call_does_not_lift_a_stratum():
    p = parse_program("n(1). n(3).\nsmall(X) :- n(X), not prolog:(X > 2).")
    assert stratify(p).assignment == {key("n/1"): 0, key("small/1"): 0}
    (small,) = evaluate(p).facts(key("small/1"))
    assert small.args == (Num(1),)


def test_rpg_meta_call_nodes_for_ancestor():
    g = build_rpg(fixture_program("ancestor.dl"))
    metas = {n.id: n for n in g.nodes if isinstance(n, MetaCallNode)}
    assert set(metas) == {"not/1#1", "findall/3#2"}
    findall_targets = {
        e.dst.id for e in g.edges if e.src.id == "findall/3#2"
    }
    assert findall_targets == {"parent/2", "ancestor_list/2"}
    not_targets = {e.dst.id for e in g.edges if e.src.id == "not/1#1"}
    assert not_targets == {"parent/2"}
    assert ("r1", "not/1#1", NOT) in edge_ids(g)
    assert ("r2", "append/2", PLAIN) in edge_ids(g)


def test_ancestor_list_lies_on_a_cycle():
    g = build_rpg(fixture_program("ancestor.dl"))
    assert on_cycle(g, PredNode(key("ancestor_list/2")))
    assert not on_cycle(g, PredNode(key("parent/2")))


def test_meta_positions_scan_conjunctions_only_at_listed_arguments():
    p = parse_program("p(Xs) :- findall(X, (q(X), r(X)), Xs), s(Xs).")
    g = build_pdg(p)
    assert edge_ids(g) == {
        ("p/1", "q/1", PLAIN),
        ("p/1", "r/1", PLAIN),
        ("p/1", "s/1", PLAIN),
    }


def test_inner_goals_keep_left_to_right_order_through_nesting():
    p = parse_program("p :- findall(X, ((a, (b, c)), d, (e, f)), L).")
    g = build_rpg(p)
    call = [e.dst.id for e in g.edges if e.src.id == "findall/3#1"]
    assert call == ["a/0", "b/0", "c/0", "d/0", "e/0", "f/0"]


def test_direct_recursion_is_a_self_edge():
    g = build_pdg(parse_program("p(X) :- p(X)."))
    assert edge_ids(g) == {("p/1", "p/1", PLAIN)}
    assert on_cycle(g, PredNode(key("p/1")))


# ---------------------------------------------------------------------------
# contraction invariant
# ---------------------------------------------------------------------------


def test_pdg_from_rpg_equals_build_pdg_on_fixtures():
    for name in ("p1.dl", "p2.dl", "route.dl", "ancestor.dl", "h1.dl", "uncle.dl"):
        p = fixture_program(name)
        assert pdg_from_rpg(build_rpg(p)) == build_pdg(p), name


def test_pdg_from_rpg_equals_build_pdg_on_random_programs():
    rng = random.Random(401)
    for _ in range(60):
        p = random_program(rng, allow_negation=True)
        assert pdg_from_rpg(build_rpg(p)) == build_pdg(p)


def test_pdg_from_rpg_rejects_other_kinds():
    with pytest.raises(GraphKindError):
        pdg_from_rpg(build_pdg(fixture_program("p1.dl")))


def test_not_mark_survives_contraction():
    g = pdg_from_rpg(build_rpg(parse_program("p(X) :- q(X), not(r(X)).")))
    assert ("p/1", "r/1", NOT) in edge_ids(g)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def test_reachable_excludes_start():
    g = build_pdg(fixture_program("p1.dl"))
    assert reachable(g, PredNode(key("p/0"))) == {
        PredNode(key("q1/0")),
        PredNode(key("q2/0")),
    }


def test_reachable_through_helper_chain():
    g = build_pdg(fixture_program("h1.dl"))
    got = {n.key for n in reachable(g, PredNode(key("a/0")))}
    assert got == {key("b/0"), key("h/0"), key("c/0"), key("d/0")}


def test_reachable_on_rpg_reports_predicates_only():
    g = build_rpg(fixture_program("h1.dl"))
    got = reachable(g, PredNode(key("a/0")))
    assert all(isinstance(n, PredNode) for n in got)
    assert {n.key for n in got} == {key("b/0"), key("h/0"), key("c/0"), key("d/0")}


def test_reachable_unknown_node():
    g = build_pdg(fixture_program("p1.dl"))
    with pytest.raises(NodeNotFound):
        reachable(g, PredNode(key("zzz/0")))


def test_isolated_node_reaches_nothing():
    g = build_pdg(fixture_program("p1.dl"))
    assert reachable(g, PredNode(key("q1/0"))) == frozenset()


# ---------------------------------------------------------------------------
# unfolding and helper equivalence
# ---------------------------------------------------------------------------


def test_unfold_helper_ground_case():
    h1 = fixture_program("h1.dl")
    r3 = unfold_helper(h1.rules[0], h1.rules[1], 2)
    assert r3.name == "r1+r2"
    expected = fixture_program("h2.dl").rules[0]
    assert r3.head == expected.head
    assert tuple(l.atom for l in r3.body) == tuple(l.atom for l in expected.body)


def test_unfold_helper_applies_the_unifier():
    p = parse_program("p(X) :- q(X).\nq(a).")
    r = unfold_helper(p.rules[0], p.rules[1], 1)
    assert str(r.head) == str(parse_program("p(a).").rules[0].head)
    assert not r.body


def test_unfold_helper_bad_index_and_polarity():
    p = parse_program("p(X) :- q(X), not(r(X)), prolog:(X > 1).\nq(a).")
    with pytest.raises(NodeNotFound):
        unfold_helper(p.rules[0], p.rules[1], 9)
    with pytest.raises(NegatedLiteralError):
        unfold_helper(p.rules[0], p.rules[1], 2)
    with pytest.raises(BuiltinLiteralError):
        unfold_helper(p.rules[0], p.rules[1], 3)


def test_unfold_helper_not_unifiable():
    p = parse_program("p(X) :- q(X, X).\nq(a, b).")
    with pytest.raises(NotUnifiableError):
        unfold_helper(p.rules[0], p.rules[1], 1)


def test_unfold_is_capture_avoiding():
    p = parse_program("p(X) :- q(X).\nq(f(X)) :- r(X).")
    r = unfold_helper(p.rules[0], p.rules[1], 1)
    body_atom = r.body[0].atom
    head_arg = r.head.args[0]
    assert head_arg.functor == "f"
    assert head_arg.args == body_atom.args


def test_equivalent_modulo_helpers_cases():
    h1, h2 = fixture_program("h1.dl"), fixture_program("h2.dl")
    assert equivalent_modulo_helpers(h1, h2, key("a/0"), frozenset({key("h/0")}))
    assert not equivalent_modulo_helpers(
        parse_program("a :- b."),
        parse_program("a :- c."),
        key("a/0"),
        frozenset(),
    )
    assert equivalent_modulo_helpers(h1, h1, key("a/0"), frozenset())
    with pytest.raises(NodeNotFound):
        equivalent_modulo_helpers(h1, h2, key("zzz/0"), frozenset())


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------


def test_graph_diff_identity_is_empty():
    g = build_rpg(fixture_program("route.dl"))
    assert graph_diff(g, g).is_empty()


def test_graph_diff_ignores_clause_reordering():
    a = parse_program("p :- q1.\np :- q2, not(q3).")
    b = parse_program("p :- q2, not(q3).\np :- q1.")
    assert graph_diff(build_rpg(a), build_rpg(b)).is_empty()


def test_graph_diff_ignores_body_reordering_with_meta_calls():
    a = parse_program("p(Xs) :- q(X), findall(Y, r(Y), Xs).")
    b = parse_program("p(Xs) :- findall(Y, r(Y), Xs), q(X).")
    assert graph_diff(build_rpg(a), build_rpg(b)).is_empty()


def test_graph_diff_p1_p2_rpg_report():
    d = graph_diff(
        build_rpg(fixture_program("p1.dl")), build_rpg(fixture_program("p2.dl"))
    )
    assert [n.id for n in d.nodes_only_left] == ["r2"]
    assert not d.nodes_only_right
    left_edges = {(e.src.id, e.dst.id) for e in d.edges_only_left}
    assert left_edges == {("p/0", "r2"), ("r2", "q2/0")}
    right_edges = {(e.src.id, e.dst.id) for e in d.edges_only_right}
    assert right_edges == {("r1", "q2/0")}


def test_graph_diff_pdg_p1_p2_empty():
    d = graph_diff(
        build_pdg(fixture_program("p1.dl")), build_pdg(fixture_program("p2.dl"))
    )
    assert d.is_empty()


def test_graph_diff_kind_mismatch():
    p = fixture_program("p1.dl")
    with pytest.raises(GraphKindError):
        graph_diff(build_pdg(p), build_rpg(p))


def test_graph_diff_helpers_show_unfolding_residue():
    d = graph_diff(
        build_rpg(fixture_program("h1.dl")),
        build_rpg(fixture_program("h2.dl")),
        frozenset({key("h/0")}),
    )
    assert not d.nodes_only_left and not d.nodes_only_right
    assert not d.edges_only_left
    assert {(e.src.id, e.dst.id) for e in d.edges_only_right} == {
        ("r3", "c/0"),
        ("r3", "d/0"),
    }
    assert d.equivalent_modulo == frozenset({key("h/0")})


def test_rpg_diff_against_a_rule_shuffled_copy_is_empty():
    rng = random.Random(404)
    for _ in range(200):
        p = random_program(rng, allow_negation=True)
        rules = list(p.rules)
        rng.shuffle(rules)
        shuffled = Program(tuple(rules))
        assert graph_diff(build_rpg(p), build_rpg(shuffled)).is_empty()


def diff_lines(left, right):
    d = graph_diff(build_rpg(parse_program(left)), build_rpg(parse_program(right)))
    return [
        f"{side}: {n.id}"
        for side, nodes in (("left", d.nodes_only_left), ("right", d.nodes_only_right))
        for n in nodes
    ] + [
        f"{side}: {e.src.id} -> {e.dst.id}"
        for side, edges in (("left", d.edges_only_left), ("right", d.edges_only_right))
        for e in edges
    ]


def test_a_rule_inserted_first_is_the_only_difference():
    v1 = "".join(f"p{i}(X) :- q{i}(X).\n" for i in range(1, 6))
    v2 = "a0(X) :- b0(X).\n" + v1
    assert diff_lines(v1, v2) == [
        "right: a0/1",
        "right: b0/1",
        "right: r1",
        "right: a0/1 -> r1",
        "right: r1 -> b0/1",
    ]
    assert diff_lines(v2, v1) == [
        "left: a0/1",
        "left: b0/1",
        "left: r1",
        "left: a0/1 -> r1",
        "left: r1 -> b0/1",
    ]


def test_a_changed_body_literal_reports_only_its_edges():
    assert diff_lines("p1(X) :- q1(X), s(X).", "p1(X) :- q1(X), t(X).") == [
        "left: s/1",
        "right: t/1",
        "left: r1 -> s/1",
        "right: r1 -> t/1",
    ]


def test_a_changed_rule_pairs_with_the_leftover_under_its_head():
    # p :- b and q :- a pair by shape; the changed rule pairs with the one
    # rule left under p, its not/1 call too, so only one edge differs
    left = "p :- a, not(c).\np :- b.\nq :- a."
    right = "q :- a.\np :- d, not(c).\np :- b."
    assert diff_lines(left, right) == [
        "right: d/0",
        "left: r1 -> a/0",
        "right: r2 -> d/0",
    ]


def test_leftover_rules_under_one_head_pair_in_written_order():
    # both rules changed c to d; pairing r1 with r2 would report only the
    # c and d edges, but leftovers pair by rank, so each rule's a and b
    # edges show too: the report is not always the smallest one
    left = "p :- a, c.\np :- b, c."
    right = "p :- b, d.\np :- a, d."
    assert diff_lines(left, right) == [
        "left: c/0",
        "right: d/0",
        "left: r1 -> a/0",
        "left: r1 -> c/0",
        "left: r2 -> b/0",
        "left: r2 -> c/0",
        "right: r1 -> b/0",
        "right: r1 -> d/0",
        "right: r2 -> a/0",
        "right: r2 -> d/0",
    ]


def test_rpg_diff_reports_exactly_the_deleted_and_inserted_rules():
    # delete k rules, insert k rules under fresh heads, then shuffle: the
    # report holds the deleted rules on the left and the inserted ones on
    # the right, each under its own name, plus the predicates that one side
    # lacks.  Only a rule that no other rule matches in head and body
    # literals is deleted: two such rules draw the same RPG, and the diff
    # may name either.
    def looks(r):
        return (r.head.key, frozenset((l.atom.key, l.is_negated()) for l in r.body))

    rng = random.Random(421)
    for _ in range(200):
        rules = list(random_program(rng, allow_negation=True).rules)
        counts = Counter(looks(r) for r in rules)
        unique = [r for r in rules if counts[looks(r)] == 1]
        deleted = rng.sample(unique, min(rng.randint(1, 3), len(unique)))
        inserted = [
            Rule(f"new{i}", Atom(f"fresh{i}", r.head.args), r.body)
            for i, r in enumerate(rng.choices(rules, k=len(deleted)))
        ]
        right = [r for r in rules if r not in deleted] + inserted
        rng.shuffle(right)
        g1, g2 = build_rpg(Program(tuple(rules))), build_rpg(Program(tuple(right)))
        d = graph_diff(g1, g2)
        for g, other, changed, nodes, edges in (
            (g1, g2, deleted, d.nodes_only_left, d.edges_only_left),
            (g2, g1, inserted, d.nodes_only_right, d.edges_only_right),
        ):
            own = {RuleNode(r.name) for r in changed}
            own |= {
                m for n in own for m in g.successors(n) if isinstance(m, MetaCallNode)
            }
            preds = {n for n in g.nodes if isinstance(n, PredNode)} - set(other.nodes)
            assert set(nodes) == own | preds
            assert len(nodes) == len(own | preds)
            assert set(edges) == {e for e in g.edges if e.src in own or e.dst in own}
            assert len(edges) == len(set(edges))


def swrl_shaped_rules(rng, n):
    """(head, body literals) of n rules like the generated SWRL rule bases:
    two chained properties, sometimes a class test, a negated class test
    or a findall over a property and a class."""
    props = [f"prop{i}" for i in range(n // 3)]
    classes = [f"cls{i}" for i in range(n // 20)]
    rules = []
    for _ in range(n):
        body = [f"{rng.choice(props)}(X, Y)", f"{rng.choice(props)}(Y, Z)"]
        if rng.random() < 0.3:
            body.append(f"{rng.choice(classes)}(X)")
        if rng.random() < 0.1:
            body.append(f"not {rng.choice(classes)}(Z)")
        if rng.random() < 0.1:
            body.append(
                f"findall(W, ({rng.choice(props)}(X, W), {rng.choice(classes)}(W)), L)"
            )
        rules.append((rng.choice(props), body))
    return rules


def test_rpg_diff_of_a_large_shuffled_rule_base_is_empty_and_fast():
    rng = random.Random(2000)
    rules = swrl_shaped_rules(rng, 2000)
    shuffled = [(head, rng.sample(body, len(body))) for head, body in rules]
    rng.shuffle(shuffled)

    def text(rules):
        return "".join(f"{h}(X, Z) :- {', '.join(body)}.\n" for h, body in rules)

    p1, p2 = parse_program(text(rules)), parse_program(text(shuffled))
    t0 = time.perf_counter()
    d = graph_diff(build_rpg(p1), build_rpg(p2))
    elapsed = time.perf_counter() - t0
    assert d.is_empty()
    # keying reads each rule's own edges through the adjacency, and the
    # diff is dict lookups; a rescan of the edge list per rule took about
    # 20 s here
    assert elapsed < 3.0, f"rpg diff of 2,000 rules took {elapsed:.2f} s"


def test_adjacency_lists_edges_per_node_in_edge_order():
    g = build_rpg(parse_program("p(X) :- q(X), not(r(X)).\np(X) :- r(X)."))
    out, into = g.adjacency
    assert set(out) == set(into) == set(g.nodes)
    assert out[PredNode(key("p/1"))] == [
        e for e in g.edges if e.src == PredNode(key("p/1"))
    ]
    assert [e.src.id for e in into[PredNode(key("r/1"))]] == ["not/1#1", "r2"]
    assert g.successors(RuleNode("r1")) == [
        PredNode(key("q/1")),
        MetaCallNode(key("not/1"), 1),
    ]


def _pred_nodes_made(monkeypatch, run):
    """The keys of the PredNodes that run() constructs, in order."""
    made = []
    init = PredNode.__init__

    def counted(self, key):
        made.append(key)
        init(self, key)

    monkeypatch.setattr(PredNode, "__init__", counted)
    run()
    return made


def test_a_build_and_stratify_make_one_pred_node_per_predicate(monkeypatch):
    # 70 rules over k = 19 predicates (g0-g9, f0-f6, h and the negated e),
    # with a fact and a findall call, whose key no edge joins; each build
    # and stratify make one node per predicate, not one per literal
    n = 70
    p = parse_program(
        "".join(f"g{i % 10}(X) :- f{i % 7}(X), h(X), not e(X).\n" for i in range(n))
        + "h(a).\ng0(X) :- findall(Y, f0(Y), X).\n"
    )
    k = 19
    for run in (lambda: build_pdg(p), lambda: build_rpg(p), lambda: stratify(p)):
        made = _pred_nodes_made(monkeypatch, run)
        assert len(made) == len(set(made)) == k


# ---------------------------------------------------------------------------
# schema graphs
# ---------------------------------------------------------------------------


def load_fixture_xml(name):
    return parse_xml((FIXTURES / name).read_text(encoding="utf-8"), name)


def test_schema_graph_works_on():
    g = schema_graph(load_fixture_xml("works_on.xml"))
    assert g.kind == SCHEMA
    assert edge_ids(g) == {
        ("table", "row", PLAIN),
        ("table", "@name", PLAIN),
        ("row", "@ESSN", PLAIN),
        ("row", "@PNO", PLAIN),
        ("row", "@HOURS", PLAIN),
    }


def test_schema_graph_without_attributes():
    g = schema_graph(load_fixture_xml("works_on.xml"), include_attrs=False)
    assert edge_ids(g) == {("table", "row", PLAIN)}


def test_schema_graph_people_ontology():
    g = schema_graph(load_fixture_xml("people.xml"), include_attrs=False)
    ids = edge_ids(g)
    assert ("swrlx:Ontology", "swrlx:classAtom", PLAIN) in ids
    assert ("swrlx:classAtom", "owlx:Class", PLAIN) in ids
    assert ("swrlx:classAtom", "ruleml:var", PLAIN) in ids
    assert ("owlx:IntersectionOf", "owlx:ObjectRestriction", PLAIN) in ids


def test_schema_graph_deduplicates_repeated_children():
    g = schema_graph(parse_xml("<a><b/><b/><b><c/></b></a>"))
    assert edge_ids(g) == {("a", "b", PLAIN), ("b", "c", PLAIN)}


def test_schema_graph_single_element():
    g = schema_graph(parse_xml("<only/>"))
    assert {n.id for n in g.nodes} == {"only"}
    assert not g.edges


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_to_dot_shapes_and_not_label():
    g = build_rpg(parse_program("p(X) :- q(X), not(r(X))."))
    dot = to_dot(g)
    assert '"p/1" [shape=ellipse];' in dot
    assert '"r1" [shape=box];' in dot
    assert 'shape=plaintext, label="not/1"' in dot
    assert '[label="not"]' in dot


def test_to_dot_deterministic():
    p = fixture_program("ancestor.dl")
    assert to_dot(build_rpg(p)) == to_dot(build_rpg(p))


def test_to_dot_escapes_quotes():
    g = schema_graph(parse_xml("<a><b/></a>"))
    assert to_dot(g).count('"a"') >= 1


def test_graph_to_json_stable_shape():
    data = graph_to_json(build_pdg(fixture_program("p1.dl")))
    assert data["kind"] == PDG
    assert data["nodes"] == [
        {"id": "p/0", "type": "pred"},
        {"id": "q1/0", "type": "pred"},
        {"id": "q2/0", "type": "pred"},
    ]
    assert data["edges"][0] == {"from": "p/0", "to": "q1/0", "mark": "plain"}


def test_diff_to_json_lists_all_four_sets():
    d = graph_diff(
        build_rpg(fixture_program("p1.dl")), build_rpg(fixture_program("p2.dl"))
    )
    data = diff_to_json(d)
    assert [n["id"] for n in data["nodes_only_left"]] == ["r2"]
    assert data["nodes_only_right"] == []
    assert len(data["edges_only_left"]) == 2
    assert len(data["edges_only_right"]) == 1
