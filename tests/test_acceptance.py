"""Acceptance gate: one test per release criterion, one verdict line each.

Every test here re-checks an end-to-end behavior the package promises,
at desk scale, against fixtures or independent oracles.  Each prints a
single "criterion N: PASS/FAIL - ..." line so a plain pytest run doubles
as a release checklist.
"""

import json
import math
import random
import re
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ddlite.cli import main
from ddlite.engine import (
    auto_pt,
    evaluate,
    render_proof_tree,
    tree_of,
    validate_store,
)
from ddlite.graphs import (
    MetaCallNode,
    PredNode,
    build_pdg,
    build_rpg,
    equivalent_modulo_helpers,
    graph_diff,
    unfold_helper,
)
from ddlite.kernel import PredKey, Program, apply, mgu, term_text
from ddlite.syntax import (
    lloyd_topor,
    parse_program,
    parse_ruleml_xml,
    parse_swrl,
    print_program,
    swrl_to_datalog,
)

from naive import evaluate_naive
from oracles import (
    ground_model,
    model_of_store,
    on_cycle,
    random_program,
    random_term,
    sum_hours_by_dept,
)

FIXTURES = Path(__file__).parent / "fixtures"

HOURS_GOAL = (
    "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
    "R := doc('works_on.xml')/row::[@'ESSN' = SSN]@'HOURS', "
    "atom_number(R, H)"
)

# the route/street program's longest derived atom, rendered for display
# (proof tree as the 4th argument, side conditions and quotes stripped)
ROUTE_ATOM_LISTING = (
    "route(KT, Mue, 295, "
    "t(route(KT, Mue, 295), r, "
    "t(street(KT, Wue, 15), f1), "
    "t(route(Wue, Mue, 280), e, "
    "t(street(Wue, Mue, 280), f2))))"
)


def fx(name):
    return str(FIXTURES / name)


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_program(name):
    return parse_program(fixture_text(name), name)


def combined(*chunks):
    return parse_program("\n".join(chunks))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pred(name, arity):
    return PredKey(None, name, arity)


@pytest.fixture
def gate(request, capsys):
    """Prints the criterion verdict line once the test body has run."""
    holder = {"text": ""}
    yield lambda text: holder.__setitem__("text", text)
    num = re.search(r"criterion_(\d+)", request.node.name).group(1)
    report = getattr(request.node, "rep_call", None)
    verdict = "PASS" if report is not None and report.passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num}: {verdict} - {holder['text']}")


# ===========================================================================
# 1. Rule-structure discrimination: the PDG cannot tell one conjunctive
#    rule from two single-goal rules, the RPG can.
# ===========================================================================


def test_criterion_1_pdg_blind_rpg_sees_rule_structure(gate, capsys):
    gate("pdg diff empty, rpg diff nonempty for the p/q programs")
    t0 = time.perf_counter()
    p1 = fixture_program("p1.dl")
    p2 = fixture_program("p2.dl")
    assert graph_diff(build_pdg(p1), build_pdg(p2)).is_empty()
    assert not graph_diff(build_rpg(p1), build_rpg(p2)).is_empty()

    code, out, _ = run_cli(capsys, "diff", fx("p1.dl"), fx("p2.dl"),
                           "--kind", "pdg")
    assert code == 0 and out == "no differences\n"
    code, out, _ = run_cli(capsys, "diff", fx("p1.dl"), fx("p2.dl"),
                           "--kind", "rpg")
    assert code == 0 and "only in" in out
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 2. Route proof tree: 5 facts, and the 295-route atom displays exactly
#    as the known listing once whitespace is normalized.
# ===========================================================================


def test_criterion_2_route_proof_tree_listing(gate):
    gate("5 facts; the 295-route atom renders as the reference listing")
    t0 = time.perf_counter()
    store = evaluate(fixture_program("route.dl"))
    facts = store.sorted_facts()
    assert len(facts) == 5

    (fact,) = [
        f for f in facts
        if f.key == pred("route", 4)
        and [term_text(a, quoted=False) for a in f.args[:3]] == ["KT", "Mue", "295"]
    ]
    args = ", ".join(term_text(a, quoted=False) for a in fact.args[:3])
    tree = render_proof_tree(tree_of(fact), "term")
    rendered = f"route({args}, {tree})"
    assert rendered == " ".join(ROUTE_ATOM_LISTING.split())
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 3. Meta-predicate recursion: the findall call node exposes the inner
#    goals, putting ancestor_list/2 on a visible cycle.
# ===========================================================================


def test_criterion_3_findall_call_node_and_cycle(gate):
    gate("findall call node reaches parent/2 and ancestor_list/2; cycle")
    t0 = time.perf_counter()
    g = build_rpg(fixture_program("ancestor.dl"))
    calls = [
        n for n in g.nodes
        if isinstance(n, MetaCallNode) and n.key == pred("findall", 3)
    ]
    assert len(calls) == 1
    successors = set(g.successors(calls[0]))
    assert PredNode(pred("parent", 2)) in successors
    assert PredNode(pred("ancestor_list", 2)) in successors
    assert on_cycle(g, PredNode(pred("ancestor_list", 2)))
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 4. Helper-rule equivalence: reachability modulo the helper, and
#    unfolding the helper call reproduces the direct rule.
# ===========================================================================


def test_criterion_4_helper_unfolding(gate):
    gate("reachable sets equal modulo h; unfold(r1, r2, 2) gives r3")
    t0 = time.perf_counter()
    with_helper = fixture_program("h1.dl")
    direct = fixture_program("h2.dl")
    assert equivalent_modulo_helpers(
        with_helper, direct, pred("a", 0), frozenset({pred("h", 0)})
    )
    r1, r2 = with_helper.rules
    (r3,) = direct.rules
    unfolded = unfold_helper(r1, r2, 2)
    assert term_text(unfolded.head) == term_text(r3.head)
    assert [term_text(l.atom) for l in unfolded.body] \
        == [term_text(l.atom) for l in r3.body]
    assert all(not l.is_negated() for l in unfolded.body)
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 5. Rule-interchange round trip: abstract syntax and XML forms of the
#    uncle rule translate identically and derive uncle(a, c).
# ===========================================================================


def test_criterion_5_swrl_round_trip(gate):
    gate("text and XML forms agree; uncle(a, c) derived; oracle match")
    t0 = time.perf_counter()
    from_text = swrl_to_datalog(
        [r for rule in parse_swrl(fixture_text("uncle.swrl"))
         for r in lloyd_topor(rule)]
    )
    from_xml = swrl_to_datalog(
        [r for rule in parse_ruleml_xml(fixture_text("uncle.xml")).rules
         for r in lloyd_topor(rule)]
    )
    assert print_program(from_text) == print_program(from_xml)

    program = combined(print_program(from_text),
                       "parent(a, b).\nbrother(b, c).")
    model = model_of_store(evaluate(program))
    assert "uncle(a, c)" in model
    assert model == ground_model(program)
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 6. Conjunctive-consequent splitting: the provenance rule becomes 4
#    rules whose derived facts share one skolem individual.
# ===========================================================================


def test_criterion_6_provenance_rule_split(gate):
    gate("4 split rules; 4 derived facts share one skolem; oracle match")
    t0 = time.perf_counter()
    split = [
        r for rule in parse_swrl(fixture_text("opm.swrl"))
        for r in lloyd_topor(rule)
    ]
    assert len(split) == 4

    program = combined(fixture_text("opm_facts.dl"),
                       print_program(swrl_to_datalog(split)))
    store = evaluate(program)
    derived = [f for f in store.sorted_facts()
               if f.predicate.startswith("derived_")]
    assert sorted(f.predicate for f in derived) \
        == ["derived_account", "derived_account", "derived_sink",
            "derived_source"]
    skolems = {term_text(f.args[0]) for f in derived}
    assert len(skolems) == 1 and next(iter(skolems)).startswith("skolem(")
    assert model_of_store(store) == ground_model(program)
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 7. Hybrid aggregation: csv x xml join grouped by department, summed
#    hours against a nested-loop fsum oracle; NULL hours join nothing.
# ===========================================================================


def test_criterion_7_hours_by_department(gate, capsys):
    gate("grouped sums match the nested-loop oracle; NULLs contribute 0 rows")
    t0 = time.perf_counter()
    base = [
        "query",
        "--csv", f"employee={fx('employee.csv')}",
        "--goal", HOURS_GOAL,
        "--base-dir", str(FIXTURES),
        "--format", "json",
    ]
    code, out, _ = run_cli(capsys, *base, "--template", "[D, sum(H)]")
    assert code == 0
    rows = json.loads(out)
    expected = sum_hours_by_dept(fx("employee.csv"), fx("works_on.xml"))
    assert [r[0] for r in rows] == [e[0] for e in expected]
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    for (_, got), (_, want) in zip(rows, expected):
        assert math.isclose(got, want, rel_tol=1e-9)

    # the document has 7 rows, 2 with HOURS="NULL"; only the other 5
    # reach any group
    doc_rows = ET.parse(fx("works_on.xml")).getroot().findall("row")
    assert len(doc_rows) == 7
    assert sum(1 for r in doc_rows if r.get("HOURS") == "NULL") == 2
    code, out, _ = run_cli(capsys, *base, "--template", "[D, count(H)]")
    assert code == 0
    assert sum(n for _, n in json.loads(out)) == 5
    assert time.perf_counter() - t0 < 1.0


# ===========================================================================
# 8. Engine properties on pinned-seed random instances.
# ===========================================================================


def test_criterion_8_engine_properties(gate):
    gate("200 fixpoints, 1000 unifier pairs, replay, rule-order freedom")
    t0 = time.perf_counter()

    rng = random.Random(20260819)
    for i in range(200):
        program = random_program(rng, allow_negation=(i % 2 == 1))
        model = model_of_store(evaluate(program))
        assert model == model_of_store(evaluate_naive(program))
        assert model == ground_model(program)
        if i % 4 == 0:
            order = list(program.rules)
            rng.shuffle(order)
            shuffled = Program(tuple(order))
            assert model_of_store(evaluate(shuffled)) == model

    trng = random.Random(41)
    unified = 0
    for _ in range(1000):
        a, b = random_term(trng), random_term(trng)
        s = mgu(a, b)
        assert (s is None) == (mgu(b, a) is None)
        if s is None:
            continue
        unified += 1
        left, right = apply(s, a), apply(s, b)
        assert left == right
        assert apply(s, left) == left
    assert unified >= 100

    prng = random.Random(7)
    for _ in range(30):
        program = auto_pt(random_program(prng))
        store = evaluate(program)
        assert store.sorted_facts()
        assert validate_store(program, store) == []

    assert time.perf_counter() - t0 < 30.0


def _auto_pt_chain(n):
    return auto_pt(parse_program(
        "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(n))
        + "path(X, Y) :- edge(X, Y).\n"
        + "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
    ))


def test_auto_pt_chain_closure_evaluates_and_replays_in_time():
    # every fact carries its proof tree, so trees share subtrees and nest
    # up to n deep.  With term walks that rebuilt and rehashed ground
    # subterms, evaluation at n = 100 took about 17.7 s and replay at
    # n = 50 about 15.4 s on a 2-vCPU x86-64 VM (Python 3.11); with ground
    # terms interned, about 0.5 s and 0.6 s.
    program = _auto_pt_chain(100)
    t0 = time.perf_counter()
    store = evaluate(program)
    assert time.perf_counter() - t0 < 3.0
    assert len(store) == 100 + 100 * 101 // 2

    program = _auto_pt_chain(50)
    store = evaluate(program)
    t0 = time.perf_counter()
    assert validate_store(program, store) == []
    assert time.perf_counter() - t0 < 3.0


# ===========================================================================
# 9. Determinism: every subcommand prints byte-identical output across
#    two consecutive runs over the fixture corpus.
# ===========================================================================


def test_criterion_9_cli_determinism(gate, capsys):
    gate("all 7 subcommands byte-identical across repeated runs")
    t0 = time.perf_counter()
    cases = [
        ("parse", fx("route.dl")),
        ("parse", fx("uncle.dl")),
        ("graph", fx("p1.dl")),
        ("graph", fx("route.dl"), "--format", "json"),
        ("graph", fx("ancestor.dl"), "--kind", "rpg", "--format", "json"),
        ("graph", fx("ancestor.dl"), "--kind", "rpg", "--format", "dot"),
        ("graph", fx("works_on.xml"), "--kind", "schema", "--format", "dot"),
        ("graph", fx("people.xml"), "--kind", "schema", "--format", "json"),
        ("diff", fx("p1.dl"), fx("p2.dl"), "--kind", "rpg",
         "--format", "json"),
        ("diff", fx("h1.dl"), fx("h2.dl"), "--kind", "rpg",
         "--helpers", "h", "--format", "json"),
        ("eval", fx("route.dl"), "--format", "json"),
        ("eval", fx("route_plain.dl"), "--auto-pt"),
        ("eval", fx("uncle.dl"),
         "--csv", f"parent={fx('parent.csv')}",
         "--csv", f"brother={fx('brother.csv')}"),
        ("swrl", fx("uncle.swrl")),
        ("swrl", fx("uncle.xml")),
        ("swrl", fx("opm.swrl")),
        ("swrl", fx("opm.swrl"), "--emit", "report"),
        ("query",
         "--csv", f"employee={fx('employee.csv')}",
         "--goal", HOURS_GOAL,
         "--template", "[D, sum(H)]",
         "--base-dir", str(FIXTURES),
         "--format", "json"),
        ("query", fx("route.dl"),
         "--goal", "route('KT', 'Mue', L, T)", "--template", "[L]"),
        ("prove", fx("route.dl"),
         "--atom", "route('KT', 'Mue', L, T)"),
        ("prove", fx("route.dl"),
         "--atom", "route('KT', 'Mue', L, T)", "--format", "ascii"),
        ("prove", fx("route.dl"),
         "--atom", "route('KT', 'Mue', L, T)", "--format", "dot"),
    ]
    for argv in cases:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv
        assert first[0] == 0, argv
        assert first[1], argv
    assert time.perf_counter() - t0 < 10.0


def test_auto_pt_chain_replay_at_n_100_in_time():
    # replay compiles each rule once for the head-bound pattern, matches
    # body atoms one way and reads only a tree's root conclusion; before
    # that, replay at n = 100 (5,150 facts) took 3.5-4.9 s on a 2-vCPU
    # x86-64 VM (Python 3.11), and about 0.5 s after
    program = _auto_pt_chain(100)
    store = evaluate(program)
    t0 = time.perf_counter()
    assert validate_store(program, store) == []
    assert time.perf_counter() - t0 < 3.0
