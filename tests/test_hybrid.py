"""Path expressions, hybrid goals, grouped aggregation, CSV relations."""

import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlite.engine import FactStore, solve_body
from ddlite.errors import (
    EvalTypeError,
    NonNumericAggregate,
    NumericParseError,
    ParseError,
    PathError,
    RaggedRowError,
    TemplateVarUnbound,
    UnboundFilterError,
)
from ddlite.hybrid import (
    AggCol,
    AttrAccess,
    Child,
    Filter,
    GroupCol,
    PathBinding,
    PathExpr,
    XmlNode,
    _DocRegistry,
    ddbase_aggregate,
    load_facts_csv,
    load_xml,
    parse_goal,
    parse_template,
    path_eval,
    render_rows,
    rows_to_json,
    solve_goal,
)
from ddlite.kernel import (
    NEGATED,
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    Var,
    apply,
    sort_key,
    term_text,
)
from ddlite.xmlterm import XmlTerm, parse_xml

from oracles import scan_path_eval, sum_hours_by_dept

FIXTURES = Path(__file__).parent / "fixtures"
EMPLOYEE_CSV = str(FIXTURES / "employee.csv")
WORKS_ON_XML = str(FIXTURES / "works_on.xml")

HOURS_GOAL = (
    "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
    "R := doc('works_on.xml')/row::[@'ESSN' = SSN]@'HOURS', "
    "atom_number(R, H)"
)


def employee_store():
    store = FactStore()
    for fact in load_facts_csv(EMPLOYEE_CSV, "employee"):
        store.add(fact)
    return store


def works_on_docs():
    return {"works_on.xml": load_xml(WORKS_ON_XML)}


# ===========================================================================
# Documents and path evaluation
# ===========================================================================


def test_load_xml_and_node_identity():
    doc = load_xml(WORKS_ON_XML)
    assert doc.tag == "table"
    assert doc.attributes == {"name": "works_on"}
    rows = doc.child_elements()
    assert len(rows) == 7
    assert XmlNode(rows[0]) == XmlNode(rows[0])
    assert XmlNode(rows[0]) != XmlNode(rows[1])
    again = load_xml(WORKS_ON_XML)
    assert XmlNode(again.child_elements()[0]) != XmlNode(rows[0])


def test_path_eval_filter_narrows_to_one_row():
    doc = load_xml(WORKS_ON_XML)
    expr = PathExpr((Child("row"), Filter("ESSN", Const("22"))))
    hits = [hit for hit, _ in path_eval(doc, expr)]
    assert len(hits) == 1
    assert hits[0].attributes["PNO"] == "2"


def test_path_eval_filter_renders_numbers_like_attributes():
    doc = load_xml(WORKS_ON_XML)
    expr = PathExpr((Child("row"), Filter("ESSN", Num(22))))
    hits = path_eval(doc, expr)
    assert len(hits) == 1


def test_path_eval_filter_reads_the_environment():
    doc = load_xml(WORKS_ON_XML)
    expr = PathExpr((Child("row"), Filter("ESSN", Var("S"))))
    hits = path_eval(doc, expr, {"S": Num(33)})
    assert len(hits) == 1
    with pytest.raises(UnboundFilterError, match="S is unbound"):
        path_eval(doc, expr)


def test_path_eval_attribute_access():
    doc = load_xml(WORKS_ON_XML)
    expr = PathExpr((Child("row"), Filter("ESSN", Const("22")), AttrAccess("HOURS")))
    hits = [hit for hit, _ in path_eval(doc, expr)]
    assert hits == [Const("10.0")]


def test_path_eval_misses_are_empty_not_errors():
    doc = load_xml(WORKS_ON_XML)
    assert path_eval(doc, PathExpr((Child("row"), Filter("ESSN", Const("99"))))) == []
    assert path_eval(doc, PathExpr((Child("nosuch"),))) == []
    assert path_eval(doc, PathExpr((Child("row"), AttrAccess("NOPE")))) == []


def test_path_expr_rejects_attribute_access_mid_path():
    with pytest.raises(PathError, match="final step"):
        PathExpr((AttrAccess("ESSN"), Child("row")))


def test_path_expr_rejects_a_filter_that_follows_no_child():
    with pytest.raises(PathError, match="filter must follow a child step"):
        PathExpr((Filter("ESSN", Const("22")),))
    with pytest.raises(PathError, match="filter must follow a child step"):
        PathExpr((Child("row"), Filter("ESSN", Const("22")), Filter("PNO", Const("2"))))


# Attribute values repeat, look alike as numbers ("33" and "33.0") or are
# missing; text and comments sit between the children.
_VALUES = ("33", "33.0", "7", "2.5", "x")


def _random_element(rng, tag, depth, width):
    attrs = "".join(
        f' {name}="{rng.choice(_VALUES)}"'
        for name in ("ESSN", "PNO", "k")
        if rng.random() < 0.7
    )
    if depth == 0 or rng.random() < 0.2:
        return f"<{tag}{attrs}/>"
    inner = []
    for _ in range(rng.randrange(width)):
        if rng.random() < 0.2:
            inner.append(rng.choice(("text", " ", "a &amp; b", "<!-- c -->")))
        else:
            child = rng.choice(("row", "row", "cell", "note"))
            inner.append(_random_element(rng, child, depth - 1, 6))
    return f"<{tag}{attrs}>{''.join(inner)}</{tag}>"


def _random_paths(rng):
    filters = [Const(v) for v in _VALUES] + [
        Num(33), Num(33.0), Num(7), Num(2.5), Const("nope"), Var("S"),
    ]
    paths = []
    for _ in range(20):
        steps = []
        for _ in range(rng.randrange(1, 3)):
            steps.append(Child(rng.choice(("row", "row", "cell", "note", "nosuch"))))
            if rng.random() < 0.6:
                steps.append(Filter(rng.choice(("ESSN", "PNO", "k")), rng.choice(filters)))
        if rng.random() < 0.5:
            steps.append(AttrAccess(rng.choice(("ESSN", "PNO", "k", "nope"))))
        paths.append(PathExpr(tuple(steps)))
    return paths


def _terms(pairs):
    """Hits as terms: elements as XmlNodes, which compare by identity."""
    return [XmlNode(hit) if isinstance(hit, XmlTerm) else hit for hit, _ in pairs]


def test_indexed_path_eval_matches_the_scan_on_generated_documents():
    rng = random.Random(20170501)
    for _ in range(100):
        doc = parse_xml(_random_element(rng, "table", 3, 30))
        # one registry, so its index serves every path over the document
        registry = _DocRegistry({"d.xml": doc}, ".")
        for expr in _random_paths(rng):
            env = {"S": rng.choice((Num(33), Num(33.0), Const("x")))}
            want = _terms(scan_path_eval(doc, expr, env))
            assert _terms(path_eval(doc, expr, env)) == want
            # the binding as a one-item goal: a plan step compiled by the registry
            binding = PathBinding("X", "d.xml", None, expr)
            bound = solve_body((binding,), FactStore(), env, compile_item=registry.compile)
            assert [apply(s, Var("X")) for s in bound] == want


def test_paths_from_a_bound_node_keep_their_parents_apart():
    doc = parse_xml(
        '<table>'
        '<row ESSN="1"><cell k="33" v="a"/>t<cell k="7" v="b"/><cell k="33" v="c"/></row>'
        '<note/>'
        '<row ESSN="2"><cell k="33" v="d"/><cell v="e"/><cell k="33.0" v="f"/></row>'
        '</table>'
    )
    rows = doc.child_elements()
    cells = PathExpr((Child("cell"), Filter("k", Num(33)), AttrAccess("v")))
    for row in (rows[0], rows[2]):
        assert _terms(path_eval(row, cells)) == _terms(scan_path_eval(row, cells))
    answers = solve_goal(
        parse_goal("W := doc('d.xml')/row, X := W/cell::[@'k' = 33]@'v'"),
        None,
        FactStore(),
        docs={"d.xml": doc},
    )
    got = [(apply(s, Var("W")), apply(s, Var("X"))) for s in answers]
    want = [
        (XmlNode(row), value)
        for row, _ in scan_path_eval(doc, PathExpr((Child("row"),)))
        for value in _terms(scan_path_eval(row, cells))
    ]
    assert got == want
    assert [x for _, x in got] == [Const("a"), Const("c"), Const("d")]


# A goal built around one or two path bindings: an optional open term
# (same_as(O, f(Z))), relation literals that bind the filter variable S
# (k/1) and, before the last path, its target (v/1); the first path from the
# document, the second from the first one's node; then a negated literal.
_KEYS = (Const("33"), Const("7"), Const("x"), Num(33), Num(33.0), Num(7), Num(2.5))
_FILTERS = (None, None, None, Var("S"), Var("S")) + _KEYS[:6]
_ATTRS = st.sampled_from(("33", "7", "33", "x", "33.0", None))


def _element(tag, essn, pno, k, children=()):
    attrs = "".join(
        f' {name}="{value}"'
        for name, value in (("ESSN", essn), ("PNO", pno), ("k", k))
        if value is not None
    )
    return f"<{tag}{attrs}>{''.join(children)}</{tag}>"


_CHILD = st.builds(_element, st.sampled_from(("cell", "row")), _ATTRS, _ATTRS, _ATTRS)
_ROW = st.builds(_element, st.just("row"), _ATTRS, _ATTRS, _ATTRS, st.lists(_CHILD, max_size=4))
_DOCS = st.builds(lambda rows: parse_xml(f"<table>{''.join(rows)}</table>"),
                  st.lists(_ROW, min_size=2, max_size=6))


@st.composite
def _path_goals(draw):
    doc = draw(_DOCS)
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True))
    values = draw(st.lists(st.sampled_from(_KEYS[:4]), min_size=1, max_size=3, unique=True))
    bad = draw(st.lists(st.sampled_from(_KEYS), max_size=2, unique=True))
    open_term = draw(st.booleans())
    first = draw(st.sampled_from(("W", "W", "Z", "O") if open_term else ("W",)))
    filters = [draw(st.sampled_from(_FILTERS)) for _ in range(2)]
    second = draw(st.sampled_from((None, "cell", "row")))
    final = draw(st.sampled_from((None, "PNO", "k")))
    # the last path's target is bound by v/1 first, to a value it may read
    bound_target = final is not None and draw(st.booleans())
    negated = draw(st.booleans())

    def path(tag, value):
        return (Child(tag),) if value is None else (Child(tag), Filter("ESSN", value))

    items = []
    if open_term:
        o_term = Atom("same_as", (Var("O"), Compound("f", (Var("Z"),))), "prolog")
        items.append(Literal(o_term))
    if Var("S") in filters:
        items.append(Literal(Atom("k", (Var("S"),))))
    last = (AttrAccess(final),) if final else ()
    target = first if second is None else "X"
    if bound_target and second is None:
        items.append(Literal(Atom("v", (Var(target),))))
    steps = path("row", filters[0]) + (last if second is None else ())
    items.append(PathBinding(first, "d.xml", None, PathExpr(steps)))
    if second is not None:
        if bound_target:
            items.append(Literal(Atom("v", (Var(target),))))
        steps = path(second, filters[1]) + last
        items.append(PathBinding(target, None, first, PathExpr(steps)))
    if negated:
        items.append(Literal(Atom("bad", (Var(target),)), NEGATED))
    facts = [Atom("k", (v,)) for v in keys] + [Atom("v", (v,)) for v in values]
    facts += [Atom("bad", (v,)) for v in bad]
    return doc, items, facts


def _nested_loop_answers(doc, items, facts):
    """The goal's answers by a nested-loop join in written order: facts in
    sort_key order, path hits as scan_path_eval finds them."""

    def value(env, name):
        return apply(env, apply(env, Var(name)))  # O is f(Z), Z maybe bound

    envs = [{}]
    for item in items:
        out = []
        for env in envs:
            if isinstance(item, PathBinding):
                root = doc if item.doc else value(env, item.from_var).node
                for hit, _ in scan_path_eval(root, item.expr, env):
                    hit = XmlNode(hit) if isinstance(hit, XmlTerm) else hit
                    now = value(env, item.var)
                    if isinstance(now, Var):
                        out.append({**env, item.var: hit})
                    elif now == hit:
                        out.append(env)
            elif item.atom.predicate == "same_as":
                out.append({**env, "O": item.atom.args[1]})
            elif item.is_negated():
                if Atom("bad", (value(env, item.atom.args[0].name),)) not in facts:
                    out.append(env)
            else:
                name = item.atom.args[0].name
                for fact in sorted(facts, key=sort_key):
                    if fact.predicate != item.atom.predicate:
                        continue
                    now = value(env, name)
                    if isinstance(now, Var):
                        out.append({**env, name: fact.args[0]})
                    elif now == fact.args[0]:
                        out.append(env)
        envs = out
    return envs


@settings(max_examples=300, derandomize=True, database=None)
@given(_path_goals())
def test_compiled_path_steps_agree_with_a_nested_loop_join(case):
    doc, items, facts = case
    store = FactStore()
    for fact in facts:
        store.add(fact)
    names = ("O", "S", "W", "X", "Z")
    got = solve_goal(items, None, store, docs={"d.xml": doc})
    want = _nested_loop_answers(doc, items, facts)
    # an answer binds O to f(Z) with Z's value in it, as mgu keeps it
    assert [tuple(apply(s, Var(n)) for n in names) for s in got] == [
        tuple(apply(env, apply(env, Var(n))) for n in names) for env in want
    ]


# ===========================================================================
# Goal parsing
# ===========================================================================


def test_parse_goal_mixes_literals_paths_and_builtins():
    items = parse_goal(HOURS_GOAL)
    assert len(items) == 3
    lit, binding, conv = items
    assert isinstance(lit, Literal) and lit.atom.predicate == "employee"
    assert len(lit.atom.args) == 7
    assert isinstance(binding, PathBinding)
    assert binding.var == "R" and binding.doc == "works_on.xml"
    assert binding.expr.steps == (
        Child("row"),
        Filter("ESSN", Var("SSN")),
        AttrAccess("HOURS"),
    )
    assert isinstance(conv, Literal)
    assert conv.atom.module_prefix == "prolog"  # bare builtin auto-prefixed
    assert conv.atom.predicate == "atom_number"


def test_parse_goal_non_builtin_names_stay_plain():
    (lit,) = parse_goal("employee(X, Y)")
    assert lit.atom.module_prefix is None


def test_parse_goal_path_from_a_bound_variable():
    items = parse_goal("W := doc('works_on.xml')/row, E := W@'ESSN'")
    first, second = items
    assert first.doc == "works_on.xml" and first.from_var is None
    assert second.doc is None and second.from_var == "W"
    assert second.expr.steps == (AttrAccess("ESSN"),)


def test_parse_goal_path_steps_read_prefixed_names():
    (binding,) = parse_goal(
        "C := doc('people.xml')/ruleml:imp/ruleml:_body"
        "/swrlx:individualPropertyAtom::[@swrlx:property = parent]@swrlx:property"
    )
    assert binding.expr.steps == (
        Child("ruleml:imp"),
        Child("ruleml:_body"),
        Child("swrlx:individualPropertyAtom"),
        Filter("swrlx:property", Const("parent")),
        AttrAccess("swrlx:property"),
    )
    bare = parse_goal("C := doc('people.xml')/swrlx:classAtom/owlx:Class@owlx:name")
    quoted = parse_goal(
        "C := doc('people.xml')/'swrlx:classAtom'/'owlx:Class'@'owlx:name'"
    )
    assert bare == quoted
    with pytest.raises(ParseError, match=r"1:45: expected a name, found None"):
        parse_goal("C := doc('people.xml')/swrlx:classAtom/owlx:")


def test_parse_goal_accepts_a_wrapping_paren():
    items = parse_goal("(p(X), q(X))")
    assert [item.atom.predicate for item in items] == ["p", "q"]


def test_parse_goal_negation():
    items = parse_goal("not(q(X)), p(X)")
    assert items[0].is_negated() and not items[1].is_negated()


def test_parse_goal_true_is_the_empty_conjunction():
    assert parse_goal("true") == []


def test_parse_goal_keeps_a_negated_control_atom():
    # only a positive `true` or `!` holds and is dropped; a negated one fails
    for control in ("true", "!"):
        items = parse_goal(f"p(X), {control}, not {control}")
        assert [(item.atom.predicate, item.is_negated()) for item in items] == [
            ("p", False),
            (control, True),
        ]


def test_parse_goal_errors():
    with pytest.raises(ParseError, match="unexpected trailing"):
        parse_goal("p(X) q")
    with pytest.raises(ParseError, match="single conjunction"):
        parse_goal("p(X). q(X).")
    with pytest.raises(ParseError) as err:
        parse_goal("(p(X), q(X)). r")
    assert str(err.value) == "<goal>:1:15: goal must be a single conjunction"
    with pytest.raises(ParseError) as err:
        parse_goal("p(X) .q")
    assert str(err.value) == "<goal>:1:6: unexpected trailing '.'"
    assert parse_goal("p(X).") == parse_goal("p(X)")
    with pytest.raises(ParseError, match="path source"):
        parse_goal("X := 5/row")
    with pytest.raises(ParseError, match="no steps"):
        parse_goal("X := doc('d.xml')")


# ===========================================================================
# Template parsing
# ===========================================================================


def test_parse_template_columns():
    template = parse_template("[D, sum(H)]")
    assert template.columns == (GroupCol("D"), AggCol("sum", "H"))
    assert template.vars() == ["D", "H"]
    every = parse_template("[G, count(A), sum(B), min(C), max(D), avg(E)]")
    assert [c.fn for c in every.columns[1:]] == ["count", "sum", "min", "max", "avg"]


def test_parse_template_errors():
    with pytest.raises(ParseError, match="at least one column"):
        parse_template("[]")
    with pytest.raises(ParseError, match="must be a list"):
        parse_template("D")
    with pytest.raises(ParseError, match="template column"):
        parse_template("[f(X, Y)]")
    with pytest.raises(ParseError, match="template column"):
        parse_template("[sum(3)]")
    with pytest.raises(ParseError, match="unexpected trailing"):
        parse_template("[X] junk")
    with pytest.raises(ParseError) as err:
        parse_template("[D, sum(H)]. junk")
    assert str(err.value) == "<template>:1:14: unexpected trailing 'junk'"
    assert parse_template("[D, sum(H)].") == parse_template("[D, sum(H)]")


# ===========================================================================
# Goal solving
# ===========================================================================


def hours_join_oracle():
    """(dept, hours) pairs of the employee/works_on join, by nested loops."""
    import csv as _csv

    with open(EMPLOYEE_CSV, newline="", encoding="utf-8") as fh:
        employees = [row for row in _csv.reader(fh) if row]
    pairs = []
    for emp in employees:
        for row in ET.parse(WORKS_ON_XML).getroot().findall("row"):
            if row.get("ESSN") != emp[1]:
                continue
            try:
                hours = float(row.get("HOURS"))
            except (TypeError, ValueError):
                continue
            pairs.append((int(emp[6]), hours))
    return sorted(pairs)


def answer_pairs(answers):
    return sorted(
        (apply(s, Var("D")).value, float(apply(s, Var("H")).value)) for s in answers
    )


def test_solve_goal_matches_the_nested_loop_oracle():
    answers = solve_goal(parse_goal(HOURS_GOAL), None, employee_store(), works_on_docs())
    assert answer_pairs(answers) == hours_join_oracle()


def test_solve_goal_is_conjunct_order_insensitive():
    reordered = (
        "W := doc('works_on.xml')/row, E := W@'ESSN', atom_number(E, SSN), "
        "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
        "R := W@'HOURS', atom_number(R, H)"
    )
    a = solve_goal(parse_goal(HOURS_GOAL), None, employee_store(), works_on_docs())
    b = solve_goal(parse_goal(reordered), None, employee_store(), works_on_docs())
    assert answer_pairs(a) == answer_pairs(b)


def test_solve_goal_fact_matches_come_sorted():
    store = FactStore()
    for a, b in [("b", "y"), ("y", "q"), ("a", "z"), ("b", "x"), ("z", "r"),
                 ("a", "y"), ("x", "p"), ("y", "p")]:
        store.add(Atom("e", (Const(a), Const(b))))
    answers = solve_goal(parse_goal("e(X, Y), e(Y, Z)"), None, store)
    found = [tuple(term_text(apply(s, Var(v))) for v in "XYZ") for s in answers]
    assert found == [
        ("a", "y", "p"), ("a", "y", "q"), ("a", "z", "r"),
        ("b", "x", "p"), ("b", "y", "p"), ("b", "y", "q"),
    ]


def test_solve_goal_probes_a_bucket_in_sort_order_after_adds():
    # e(m, _) is one index bucket, filled out of order; the second literal
    # probes it once per k fact, and an add between two goals must show
    store = FactStore()
    for x in ("m", "m2"):
        store.add(Atom("k", (Const(x), Const("m"))))
    for y in ("d", "b", "e", "a"):
        store.add(Atom("e", (Const("m"), Const(y))))
    goal = parse_goal("k(X, B), e(B, Y)")

    def answers():
        return [(term_text(apply(s, Var("X"))), term_text(apply(s, Var("Y"))))
                for s in solve_goal(goal, None, store)]

    assert answers() == [(x, y) for x in ("m", "m2") for y in "abde"]
    store.add(Atom("e", (Const("m"), Const("c"))))
    store.add(Atom("e", (Const("n"), Const("a"))))
    assert answers() == [(x, y) for x in ("m", "m2") for y in "abcde"]


def test_solve_goal_defers_non_ground_negation():
    store = FactStore()
    store.add(Atom("p", (Const("a"),)))
    store.add(Atom("p", (Const("b"),)))
    store.add(Atom("q", (Const("a"),)))
    answers = solve_goal(parse_goal("not(q(X)), p(X)"), None, store)
    assert [apply(s, Var("X")) for s in answers] == [Const("b")]


def test_solve_goal_path_source_errors():
    store = FactStore()
    with pytest.raises(PathError, match="W is unbound"):
        solve_goal(parse_goal("X := W@'HOURS'"), None, store)
    with pytest.raises(PathError, match="not a document node"):
        solve_goal(parse_goal("same_as(W, 5), X := W@'HOURS'"), None, store)


def test_solve_goal_loads_documents_from_base_dir():
    answers = solve_goal(
        parse_goal("R := doc('works_on.xml')/row::[@'ESSN' = 22]@'HOURS'"),
        None,
        FactStore(),
        docs=None,
        base_dir=str(FIXTURES),
    )
    assert [apply(s, Var("R")) for s in answers] == [Const("10.0")]


# ===========================================================================
# Aggregation
# ===========================================================================


def test_aggregate_sums_hours_by_department():
    rows = ddbase_aggregate(
        parse_template("[D, sum(H)]"),
        parse_goal(HOURS_GOAL),
        None,
        employee_store(),
        works_on_docs(),
    )
    assert rows == [[Num(1), Num(12.5)], [Num(4), Num(30.0)], [Num(5), Num(47.5)]]
    assert render_rows(rows) == "[[1, 12.5], [4, 30.0], [5, 47.5]]"
    oracle = sum_hours_by_dept(EMPLOYEE_CSV, WORKS_ON_XML)
    assert [[g, s] for g, s in ((r[0].value, r[1].value) for r in rows)] == oracle


def test_hours_join_is_linear_in_rows_plus_employees(tmp_path):
    """3,200 employees x 6,400 rows, 10% NULL hours and 5% stray ESSNs:
    a per-employee scan of the rows takes several seconds here."""
    rng = random.Random(5)
    n_emp, n_rows = 3200, 6400
    ssns = [str(v) for v in rng.sample(range(100000, 1000000), n_emp + n_rows // 20)]
    emp_ssns, stray = ssns[:n_emp], ssns[n_emp:]
    employee_csv = tmp_path / "employee.csv"
    employee_csv.write_text(
        "".join(
            f"E{i},{ssn},1950-01-01,F,40000,null,{1 + i % 20}\n"
            for i, ssn in enumerate(emp_ssns)
        ),
        encoding="utf-8",
    )
    n_null, n_stray = n_rows // 10, n_rows // 20
    rows = []
    for i in range(n_rows):
        essn = stray[i] if i < n_stray else emp_ssns[i % n_emp]
        null = n_stray <= i < n_stray + n_null
        hours = "NULL" if null else f"{rng.randrange(1, 81) * 0.5:.1f}"
        rows.append(f'<row ESSN="{essn}" PNO="{rng.randrange(1, 40)}" HOURS="{hours}"/>')
    rng.shuffle(rows)
    works_on_xml = tmp_path / "works_on.xml"
    works_on_xml.write_text(
        '<table name="works_on">\n' + "\n".join(rows) + "\n</table>\n", encoding="utf-8"
    )
    store = FactStore()
    for fact in load_facts_csv(str(employee_csv), "employee"):
        store.add(fact)
    docs = {"works_on.xml": load_xml(str(works_on_xml))}
    template, goal = parse_template("[D, sum(H)]"), parse_goal(HOURS_GOAL)
    t0 = time.perf_counter()
    result = ddbase_aggregate(template, goal, None, store, docs)
    elapsed = time.perf_counter() - t0
    oracle = sum_hours_by_dept(str(employee_csv), str(works_on_xml))
    assert [[r[0].value, r[1].value] for r in result] == oracle
    assert len(oracle) == 20
    assert elapsed < 3.0, f"hours join took {elapsed:.2f} s"


def test_aggregate_count_min_max_avg():
    rows = ddbase_aggregate(
        parse_template("[D, count(H), min(H), max(H), avg(H)]"),
        parse_goal(HOURS_GOAL),
        None,
        employee_store(),
        works_on_docs(),
    )
    assert rows == [
        [Num(1), Num(1), Num(12.5), Num(12.5), Num(12.5)],
        [Num(4), Num(1), Num(30.0), Num(30.0), Num(30.0)],
        [Num(5), Num(3), Num(7.5), Num(30.0), Num(47.5 / 3)],
    ]


def test_aggregate_follows_template_column_order():
    rows = ddbase_aggregate(
        parse_template("[sum(H), D]"),
        parse_goal(HOURS_GOAL),
        None,
        employee_store(),
        works_on_docs(),
    )
    assert rows == [[Num(12.5), Num(1)], [Num(30.0), Num(4)], [Num(47.5), Num(5)]]


def test_aggregate_min_max_order_non_numbers():
    rows = ddbase_aggregate(
        parse_template("[min(Name), max(Name)]"),
        parse_goal("employee(Name, SSN, BDate, Sex, Salary, Super, D)"),
        None,
        employee_store(),
    )
    assert rows == [[Const("Borg"), Const("Wong")]]


def test_aggregate_sum_rejects_non_numbers():
    with pytest.raises(NonNumericAggregate, match="sum over non-numeric"):
        ddbase_aggregate(
            parse_template("[D, sum(Name)]"),
            parse_goal("employee(Name, SSN, BDate, Sex, Salary, Super, D)"),
            None,
            employee_store(),
        )


def test_aggregate_rejects_a_sum_or_avg_the_reader_could_not_read_back():
    # the sum of an int beyond float range and a float, or its average,
    # has no float value, and a sum of floats beyond it is inf, which would
    # print as a constant; a sum of more digits than int() reads could not
    # be printed; min and max order such ints by value
    store = FactStore()
    for value in (10**400, 2.5, 1):
        store.add(Atom("q", (Num(value),)))
    for value in (1.0e308, 1.5e308):
        store.add(Atom("f", (Num(value),)))
    for fn in ("sum", "avg"):
        for goal in ("q(X)", "f(X)"):
            with pytest.raises(EvalTypeError, match=f"{fn}\\(X\\) is beyond float range"):
                ddbase_aggregate(parse_template(f"[{fn}(X)]"), parse_goal(goal), None, store)
    template = parse_template("[min(X), max(X)]")
    assert ddbase_aggregate(template, parse_goal("q(X)"), None, store) == [
        [Num(1), Num(10**400)]
    ]
    store = FactStore()
    for digit in "98":
        store.add(Atom("r", (Num(int(digit * 4300)),)))
    with pytest.raises(EvalTypeError, match="too many digits"):
        ddbase_aggregate(parse_template("[sum(X)]"), parse_goal("r(X)"), None, store)


def test_aggregate_template_variable_must_occur_in_the_goal():
    with pytest.raises(TemplateVarUnbound, match="does not occur"):
        ddbase_aggregate(
            parse_template("[Z, sum(H)]"),
            parse_goal(HOURS_GOAL),
            None,
            employee_store(),
            works_on_docs(),
        )


def test_aggregate_template_variable_must_be_bound_by_every_answer():
    store = FactStore()
    store.add(Atom("p", (Const("a"),)))
    with pytest.raises(TemplateVarUnbound, match="unbound in an answer"):
        ddbase_aggregate(
            parse_template("[X, count(Y)]"),
            parse_goal("p(X), not(q(Y))"),
            None,
            store,
        )


def test_aggregate_of_an_empty_answer_set():
    rows = ddbase_aggregate(
        parse_template("[D, sum(H)]"),
        parse_goal(
            "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
            "R := doc('works_on.xml')/row::[@'ESSN' = 99]@'HOURS', "
            "atom_number(R, H)"
        ),
        None,
        employee_store(),
        works_on_docs(),
    )
    assert rows == []
    assert render_rows(rows) == "[]"


def test_rows_to_json_uses_native_values():
    rows = [[Num(1), Num(12.5)], [Const("Borg"), Num(3)]]
    assert rows_to_json(rows) == [[1, 12.5], ["Borg", 3]]


# ===========================================================================
# CSV relations
# ===========================================================================


def test_csv_auto_detects_numbers_and_null():
    facts = load_facts_csv(EMPLOYEE_CSV, "employee")
    assert len(facts) == 4
    borg = facts[0]
    assert borg.predicate == "employee" and len(borg.args) == 7
    assert borg.args[0] == Const("Borg")
    assert borg.args[1] == Num(11)
    assert borg.args[2] == Const("1927-11-10")
    assert borg.args[4] == Num(55000)
    assert borg.args[5] == Const("null")
    assert borg.args[6] == Num(1)


def test_csv_explicit_numeric_columns():
    facts = load_facts_csv(EMPLOYEE_CSV, "employee", numeric_cols={1, 4, 6})
    wong = facts[1]
    assert wong.args[1] == Num(22)
    # everything outside numeric_cols stays textual, even "40000"
    assert wong.args[4] == Num(40000)
    plain = load_facts_csv(EMPLOYEE_CSV, "employee", numeric_cols=set())
    assert plain[1].args[4] == Const("40000")


def test_csv_numeric_column_that_does_not_parse():
    with pytest.raises(NumericParseError, match="line 1, column 3"):
        load_facts_csv(EMPLOYEE_CSV, "employee", numeric_cols={2})


def test_csv_null_beats_numeric_declaration():
    facts = load_facts_csv(EMPLOYEE_CSV, "employee", numeric_cols={5})
    assert facts[0].args[5] == Const("null")  # Borg has no supervisor
    assert facts[1].args[5] == Num(11)


def test_csv_header_and_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,age\n\nann,4\nbob,5\n", encoding="utf-8")
    facts = load_facts_csv(str(path), "person", header=True)
    assert [(f.args[0], f.args[1]) for f in facts] == [
        (Const("ann"), Num(4)),
        (Const("bob"), Num(5)),
    ]


def test_csv_ragged_rows_are_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nc\n", encoding="utf-8")
    with pytest.raises(RaggedRowError, match="expected 2 columns, got 1"):
        load_facts_csv(str(path), "p")
