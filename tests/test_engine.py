"""Builtins, safety, stratification, fixpoint evaluation, proof trees."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddlite import engine
from ddlite.engine import (
    EvalOptions,
    FactStore,
    Violation,
    _DeltaTail,
    auto_pt,
    call_builtin,
    check_calls,
    check_safety,
    deferred_negation_ok,
    dump_facts,
    evaluate,
    facts_as_rules,
    facts_to_json,
    lookup_builtin,
    probe_positions,
    proof_tree,
    render_proof_tree,
    solve_body,
    stratify,
    tree_of,
    validate_fact,
    validate_store,
)
from ddlite.errors import (
    CycleError,
    EvalTypeError,
    InstantiationError,
    ResourceLimitExceeded,
    SafetyError,
    UnknownBuiltin,
)
from ddlite.kernel import (
    BUILTIN_NAMES,
    NEGATED,
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    PredKey,
    Program,
    Rule,
    Var,
    apply,
    match,
    mgu,
    mklist,
    sort_key,
    term_text,
)
from ddlite.syntax import lloyd_topor, parse_program, parse_swrl, print_program, swrl_to_datalog

from naive import evaluate_naive, tp_step
from oracles import (
    ground_model,
    model_of_store,
    random_program,
    random_recursive_program,
    reference_render_proof_tree,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_program(name):
    return parse_program((FIXTURES / name).read_text(encoding="utf-8"), name)


def bi(name, *args):
    return Atom(name, args, "prolog")


def combined(*chunks):
    """Parse several rule-text chunks as one program, the way files are
    concatenated for the command line; auto-naming keeps names unique."""
    return parse_program("\n".join(chunks))


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def opm_program():
    parsed = parse_swrl(fixture_text("opm.swrl"))
    normalized = [split for rule in parsed for split in lloyd_topor(rule)]
    rules = swrl_to_datalog(normalized)
    return combined(fixture_text("opm_facts.dl"), print_program(rules))


# ===========================================================================
# Builtins
# ===========================================================================


def test_is_evaluates_arithmetic():
    x = Var("X")
    (s,) = call_builtin(bi("is", x, Compound("+", (Num(15), Num(280)))))
    assert s["X"] == Num(295)
    assert isinstance(s["X"].value, int)


def test_is_division_stays_integral_when_exact():
    (s,) = call_builtin(bi("is", Var("X"), Compound("/", (Num(6), Num(2)))))
    assert s["X"] == Num(3) and isinstance(s["X"].value, int)
    (s,) = call_builtin(bi("is", Var("X"), Compound("/", (Num(7), Num(2)))))
    assert s["X"] == Num(3.5)


def test_is_unary_minus():
    expr = Compound("-", (Compound("+", (Num(1), Num(2))),))
    (s,) = call_builtin(bi("is", Var("X"), expr))
    assert s["X"] == Num(-3)


def test_is_checks_the_result_when_bound():
    assert call_builtin(bi("is", Num(3), Compound("+", (Num(1), Num(2)))))
    assert call_builtin(bi("is", Num(4), Compound("+", (Num(1), Num(2))))) == []


def test_is_division_by_zero():
    with pytest.raises(EvalTypeError, match="division by zero"):
        call_builtin(bi("is", Var("X"), Compound("/", (Num(1), Num(0)))))


def test_is_unbound_operand():
    with pytest.raises(InstantiationError):
        call_builtin(bi("is", Var("X"), Compound("+", (Num(1), Var("Y")))))


def test_is_rejects_a_result_that_is_not_a_number():
    # inf - inf is NaN, which match finds unequal to itself and a store
    # lookup finds equal, so e(X) would hang on which n(X) runs first
    inf = Compound("*", (Num(1.0e308), Num(10.0)))
    with pytest.raises(EvalTypeError, match="not a number"):
        call_builtin(bi("is", Var("X"), Compound("-", (inf, inf))))
    p = parse_program(
        "n(X) :- prolog:(X is 1.0e308*10.0 - 1.0e308*10.0).\ne(X) :- n(X), n(X)."
    )
    with pytest.raises(EvalTypeError, match="not a number"):
        evaluate(p)


def test_is_rejects_a_result_the_reader_could_not_read_back():
    # an int beyond float range that meets a float, or whose quotient is no
    # int, has no float value, and a float product beyond it is inf, which
    # would print as a constant; an int of more digits than int() reads
    # could not be printed.  The message shortens each integer of more
    # than 50 digits, and only integers
    big = Num(10**400)
    inf = Compound("*", (Num(1.0e308), Num(10.0)))
    for expr in (Compound("/", (big, Num(3))), Compound("*", (big, Num(1.5))), inf,
                 Compound("-", (Num(-1.0e308), inf))):
        with pytest.raises(EvalTypeError, match="beyond float range"):
            call_builtin(bi("is", Var("X"), expr))
    huge = Num(int("7" * 3000))
    square = Compound("*", (huge, huge))
    with pytest.raises(EvalTypeError) as err:
        call_builtin(bi("is", Var("X"), square))
    assert err.value.message == (
        "arithmetic result is an integer with too many digits: "
        "(7777777777...7777777777 (3000 digits)*7777777777...7777777777 (3000 digits))"
    )
    # a quoted constant of digits is not an integer, and is written whole
    digits = Const("1" * 60)
    with pytest.raises(EvalTypeError) as err:
        call_builtin(bi("is", Var("X"), Compound("+", (digits, huge))))
    assert err.value.message == f"not an arithmetic expression: '{'1' * 60}'"
    p = parse_program(f"big({10**400}).\nq(Y) :- big(X), prolog:(Y is X / 3).")
    with pytest.raises(EvalTypeError, match="beyond float range"):
        evaluate(p)
    # exact results of any size stay, and so do comparisons
    exact = call_builtin(bi("is", Var("X"), Compound("/", (big, Num(10)))))
    assert exact[0]["X"] == Num(10**399)
    assert call_builtin(bi(">", square, Num(1.5)))


def test_is_non_arithmetic_operand():
    with pytest.raises(EvalTypeError, match="not an arithmetic expression"):
        call_builtin(bi("is", Var("X"), Const("woof")))


def test_comparisons():
    cases = [
        ("<", 1, 2, True), ("<", 2, 2, False),
        ("=<", 2, 2, True), ("=<", 3, 2, False),
        (">", 3, 2, True), (">", 2, 2, False),
        (">=", 2, 2, True), (">=", 1, 2, False),
        ("=:=", 2, 2.0, True), ("=:=", 2, 3, False),
        ("=\\=", 2, 3, True), ("=\\=", 2, 2, False),
    ]
    for op, a, b, holds in cases:
        answers = call_builtin(bi(op, Num(a), Num(b)))
        assert bool(answers) == holds, (op, a, b)


def test_comparison_evaluates_expressions():
    lhs = Compound("*", (Num(3), Num(4)))
    assert call_builtin(bi(">", lhs, Num(11)))


def test_atom_number_parses_numeric_constants():
    (s,) = call_builtin(bi("atom_number", Const("12.5"), Var("N")))
    assert s["N"] == Num(12.5)


def test_atom_number_fails_on_non_numeric_text():
    assert call_builtin(bi("atom_number", Const("NULL"), Var("N"))) == []


def test_atom_number_argument_errors():
    with pytest.raises(InstantiationError):
        call_builtin(bi("atom_number", Var("A"), Var("N")))
    with pytest.raises(EvalTypeError):
        call_builtin(bi("atom_number", Num(12), Var("N")))


def test_same_as_unifies_and_different_from_discriminates():
    (s,) = call_builtin(bi("same_as", Var("X"), Const("a")), {})
    assert s["X"] == Const("a")
    assert call_builtin(bi("different_from", Const("a"), Const("b")))
    assert call_builtin(bi("different_from", Const("a"), Const("a"))) == []
    with pytest.raises(InstantiationError):
        call_builtin(bi("different_from", Var("X"), Const("a")))


def test_pt_binds_its_first_argument():
    tree = Compound("t", (Const("p"), Const("r1")))
    (s,) = call_builtin(bi("pt", Var("T"), tree))
    assert s["T"] == tree


def test_create_owl_thing_is_deterministic():
    args = (Const("x"), Const("c"), Const("e"))
    (s1,) = call_builtin(bi("create_owl_thing", Var("B"), *args))
    (s2,) = call_builtin(bi("create_owl_thing", Var("B"), *args))
    assert s1["B"] == s2["B"]
    (s3,) = call_builtin(bi("create_owl_thing", Var("B"), Const("x2"), Const("c"), Const("e")))
    assert s3["B"] != s1["B"]
    with pytest.raises(InstantiationError):
        call_builtin(bi("create_owl_thing", Var("B"), Var("X"), Const("c"), Const("e")))


def test_append_flattens_a_list_of_lists():
    lists = mklist([mklist([Const("a"), Const("b")]), mklist([Const("c")])])
    (s,) = call_builtin(bi("append", lists, Var("Xs")))
    assert s["Xs"] == mklist([Const("a"), Const("b"), Const("c")])


def test_append_argument_errors():
    with pytest.raises(InstantiationError):
        call_builtin(bi("append", Var("Xss"), Var("Xs")))
    with pytest.raises(EvalTypeError, match="list of lists"):
        call_builtin(bi("append", mklist([Const("a")]), Var("Xs")))


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin, match="unknown builtin nope/1"):
        call_builtin(bi("nope", Const("a")))


def test_an_operator_in_a_body_is_an_unknown_builtin_unless_defined():
    # unprefixed, as prolog:(X = a) is
    for body in ("X = a", "prolog:(X = a)"):
        with pytest.raises(UnknownBuiltin) as err:
            evaluate(parse_program(f"p(a).\nq(X) :- p(X), {body}.", "f.dl"))
        assert str(err.value) == "f.dl:2:15: in rule r2: unknown builtin =/2"
    # checked before the rule runs, and a use in a body defines nothing
    with pytest.raises(UnknownBuiltin, match="in rule r2: unknown builtin is/2"):
        evaluate(parse_program("p(a).\nq(Y) :- r(X), Y is X + 1.\nr(X) :- X = 1."))
    # a fact or a rule head defines it, and it stays a relation
    store = evaluate(parse_program("a = b.\nc = d :- true.\nlink(X) :- X = b."))
    assert dump_facts(store) == "(a = b).\n(c = d).\nlink(a).\n"


def test_a_call_that_names_no_builtin_is_reported_before_anything_runs():
    # whatever its prefix or polarity, and where no plan would reach it
    for body in ("p(X), owl:foo(X)", "p(X), not prolog:foo(X)", "none(X), prolog:foo(X)"):
        p = parse_program(f"p(a).\nq(X) :- {body}.", "f.dl")
        for check in (check_calls, evaluate):
            with pytest.raises(UnknownBuiltin) as err:
                check(p)
            assert str(err.value).startswith("f.dl:2:") and str(err.value).endswith(
                ": in rule r2: unknown builtin foo/1"
            )
    # a goal is checked on its own, against the predicates p defines
    goal = parse_program("g :- X = a.", "goal").rules[0].body
    check_calls(parse_program("a = b."), goal)
    with pytest.raises(UnknownBuiltin, match="^goal:1:6: unknown builtin =/2$"):
        check_calls(None, goal)


def test_the_builtins_are_those_check_calls_knows():
    # check_calls reads kernel.BUILTIN_NAMES, so that the commands that
    # only check rule text need not load the engine
    assert set(engine.BUILTINS) == BUILTIN_NAMES


def test_lookup_builtin_reads_the_name_and_arity_whatever_the_prefix():
    for prefix in ("prolog", "owl", "swrlb"):
        assert lookup_builtin(Atom("same_as", (Var("X"), Var("Y")), prefix)).name == "same_as"
    with pytest.raises(UnknownBuiltin, match="unknown builtin same_as/3"):
        lookup_builtin(Atom("same_as", (Var("X"), Var("Y"), Var("Z")), "prolog"))


def test_safety_reads_the_inputs_each_builtin_declares():
    # different_from reads both arguments; an unknown call is no guess
    p = parse_program("q(X) :- p(X), prolog:different_from(X, Y).")
    assert check_safety(p) == [
        Violation("r1", "Y", "is an unbound input of different_from/2")
    ]
    with pytest.raises(UnknownBuiltin, match="unknown builtin add/3"):
        check_safety(parse_program("q(B) :- p(A), prolog:add(B, A, 1)."))


# ===========================================================================
# Safety
# ===========================================================================


def test_safety_flags_unbound_head_variable():
    p = parse_program("% name: r1\np(X, Y) :- q(X).")
    (v,) = check_safety(p)
    assert str(v) == "rule r1: variable Y in the head is not bound by the body"


def test_safety_flags_variable_only_under_negation():
    p = parse_program("% name: r1\np(X) :- q(X), not(r(Y)).")
    (v,) = check_safety(p)
    assert v.variable == "Y" and "only under negation" in v.reason


def test_safety_flags_unbound_builtin_input():
    p = parse_program("% name: r1\np(X) :- prolog:(X is Y + 1).")
    reasons = {(v.variable, v.reason) for v in check_safety(p)}
    assert ("Y", "is an unbound input of is/2") in reasons


def test_safety_closes_over_chained_builtin_outputs():
    p = parse_program(
        "p(Z) :- q(X), prolog:(Y is X + 1), prolog:(Z is Y * 2)."
    )
    assert check_safety(p) == []


def test_safety_accepts_the_fixture_programs():
    for name in ("route.dl", "route_plain.dl", "p1.dl", "uncle.dl"):
        assert check_safety(fixture_program(name)) == [], name


def test_safety_flags_the_negation_as_failure_idiom():
    # The first clause binds X only inside not(...); that style relies on
    # top-down calling with X already bound, which range restriction
    # rejects.  The findall clause is fine: its argument terms bind
    # everything the head needs.
    violations = check_safety(fixture_program("ancestor.dl"))
    assert violations and all(v.rule_name == "r1" for v in violations)
    kinds = {(v.variable, v.reason.split()[-1]) for v in violations}
    assert ("X", "body") in kinds  # head variable unbound
    assert any(v.variable.startswith("_G") for v in violations)


# ===========================================================================
# Stratification
# ===========================================================================


def test_stratify_positive_program_is_one_stratum():
    strata = stratify(fixture_program("route.dl"))
    assert strata.max_stratum == 0
    assert strata.of(PredKey(None, "route", 4)) == 0


def test_stratify_layers_negation():
    p = parse_program("q(a). p(X) :- q(X), not(r(X)). s(X) :- q(X), not(p(X)).")
    strata = stratify(p)
    q, r = PredKey(None, "q", 1), PredKey(None, "r", 1)
    pk, sk = PredKey(None, "p", 1), PredKey(None, "s", 1)
    assert strata.of(q) == 0 and strata.of(r) == 0
    assert strata.of(pk) == 1
    assert strata.of(sk) == 2
    assert strata.max_stratum == 2


def test_stratify_rejects_negation_on_a_cycle():
    p = parse_program("a :- not(b). b :- a.")
    with pytest.raises(CycleError) as info:
        stratify(p)
    names = {f"{k.name}/{k.arity}" for k in info.value.cycle}
    assert names == {"a/0", "b/0"}
    assert str(info.value).startswith("negation on a cycle: ")


# ===========================================================================
# Fact store
# ===========================================================================


def test_store_canonicalizes_on_add():
    store = FactStore()
    sugar = Atom("p", (mklist([Const("a")]),))
    cons = Atom("p", (Compound(".", (Const("a"), Const("[]"))),))
    assert store.add(sugar)
    assert store.has(cons)
    assert not store.add(cons)


def test_store_rejects_non_ground_facts():
    with pytest.raises(EvalTypeError, match="non-ground fact"):
        FactStore().add(Atom("p", (Var("X"),)))


def test_store_freeze_blocks_mutation():
    store = FactStore()
    store.add(Atom("p", (Const("a"),)))
    store.freeze()
    with pytest.raises(EvalTypeError, match="frozen"):
        store.add(Atom("p", (Const("b"),)))


def test_store_facts_lists_a_predicate_in_sort_order():
    store = FactStore()
    store.add(Atom("p", (Const("b"),)))
    store.add(Atom("p", (Const("a"),)))
    listed = store.facts(PredKey(None, "p", 1))
    assert [term_text(f.args[0]) for f in listed] == ["a", "b"]
    assert store.facts(PredKey(None, "p", 2)) == []


def _edge(x, y):
    return Atom("edge", (Const(x), Const(y)))


def test_store_probes_the_smallest_bucket_of_the_ground_arguments():
    store = FactStore()
    for i in range(5):
        store.add(_edge(f"n{i}", f"n{i + 1}"))
    query = Atom("edge", (Const("n2"), Var("Y")))
    assert probe_positions(query.args, ()) == (0,)
    assert store.sorted_candidates(query, {}, (0,)) == [_edge("n2", "n3")]
    bound = Atom("edge", (Var("X"), Var("Y")))
    assert probe_positions(bound.args, {"X"}) == (0,)
    assert store.sorted_candidates(bound, {"X": Const("n2")}, (0,)) == [_edge("n2", "n3")]
    results = list(solve_body((Literal(query),), store))
    assert len(results) == 1
    assert apply(results[0], Var("Y")) == Const("n3")
    # a later bound argument with the smaller bucket: n0 leads four edges,
    # and n3 ends two, so the probe reads n3's bucket
    for y in ("n2", "n3", "n4"):
        store.add(_edge("n0", y))
    assert probe_positions(bound.args, {"X", "Y"}) == (0, 1)
    s = {"X": Const("n0"), "Y": Const("n3")}
    assert store.candidates(bound, s, (0, 1)) == [_edge("n2", "n3"), _edge("n0", "n3")]
    assert store.candidates(bound, s, (0,)) == [
        _edge("n0", "n1"), _edge("n0", "n2"), _edge("n0", "n3"), _edge("n0", "n4")
    ]
    # no position is ground: every fact of the predicate
    assert len(store.candidates(bound, {}, ())) == 8
    # a ground compound is its own key; an open compound is no position
    trees = [Compound("t", (Const(x),)) for x in "abc"]
    for tree, k in ((trees[0], 0), (trees[0], 1), (trees[1], 1), (trees[2], 1)):
        store.add(Atom("tree", (tree, Num(k))))
    one = Atom("tree", (trees[1], Num(1)))
    assert probe_positions(one.args, ()) == (0, 1)
    assert store.candidates(one, {}, (0, 1)) == [one]
    open_tree = Atom("tree", (Compound("t", (Var("T"),)), Num(1)))
    assert probe_positions(open_tree.args, ()) == (1,)
    assert [f.args[0] for f in store.candidates(open_tree, {}, (1,))] == trees


def test_store_keys_numbers_as_match_compares_them():
    # 1 and 1.0 are two terms, 0.0 and -0.0 one, inside compounds too
    store = FactStore()
    for value in (Num(1), Num(1.0), Num(-0.0)):
        for arg in (value, Compound("f", (value,))):
            store.add(Atom("n", (arg,)))
    x = Var("X")
    for value in (Num(1), Num(1.0), Num(0.0), Num(-0.0)):
        for arg in (value, Compound("f", (value,))):
            query = Atom("n", (arg,))
            found = store.candidates(query, {}, (0,))
            matched = store.facts(query.key)
            assert found == [f for f in matched if match(query.args, f.args, {}) is not None]
            assert len(found) == 1
            bound = store.candidates(Atom("n", (x,)), {"X": arg}, (0,))
            assert bound == found
    assert store.candidates(Atom("n", (Num(0.0),)), {}, (0,))[0].args[0] == Num(-0.0)


def test_store_matching_yields_sort_key_order_whatever_the_insertion_order():
    store = FactStore()
    for y in ("d", "b", "e", "a", "c"):
        store.add(Atom("edge", (Const("n0"), Const(y))))
    store.add(Atom("edge", (Const("n1"), Const("a"))))
    query = Atom("edge", (Const("n0"), Var("Y")))
    listed = store.sorted_candidates(query, {}, (0,))
    assert [term_text(f.args[1]) for f in listed] == list("abcde")
    answers = solve_body((Literal(query),), store, probe=store.sorted_candidates)
    found = [term_text(apply(s, Var("Y"))) for s in answers]
    assert found == ["a", "b", "c", "d", "e"]


def test_store_records_fact_origins():
    store = FactStore()
    fact = Atom("p", (Const("a"),))
    store.add(fact, origin="r7")
    assert store.origin(fact) == "r7"
    assert store.origin(Atom("p", (Const("zzz"),))) is None


# ===========================================================================
# Body solving
# ===========================================================================


def test_solve_body_joins_left_to_right():
    store = FactStore()
    store.add(Atom("e", (Const("a"), Const("b"))))
    store.add(Atom("e", (Const("b"), Const("c"))))
    body = (
        Literal(Atom("e", (Var("X"), Var("Y")))),
        Literal(Atom("e", (Var("Y"), Var("Z")))),
    )
    answers = [apply(s, Var("Z")) for s in solve_body(body, store)]
    assert answers == [Const("c")]


def test_solve_body_defers_non_ground_negation():
    store = FactStore()
    store.add(Atom("p", (Const("a"),)))
    store.add(Atom("p", (Const("b"),)))
    store.add(Atom("q", (Const("a"),)))
    body = (
        Literal(Atom("q", (Var("X"),)), NEGATED),
        Literal(Atom("p", (Var("X"),))),
    )
    answers = [apply(s, Var("X")) for s in solve_body(body, store)]
    assert answers == [Const("b")]


def test_deferred_negation_ok_reads_open_atoms_as_none_unifies():
    store = FactStore()
    store.add(Atom("q", (Const("a"),)))
    assert not deferred_negation_ok([Atom("q", (Var("X"),))], {}, store)
    assert deferred_negation_ok([Atom("r", (Var("X"),))], {}, store)


def test_a_builtin_binding_an_open_term_falls_back_to_mgu():
    # pt/2 binds X to f(Y) while Y is unbound ('=' is no builtin here, and
    # same_as takes only bound arguments), so the literals after it run on
    # a substitution holding an open term: q(Y) must rewrite X to f(a),
    # and r(X) must bind Y through X's value
    p = parse_program(
        "q(a). q(b). r(f(a)). r(g(b)).\n"
        "p(X) :- prolog:pt(X, f(Y)), q(Y), r(X).\n"
        "s(X, Y) :- prolog:pt(X, f(Y)), r(X), q(Y).\n"
    )
    store = evaluate(p)
    model = model_of_store(store)
    assert model == ground_model(p)
    assert {"p(f(a))", "s(f(a), a)"} <= model
    # evaluate solves pt/2 once q(Y) has bound Y (bound first); a goal
    # keeps the written order, so there the open term reaches q and r
    heads = [
        term_text(apply(s, rule.head))
        for rule in p.rules[4:]
        for s in solve_body(rule.body, store)
    ]
    assert heads == ["p(f(a))", "s(f(a), a)"]


def test_a_ground_positive_literal_is_a_lookup():
    store = FactStore()
    store.add(Atom("q", (Const("a"),)))
    body = (Literal(Atom("q", (Const("a"),))), Literal(Atom("q", (Var("X"),))))
    assert [apply(s, Var("X")) for s in solve_body(body, store)] == [Const("a")]
    assert list(solve_body((Literal(Atom("q", (Const("b"),))),), store)) == []


def test_solve_body_negated_builtin():
    store = FactStore()
    holds = (Literal(bi("<", Num(2), Num(1)), NEGATED),)
    fails = (Literal(bi("<", Num(1), Num(2)), NEGATED),)
    assert len(list(solve_body(holds, store))) == 1
    assert list(solve_body(fails, store)) == []


def test_a_negated_control_atom_fails():
    # `not true` and `not !` fail, as Prolog's `\+ true` does, in evaluate,
    # solve_body and replay alike; `true` and `!` hold
    p = parse_program(
        "p(a).\n"
        "q(X) :- p(X), not true.\n"
        "r(X) :- p(X), not !.\n"
        "s(X) :- p(X), true, !.\n"
    )
    store = evaluate(p)
    assert model_of_store(store) == ground_model(p) == {"p(a)", "s(a)"}
    x = Var("X")
    for control in ("true", "!"):
        holds = (Literal(Atom("p", (x,))), Literal(Atom(control)))
        fails = (Literal(Atom("p", (x,))), Literal(Atom(control), NEGATED))
        assert [apply(s, x) for s in solve_body(holds, store)] == [Const("a")]
        assert list(solve_body(fails, store)) == []
        assert list(solve_body(fails[::-1], store)) == []
    for name, derivable in (("q", False), ("r", False), ("s", True)):
        assert validate_fact(p, store, Atom(name, (Const("a"),))) is derivable


# ===========================================================================
# Compiled plans
# ===========================================================================

# leaves that are equal but print apart (0.0 and -0.0), or print alike but
# are not equal (1 and 1.0), and few variable names, so patterns repeat them
_PLAN_LEAVES = [Const("a"), Const("b"), Num(1), Num(1.0), Num(0.0), Num(-0.0)]
_PLAN_VARS = [Var("X"), Var("Y"), Var("Z")]


def _plan_terms(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.sampled_from("fg"),
            st.lists(kids, min_size=1, max_size=2),
        ),
        max_leaves=4,
    )


_PLAN_GROUND = _plan_terms(st.sampled_from(_PLAN_LEAVES))
_PLAN_PATTERN = _plan_terms(
    st.one_of(st.sampled_from(_PLAN_VARS), st.sampled_from(_PLAN_LEAVES))
)


@st.composite
def _plan_instance(draw, t):
    """A ground term that t often matches: each variable occurrence
    replaced on its own, so that a repeated variable meets equal, nearly
    equal and different values, and now and then a leaf replaced too."""
    if isinstance(t, Var):
        return draw(_PLAN_GROUND)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(draw(_plan_instance(a)) for a in t.args))
    return draw(_PLAN_GROUND) if draw(st.integers(0, 4)) == 0 else t


@st.composite
def _plan_cases(draw):
    """(literal atom, stored facts in insertion order, entry substitution)."""
    args = tuple(draw(st.lists(_PLAN_PATTERN, min_size=1, max_size=3)))
    facts = draw(
        st.lists(
            st.one_of(
                st.tuples(*(_plan_instance(a) for a in args)),
                st.tuples(*(_PLAN_GROUND for _ in args)),
            ),
            max_size=6,
        )
    )
    names = draw(st.lists(st.sampled_from(["X", "Y", "Z"]), unique=True, max_size=2))
    s = {name: draw(_PLAN_GROUND) for name in names}
    return Atom("p", args), [Atom("p", f) for f in facts], s


def _shown(s):
    """A substitution as text that tells 0.0 from -0.0 and 1 from 1.0."""
    return None if s is None else sorted((k, repr(v)) for k, v in s.items())


@settings(max_examples=250, derandomize=True, database=None)
@given(_plan_cases())
def test_a_plan_step_agrees_with_match_and_mgu_on_each_stored_fact(case):
    atom, facts, s = case
    store = FactStore()
    expected = []
    for fact in facts:
        if store.add(fact):
            unifier = _shown(mgu(atom, fact, s))
            assert _shown(match(atom.args, fact.args, s)) == unifier
            if unifier is not None:
                expected.append(unifier)
    answers = [_shown(a) for a in solve_body((Literal(atom),), store, s)]
    assert answers == expected


@st.composite
def _flat_cases(draw):
    """(literal atom whose arguments are variables and ground terms, facts,
    entry substitution binding some of its variables to ground terms)."""
    args = tuple(draw(st.lists(
        st.one_of(st.sampled_from(_PLAN_VARS), _PLAN_GROUND), min_size=1, max_size=4
    )))
    facts = draw(
        st.lists(
            st.one_of(
                st.tuples(*(_plan_instance(a) for a in args)),
                st.tuples(*(_PLAN_GROUND for _ in args)),
            ),
            max_size=6,
        )
    )
    names = draw(st.lists(st.sampled_from(["X", "Y", "Z"]), unique=True, max_size=2))
    s = {name: draw(_PLAN_GROUND) for name in names}
    return Atom("p", args), [Atom("p", f) for f in facts], s


@settings(max_examples=400, derandomize=True, database=None)
@given(_flat_cases())
@example((  # X takes -0.0, the rightmost of two equal values
    Atom("p", (Var("X"), Const("a"), Var("X"))),
    [Atom("p", (_PLAN_LEAVES[4], Const("a"), _PLAN_LEAVES[5]))],
    {},
))
@example((  # X is bound: only its position is compared, Y takes 0.0
    Atom("p", (Var("Y"), Var("X"), Var("Y"))),
    [Atom("p", (_PLAN_LEAVES[5], Num(1), _PLAN_LEAVES[4])),
     Atom("p", (_PLAN_LEAVES[5], _PLAN_LEAVES[3], _PLAN_LEAVES[4]))],
    {"X": Num(1)},
))
def test_a_compiled_match_binds_what_match_binds(case):
    # repeated variables, bound on entry or new, constants, ground
    # compounds, 0.0 and -0.0 (equal: a repeated new variable takes the
    # rightmost) and 1 and 1.0 (not equal): each answer binds match's own
    # values, the same objects, in match's order, and a next step that
    # returns True stops the step at its first answer
    atom, facts, s = case
    expected = [m for m in (match(atom.args, f.args, s) for f in facts) if m is not None]

    def probe(query, s, positions):
        return facts

    answers = []
    run = engine._match_step(atom, (), probe, frozenset(s), answers.append)
    assert run(s) is False
    assert [[(k, id(v)) for k, v in a.items()] for a in answers] == [
        [(k, id(v)) for k, v in m.items()] for m in expected
    ]
    assert engine._match_step(atom, (), probe, frozenset(s), lambda s2: True)(s) is bool(expected)


_SORT_CONSTS = [Const("a"), Const("b"), Const("c"), Const("B"), Const("a b")]


@st.composite
def _sort_groups(draw):
    """Rows of one arity, a column all constants or a mix of constants,
    numbers and compounds."""
    columns = [
        st.sampled_from(_SORT_CONSTS) if draw(st.booleans())
        else st.one_of(st.sampled_from(_SORT_CONSTS), _PLAN_GROUND)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return draw(st.lists(st.tuples(*columns), max_size=12))


@settings(max_examples=200, derandomize=True, database=None)
@given(_sort_groups())
def test_a_predicate_sorts_by_flat_keys_in_sort_key_order(rows):
    store = FactStore()
    for row in rows:
        store.add(Atom("p", row))
    if not rows:
        return
    key = PredKey(None, "p", len(rows[0]))
    group = list(store.candidates(Atom("p", tuple(Var("X") for _ in rows[0])), {}, ()))
    want = sorted(group, key=sort_key)
    for got in (store.facts(key), store.sorted_candidates(Atom("p", rows[0]), {}, (0,))):
        bucket = [f for f in want if f in got]
        assert len(got) == len(bucket) and all(a is b for a, b in zip(got, bucket))


def _random_term(rng, leaves, depth):
    """A term over leaves, now and then a compound f/g of one or two
    arguments, nested at most depth deep."""
    if depth and rng.random() < 0.3:
        args = tuple(_random_term(rng, leaves, depth - 1) for _ in range(rng.randint(1, 2)))
        return Compound(rng.choice("fg"), args)
    return rng.choice(leaves)


def _random_instance(rng, t):
    """t with each variable occurrence replaced on its own by a ground
    term, so that a repeated variable may meet equal or different values."""
    if isinstance(t, Var):
        return _random_term(rng, _PLAN_LEAVES, 1)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_random_instance(rng, a) for a in t.args))
    return t


def test_a_probe_agrees_with_matching_every_fact_of_the_predicate():
    # facts over constants, numbers and ground compounds, about half of
    # them instances of the literal; literals over those, variables and
    # open compounds; and substitutions binding a variable to a ground
    # term, to an open one, or to nothing.  Whatever bucket a probe takes,
    # the answers are those of unifying the literal with each fact of its
    # predicate in turn
    rng = random.Random(2018)
    patterns = _PLAN_LEAVES + _PLAN_VARS
    for _ in range(500):
        arity = rng.randint(1, 3)
        atom = Atom("p", tuple(_random_term(rng, patterns, 2) for _ in range(arity)))
        s = {}
        for v in _PLAN_VARS:
            draw = rng.random()
            if draw < 0.4:
                s[v.name] = _random_term(rng, _PLAN_LEAVES, 2)
            elif draw < 0.5:
                s[v.name] = Compound("f", (Var("W"),))
        store = FactStore()
        added = []
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.5:
                fact = Atom("p", tuple(_random_instance(rng, a) for a in apply(s, atom).args))
            else:
                fact = Atom(rng.choice("pq"), tuple(
                    _random_term(rng, _PLAN_LEAVES, 2) for _ in range(arity)
                ))
            if store.add(fact) and fact.predicate == "p":
                added.append(fact)

        def expected(facts):
            return [_shown(u) for u in (mgu(atom, f, s) for f in facts) if u is not None]

        body = (Literal(atom),)
        assert [_shown(a) for a in solve_body(body, store, s)] == expected(added)
        in_order = solve_body(body, store, s, probe=store.sorted_candidates)
        assert [_shown(a) for a in in_order] == expected(sorted(added, key=sort_key))
        query = apply(s, atom)
        assert store.unifies_any(query) == any(mgu(query, f) is not None for f in added)


def _auto_pt_chain(n):
    return auto_pt(parse_program(
        "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(n))
        + "path(X, Y) :- edge(X, Y).\n"
        + "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
    ))


def _replay_visits(program):
    """(facts in the model, facts replay reads) for program: every fact
    the store's candidates hands out is counted as read."""
    store = evaluate(program)
    read = [0]
    candidates = store.candidates

    def counting_candidates(query, s, positions):
        facts = candidates(query, s, positions)
        read[0] += len(facts)
        return facts

    store.candidates = counting_candidates
    assert validate_store(program, store) == []
    return len(store), read[0]


def test_replay_reads_facts_in_proportion_to_the_model():
    # the fact's own tree binds the child trees when pt/2 runs first, so
    # path(Y, Z, T2) is one lookup; run in the written order it scanned
    # Y's bucket of path/3, and reads grew at a facts exponent of 1.1-1.25
    small, big = _replay_visits(_auto_pt_chain(50)), _replay_visits(_auto_pt_chain(200))
    fact_ratio = big[0] / small[0]
    assert big[1] / small[1] <= fact_ratio ** 1.05, (small, big)


@pytest.mark.parametrize("edges, size", [
    ("e0(a, b). e0(b, c). e0(c, d).", 159),
    ("e0(a, b). e0(a, c). e0(b, c). e0(c, d).", 198),
])
def test_replay_of_many_trees_per_fact_reads_one_fact_per_fact(edges, size):
    # p and q each hold one fact per proof tree.  Replaying
    # q(Y, T) :- p(X, Y, T1), pt(T, ...) with T bound, pt/2 binds T1,
    # whose bucket holds one fact; probing by Y alone reads about fifty
    # facts per stored fact here, and thousands on seven edges
    program = auto_pt(parse_program(
        edges + " v0(b).\n"
        "p(X, Y) :- e0(X, Y).\n"
        "p(X, Y) :- q(X), e0(X, Y).\n"
        "p(X, Z) :- p(X, Y), p(Y, Z).\n"
        "q(X) :- v0(X).\n"
        "q(Y) :- p(X, Y).\n"
    ))
    facts, read = _replay_visits(program)
    assert facts == size
    assert read <= 2 * facts, (facts, read)


def _path_chain(n):
    return parse_program(
        "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(n))
        + "path(X, Y) :- edge(X, Y).\n"
        + "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )


def _route_chain(n):
    return parse_program(
        "".join(f"street(c{i}, c{i + 1}, 1).\n" for i in range(n))
        + "route(X, Y, L) :- street(X, Y, L).\n"
        + "route(X, Y, L) :- street(X, Z, N), route(Z, Y, M), prolog:(L is N+M).\n"
    )


def _delta_reads(monkeypatch, program):
    """(facts in the model, facts the delta literals read) over one
    evaluate of program: every fact a delta step hands to match is
    counted."""
    read = [0]
    tail = _DeltaTail.__call__

    def counting_tail(delta, query, s, positions):
        facts = tail(delta, query, s, positions)
        read[0] += len(facts)
        return facts

    with monkeypatch.context() as m:
        m.setattr(_DeltaTail, "__call__", counting_tail)
        store = evaluate(program)
    return len(store), read[0]


@pytest.mark.parametrize("chain", [_path_chain, _route_chain])
def test_semi_naive_reads_facts_in_proportion_to_the_model(monkeypatch, chain):
    # a delta literal reads only the tail of its bucket that the previous
    # pass added: in path/2 it comes first, in route/3, kept in written
    # order by is/2, it probes the bucket street/3 bound.  Reading whole
    # buckets, reads grow at a facts exponent of about 1.5
    small = _delta_reads(monkeypatch, chain(50))
    big = _delta_reads(monkeypatch, chain(200))
    fact_ratio = big[0] / small[0]
    assert big[1] / small[1] <= fact_ratio ** 1.05, (small, big)


def _reach_beside_idle_rules(passes, idle):
    """A reach/1 chain that takes passes delta passes, beside idle rules
    g<i>(X) :- f<i>(X) that no f<i> fact ever feeds."""
    return parse_program(
        "reach(n0).\nreach(Y) :- reach(X), edge(X, Y).\n"
        + "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(passes))
        + "".join(f"g{i}(X) :- f{i}(X).\n" for i in range(idle))
    )


def _best_evaluate_s(p):
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        evaluate(p)
        best = min(best, time.perf_counter() - t0)
    return best


def test_a_pass_visits_only_the_rules_that_read_what_it_gained():
    # an idle rule costs the first pass and no later one, so the chain
    # beside the idle rules takes about as long as each alone.  Scanning
    # every rule of the stratum after each pass took 2.8 s here against
    # 0.14 s and 0.17 s alone; the bound is over 4 times what it takes now
    passes, idle = 8000, 4000
    chain = _best_evaluate_s(_reach_beside_idle_rules(passes, 0))
    first_pass = _best_evaluate_s(_reach_beside_idle_rules(1, idle))
    both = _best_evaluate_s(_reach_beside_idle_rules(passes, idle))
    assert both < 5 * (chain + first_pass), (chain, first_pass, both)


def _plans_compiled(monkeypatch, p):
    """The number of _rule_plan calls evaluate(p) makes."""
    made = [0]
    rule_plan = engine._rule_plan

    def counting(*args, **kwargs):
        made[0] += 1
        return rule_plan(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(engine, "_rule_plan", counting)
        evaluate(p)
    return made[0]


def test_facts_are_stored_before_the_first_pass(monkeypatch):
    # a fact is in the store when its stratum's first pass runs, so a rule
    # that reads only facts compiles one plan and derives all it can in
    # that pass.  Adding facts after the first pass compiles three: the
    # first pass, then one delta plan for each of the two literals
    uncle = combined(fixture_text("uncle.dl"), "parent(a, b). brother(b, c).")
    assert _plans_compiled(monkeypatch, uncle) == 1
    n = 300
    base = parse_program("".join(
        f"g{i}(X) :- f{i}(X), h{i}(X).\nf{i}(a). h{i}(a).\n" for i in range(n)
    ))
    assert _plans_compiled(monkeypatch, base) == n
    assert len(evaluate(base)) == 3 * n


def test_a_plan_works_out_each_literals_variables_once(monkeypatch):
    # ordering a body bound first reads the variable sets of its literals
    # and their arguments at each pick; they are worked out once a plan
    rule = parse_program("g(X, Y, Z) :- f(X), h(X, Y), k(Y, Z), m(Z).").rules[0]
    calls = [0]
    term_vars = engine.term_vars

    def counting(t):
        calls[0] += 1
        return term_vars(t)

    monkeypatch.setattr(engine, "term_vars", counting)
    engine._rule_plan(rule, FactStore(), None, lambda fact: False)
    assert calls[0] <= 4 + 6  # one a literal and one an argument


def _shuffled(p, rng):
    """p with each rule's relation literals and pt/same_as calls in a
    random order, and its other builtins after them in their own order:
    those may raise, and need their inputs bound."""
    rules = []
    for rule in p.rules:
        free = [lit for lit in rule.body if not _raises(lit)]
        rng.shuffle(free)
        body = tuple(free) + tuple(lit for lit in rule.body if _raises(lit))
        rules.append(Rule(rule.name, rule.head, body, rule.span))
    return Program(tuple(rules))


def _raises(lit):
    return lit.is_builtin() and lit.atom.predicate not in ("pt", "same_as")


def _origins(store):
    return {term_text(f): store.origin(f) for f in store.sorted_facts()}


def test_shuffled_bodies_give_the_same_model_and_origins():
    rng = random.Random(4242)
    programs = [
        fixture_program("route.dl"),
        fixture_program("route_plain.dl"),
        auto_pt(fixture_program("route_plain.dl")),
        fixture_program("p1.dl"),
        fixture_program("p2.dl"),
        combined(fixture_text("uncle.dl"), "parent(a, b). brother(b, c)."),
        opm_program(),
        _auto_pt_chain(6),
    ]
    programs += [random_program(rng, allow_negation=k % 2 == 0) for k in range(40)]
    for p in programs:
        expected = _origins(evaluate(p))
        for _ in range(3):
            assert _origins(evaluate(_shuffled(p, rng))) == expected, print_program(p)


def test_a_body_whose_builtin_can_raise_keeps_the_written_order():
    # bound first, q(Y) would bind Y before the comparison; as written,
    # the comparison meets Y unbound and raises
    p = parse_program("q(1). r(2).\np(X) :- r(X), prolog:(X < Y), q(Y).")
    with pytest.raises(InstantiationError):
        evaluate(p)
    # with only pt/2 calls the order is free, and the same model comes out
    p = parse_program("q(1).\np(T) :- prolog:pt(T, f(Y)), q(Y).")
    assert model_of_store(evaluate(p)) == {"q(1)", "p(f(1))"}


def test_a_body_with_a_negated_builtin_keeps_the_written_order():
    # as written, the negation meets X unbound, same_as binds it, and the
    # negation fails; with q(X) first it would hold for X = b
    p = parse_program("q(a). q(b).\np(X) :- not prolog:same_as(X, a), q(X).")
    store = evaluate(p)
    assert model_of_store(store) == {"q(a)", "q(b)"}
    assert list(solve_body(p.rules[2].body, store)) == []
    assert validate_store(p, store) == []


def test_dump_facts_prints_each_fact_as_its_term():
    store = FactStore()
    for fact in (
        Atom("p", (Const("a"), Num(-0.0))),
        Atom(".", (Const("a"), Const("[]"))),
        Atom("q", (Const("b"),), "m"),
        Atom("<", (Num(1), Num(2))),
        Atom("z"),
    ):
        store.add(fact)
    # sorted by module, name and arity; the module prefix is not printed
    assert dump_facts(store) == "[a].\n(1 < 2).\np(a, -0.0).\nz.\nq(b).\n"


# ===========================================================================
# tp_step and evaluate
# ===========================================================================


def test_tp_step_is_one_immediate_consequence_pass():
    p = fixture_program("route.dl")
    store = FactStore()
    first = tp_step(p, store)
    assert {f.key for f in first} == {PredKey(None, "street", 4)}
    assert len(first) == 2
    for fact in sorted(first, key=term_text):
        store.add(fact)
    second = tp_step(p, store)
    assert {f.key for f in second} == {PredKey(None, "route", 4)}
    assert len(second) == 2


def test_tp_step_rejects_non_ground_heads():
    rule = Rule("r1", Atom("p", (Var("X"), Var("Y"))), (Literal(Atom("q", (Var("X"),))),))
    store = FactStore()
    store.add(Atom("q", (Const("a"),)))
    with pytest.raises(EvalTypeError, match="non-ground fact"):
        tp_step(Program((rule,)), store)


def test_evaluate_route_reaches_the_expected_fixpoint():
    store = evaluate(fixture_program("route.dl"))
    assert len(store) == 5
    routes = store.facts(PredKey(None, "route", 4))
    assert len(routes) == 3
    ends = {(term_text(f.args[0]), term_text(f.args[1]), f.args[2]) for f in routes}
    assert ends == {
        ("'KT'", "'Wue'", Num(15)),
        ("'Wue'", "'Mue'", Num(280)),
        ("'KT'", "'Mue'", Num(295)),
    }


def test_evaluate_records_the_deriving_rule():
    store = evaluate(fixture_program("route.dl"))
    by_len = {f.args[2]: f for f in store.facts(PredKey(None, "route", 4))}
    assert store.origin(by_len[Num(295)]) == "r"
    assert store.origin(by_len[Num(15)]) == "e"


def test_evaluate_uncle():
    p = combined(fixture_text("uncle.dl"), "parent(a, b). brother(b, c).")
    store = evaluate(p)
    uncles = store.facts(PredKey(None, "uncle", 2))
    assert [tuple(term_text(a) for a in f.args) for f in uncles] == [("a", "c")]


def test_evaluate_rejects_unsafe_programs():
    p = parse_program("% name: r1\np(X, Y) :- q(X).")
    with pytest.raises(SafetyError) as info:
        evaluate(p)
    assert "rule r1: variable Y" in str(info.value)


def test_evaluate_provenance_rule_and_skolem_sharing():
    store = evaluate(opm_program())
    derived = [
        f
        for name in ("derived_sink", "derived_source", "derived_account")
        for f in store.facts(PredKey(None, name, 2))
    ]
    assert len(derived) == 4
    firsts = {f.args[0] for f in derived}
    assert len(firsts) == 1
    (skolem,) = firsts
    assert isinstance(skolem, Compound) and skolem.functor == "skolem"
    accounts = {term_text(f.args[1]) for f in store.facts(PredKey(None, "derived_account", 2))}
    assert accounts == {"d", "g"}


def test_evaluate_matches_the_ground_model_oracle_on_fixtures():
    uncle = combined(fixture_text("uncle.dl"), "parent(a, b). brother(b, c).")
    programs = [
        fixture_program("route.dl"),
        fixture_program("route_plain.dl"),
        uncle,
        opm_program(),
        fixture_program("p1.dl"),
    ]
    for p in programs:
        assert model_of_store(evaluate(p)) == ground_model(p)


def test_seminaive_equals_naive():
    programs = [
        fixture_program("route.dl"),
        fixture_program("route_plain.dl"),
        fixture_program("p1.dl"),
        fixture_program("p2.dl"),
        combined(fixture_text("uncle.dl"), "parent(a, b). brother(b, c)."),
        opm_program(),
        parse_program("q(a). p(X) :- q(X), not(r(X)). s(X) :- p(X), not(q(X))."),
    ]
    for p in programs:
        assert model_of_store(evaluate(p)) == model_of_store(evaluate_naive(p))


def test_seminaive_equals_naive_and_oracle_on_random_programs():
    rng = random.Random(90125)
    for trial in range(40):
        p = random_program(rng, allow_negation=trial % 2 == 0)
        semi = model_of_store(evaluate(p))
        assert semi == model_of_store(evaluate_naive(p)), print_program(p)
        assert semi == ground_model(p), print_program(p)


def test_recursive_programs_agree_with_naive_evaluation():
    rng = random.Random(1907)
    for _ in range(40):
        text = random_recursive_program(rng)
        # the program as generated, and with one edge back that closes cycles
        for p in (parse_program(text), parse_program(text + "e0(d, a).\n")):
            semi = model_of_store(evaluate(p))
            assert semi == model_of_store(evaluate_naive(p)), print_program(p)
            assert semi == ground_model(p), print_program(p)
        # each derived fact's proof tree replays
        traced = auto_pt(parse_program(text))
        assert validate_store(traced, evaluate(traced)) == [], text


def test_evaluate_is_insensitive_to_rule_order():
    p = fixture_program("route.dl")
    shuffled = Program(tuple(reversed(p.rules)))
    assert model_of_store(evaluate(p)) == model_of_store(evaluate(shuffled))


def test_iteration_limit():
    chain = parse_program(
        "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4).\n"
        "path(X, Y) :- e(X, Y).\n"
        "path(X, Z) :- e(X, Y), path(Y, Z).\n"
    )
    with pytest.raises(ResourceLimitExceeded) as info:
        evaluate(chain, EvalOptions(max_iterations=1))
    err = info.value
    assert err.message == "iteration limit 1 exceeded in stratum 0"
    assert err.stratum == 0
    assert 0 < len(err.delta_sample) <= 5
    evaluate(chain, EvalOptions(max_iterations=10))


def test_fact_limit():
    counter = parse_program("n(0). n(Y) :- n(X), prolog:(Y is X + 1).")
    with pytest.raises(ResourceLimitExceeded) as info:
        evaluate(counter, EvalOptions(max_facts=10))
    err = info.value
    assert err.message == "fact limit 10 exceeded in stratum 0"
    assert err.stratum == 0
    assert err.delta_sample
    with pytest.raises(ResourceLimitExceeded):
        evaluate_naive(counter, EvalOptions(max_facts=10))


def test_evaluate_chain_closure_is_linear_in_the_facts():
    # 200 edges give 20,100 path facts.  A fixpoint that re-joins every
    # position each iteration and sorts inside its probes took about a
    # minute on a 2-vCPU x86-64 VM (Python 3.11); the semi-naive one 1 s.
    edges = [(f"n{i}", f"n{i + 1}") for i in range(200)]
    p = parse_program(
        "".join(f"edge({a}, {b}).\n" for a, b in edges)
        + "path(X, Y) :- edge(X, Y).\n"
        + "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )
    t0 = time.perf_counter()
    store = evaluate(p)
    elapsed = time.perf_counter() - t0

    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    closure = set()
    for start in succ:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        closure |= {(start, b) for b in seen}
    expected = {f"edge({a}, {b})" for a, b in edges}
    expected |= {f"path({a}, {b})" for a, b in closure}
    assert len(expected) == 20_300
    assert model_of_store(store) == expected
    assert elapsed < 5.0, f"evaluate took {elapsed:.1f} s"


def test_builtin_errors_name_the_rule():
    p = parse_program("% name: r1\nq(a).\n% name: r2\np(X) :- q(Y), prolog:(X is Y + 1).")
    with pytest.raises(EvalTypeError, match="in rule r2: not an arithmetic"):
        evaluate(p)


def test_evaluate_defers_negation_until_the_body_binds():
    p = parse_program("p(a). p(b). q(a). s(X) :- not(q(X)), p(X).")
    store = evaluate(p)
    s_facts = store.facts(PredKey(None, "s", 1))
    assert [tuple(term_text(a) for a in f.args) for f in s_facts] == [("b",)]


# ===========================================================================
# Proof trees
# ===========================================================================


def route_tree_term():
    side = Compound("is", (Num(295), Compound("+", (Num(15), Num(280)))))
    return Compound(
        "t",
        (
            Compound("route", (Const("KT"), Const("Mue"), Num(295))),
            Const("r"),
            Compound(
                "t",
                (
                    Compound("street", (Const("KT"), Const("Wue"), Num(15))),
                    Const("f1"),
                ),
            ),
            Compound(
                "t",
                (
                    Compound("route", (Const("Wue"), Const("Mue"), Num(280))),
                    Const("e"),
                    Compound(
                        "t",
                        (
                            Compound("street", (Const("Wue"), Const("Mue"), Num(280))),
                            Const("f2"),
                        ),
                    ),
                ),
            ),
            side,
        ),
    )


def test_proof_tree_term_roundtrip_keeps_side_conditions():
    # proof_tree builds the term a program builds, and tree_of hands it back
    leaf = proof_tree(Atom("street", (Const("Wue"), Const("Mue"), Num(280))), "f2")
    children = (
        proof_tree(Atom("street", (Const("KT"), Const("Wue"), Num(15))), "f1"),
        proof_tree(Atom("route", (Const("Wue"), Const("Mue"), Num(280))), "e", [leaf]),
    )
    side = Compound("is", (Num(295), Compound("+", (Num(15), Num(280)))))
    route = Atom("route", (Const("KT"), Const("Mue"), Num(295)))
    term = proof_tree(route, "r", children, [side])
    assert term == route_tree_term()
    assert tree_of(Atom("route", route.args + (term,))) is term


def test_proof_tree_rejects_malformed_terms():
    nonground = Compound("t", (Compound("p", (Var("X"),)), Const("r1")))
    # conclusions are checked parents first
    nested = Compound("t", (Num(3), Const("r1"), Compound("t", (Num(4), Const("r2")))))
    for fmt in ("term", "ascii", "dot"):
        with pytest.raises(EvalTypeError, match="not a proof tree term"):
            render_proof_tree(Const("t"), fmt)
        with pytest.raises(EvalTypeError, match="not ground"):
            render_proof_tree(nonground, fmt)
        with pytest.raises(EvalTypeError, match="conclusion 3 is not an atom"):
            render_proof_tree(nested, fmt)


def test_tree_of_reads_the_last_argument():
    fact = Atom("route", (Const("KT"), Const("Mue"), Num(295), route_tree_term()))
    assert tree_of(fact) is fact.args[-1]
    assert tree_of(Atom("p", (Const("a"),))) is None
    assert tree_of(Atom("p")) is None


def test_render_term_format_strips_side_conditions():
    text = render_proof_tree(route_tree_term(), "term")
    assert text == (
        "t(route(KT, Mue, 295), r, t(street(KT, Wue, 15), f1), "
        "t(route(Wue, Mue, 280), e, t(street(Wue, Mue, 280), f2)))"
    )


def test_render_ascii_format_shows_side_conditions():
    text = render_proof_tree(route_tree_term(), "ascii")
    lines = text.splitlines()
    assert lines[0] == "route(KT, Mue, 295) [r]"
    assert lines[1] == "  where (295 is 15+280)"
    assert "  street(KT, Wue, 15) [f1]" in lines
    assert "    street(Wue, Mue, 280) [f2]" in lines


def test_render_dot_format():
    text = render_proof_tree(route_tree_term(), "dot")
    assert text.startswith("digraph G {")
    assert text.rstrip().endswith("}")
    assert text.count(" -> ") == 3
    assert "where (295 is 15+280)" in text


def test_render_rejects_unknown_formats():
    with pytest.raises(ValueError):
        render_proof_tree(route_tree_term(), "yaml")


def _renders_like_the_reference(tree):
    """render_proof_tree gives the typed reference's text, or raises its
    EvalTypeError, in every format."""
    for fmt in ("term", "ascii", "dot"):
        try:
            want = reference_render_proof_tree(tree, fmt)
        except EvalTypeError as err:
            with pytest.raises(EvalTypeError) as got:
                render_proof_tree(tree, fmt)
            assert str(got.value) == str(err), term_text(tree)
        else:
            assert render_proof_tree(tree, fmt) == want, term_text(tree)


def test_render_proof_tree_agrees_with_the_typed_reference():
    trees = [tree_of(f) for f in evaluate(fixture_program("route.dl")).sorted_facts()]
    rng = random.Random(1515)
    for trial in range(40):
        store = evaluate(auto_pt(random_program(rng, allow_negation=trial % 2 == 1)))
        trees += [tree_of(f) for f in store.sorted_facts()]
    # roots with two or more children, whose order the renderers must keep
    assert sum(len(tree.args) > 3 for tree in trees) > 50

    def t(conclusion, tag, *rest):
        return Compound("t", (conclusion, Const(tag)) + rest)

    shared = t(Const("v"), "s")
    trees += [
        Const("t"),
        t(Num(3), "r"),
        t(Const("q"), "r", t(Num(4), "s")),
        t(Num(3), "r", t(Num(4), "s")),
        t(Const("q"), "r", t(Const("v"), "s", t(Var("X"), "s")), t(Num(5), "s")),
        t(Compound("p", (Var("X"),)), "r"),
        t(Const("u"), "r", Compound("t", (Const("x"),))),
        t(Compound("w", (Const("a"),)), "r", shared, Const("side"), shared, Num(2)),
        t(Const("w"), 'say "r"', t(Const("v"), "s", Compound("f", (Const('"'),)))),
    ]
    for tree in trees:
        _renders_like_the_reference(tree)


def test_evaluated_route_carries_the_expected_tree():
    store = evaluate(fixture_program("route.dl"))
    (best,) = [f for f in store.facts(PredKey(None, "route", 4)) if f.args[2] == Num(295)]
    tree = tree_of(best)
    assert tree is not None
    assert render_proof_tree(tree, "term") == (
        "t(route(KT, Mue, 295), r, t(street(KT, Wue, 15), f1), "
        "t(route(Wue, Mue, 280), e, t(street(Wue, Mue, 280), f2)))"
    )
    assert term_text(tree.args[-1], quoted=False) == "(295 is 15+280)"


def test_a_proof_deeper_than_the_recursion_limit_converts_and_replays():
    p = auto_pt(parse_program(
        "reach(n0).\n"
        + "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(1100))
        + "reach(Y) :- reach(X), edge(X, Y).\n"
    ))
    store = evaluate(p)
    assert len(store) == 2201
    reach = store.facts(PredKey(None, "reach", 2))
    (deepest,) = [f for f in reach if f.args[0] == Const("n1100")]
    tree = tree_of(deepest)
    depth, node = 0, tree
    while len(node.args) > 2:
        depth, node = depth + 1, node.args[2]
    assert depth == 1100 and node.args[0] == Compound("reach", (Const("n0"),))
    _renders_like_the_reference(tree)
    dot = render_proof_tree(tree, "dot")
    assert dot.count(" [label=") == 2201 and dot.count(" -> ") == 2200
    assert validate_fact(p, store, deepest)


# ===========================================================================
# Mechanical instrumentation
# ===========================================================================


def test_auto_pt_reproduces_the_handwritten_instrumentation():
    plain = fixture_program("route_plain.dl")
    instrumented = fixture_program("route.dl")
    assert print_program(auto_pt(plain)) == print_program(instrumented)


def test_auto_pt_names_tree_variables_the_rule_does_not_use():
    (rule,) = auto_pt(parse_program("p(T, T2) :- q(T), q(T2).\nq(a).")).rules[:1]
    assert term_text(rule.head) == "p(T, T2, T1)"
    assert [term_text(lit.atom) for lit in rule.body[:2]] == ["q(T, T3)", "q(T2, T4)"]


def test_auto_pt_leaves_external_relations_and_negation_alone():
    p = parse_program("% name: r1\ns(X) :- parent(X, Y), not(s(Y)).")
    out = auto_pt(p)
    (rule,) = out.rules
    assert len(rule.head.args) == 2
    kinds = [(lit.atom.predicate, lit.polarity, len(lit.atom.args)) for lit in rule.body]
    assert kinds == [("parent", "positive", 2), ("s", NEGATED, 1), ("pt", "positive", 2)]


def test_auto_pt_output_evaluates_to_the_plain_model_plus_trees():
    plain = fixture_program("route_plain.dl")
    store = evaluate(auto_pt(plain))
    bare = {term_text(Atom(f.predicate, f.args[:-1])) for f in store.sorted_facts()}
    assert bare == ground_model(plain)
    assert all(tree_of(f) is not None for f in store.sorted_facts())


# ===========================================================================
# Replay validation
# ===========================================================================


def test_validate_store_accepts_what_evaluate_emitted():
    for name in ("route.dl", "route_plain.dl", "p2.dl"):
        p = fixture_program(name)
        assert validate_store(p, evaluate(p)) == []


def test_validate_flags_a_tampered_fact():
    p = fixture_program("route.dl")
    good = evaluate(p)
    tampered = FactStore()
    for f in good.sorted_facts():
        if f.args[:3] == (Const("KT"), Const("Mue"), Num(295)):
            f = Atom(f.predicate, (f.args[0], f.args[1], Num(294), f.args[3]))
        tampered.add(f)
    bad = validate_store(p, tampered)
    assert [f.args[2] for f in bad] == [Num(294)]
    assert not validate_fact(p, tampered, bad[0])
    # without a tree to contradict it, only the re-derivation flags it
    plain = fixture_program("route_plain.dl")
    tampered = FactStore()
    for f in evaluate(plain).sorted_facts():
        if f.args == (Const("KT"), Const("Mue"), Num(295)):
            f = Atom(f.predicate, (f.args[0], f.args[1], Num(294)))
        tampered.add(f)
    assert [f.args[2] for f in validate_store(plain, tampered)] == [Num(294)]


def test_validate_flags_a_tree_that_contradicts_its_fact():
    p = parse_program("w(a, t(p(b), r9)). % name: r1\np(X, T) :- w(X, T).")
    store = evaluate(p)
    flagged = validate_store(p, store)
    assert [f.predicate for f in flagged] == ["p"]


def test_validate_store_lists_what_it_flags_in_sort_key_order():
    # the store replays in insertion order, and only the flagged facts are
    # sorted, into the order sorted_facts lists them in
    p = fixture_program("route_plain.dl")
    extra = [
        Atom("street", (Const("zz"), Const("a"), Num(3))),
        Atom("route", (Const("Mue"), Const("KT"), Num(1))),
        Atom("aaa", (Const("x"),)),
        Atom("route", (Const("KT"), Const("KT"), Num(0))),
    ]
    tampered = FactStore()
    for f in extra[:2] + list(reversed(evaluate(p).sorted_facts())) + extra[2:]:
        tampered.add(f)
    bad = validate_store(p, tampered)
    assert bad == [f for f in tampered.sorted_facts() if f in extra]
    assert bad == sorted(extra, key=sort_key)
    assert [f.predicate for f in bad] == ["aaa", "route", "route", "street"]


# ===========================================================================
# Fact plumbing
# ===========================================================================


def test_facts_as_rules_skips_taken_names():
    facts = [Atom("p", (Const("a"),)), Atom("p", (Const("b"),))]
    rules = facts_as_rules(facts, taken=("f1", "r1"))
    assert [r.name for r in rules] == ["f2", "f3"]
    assert all(not r.body for r in rules)
    facts.append(Atom("p", (Const("c"),)))
    assert [r.name for r in facts_as_rules(facts, {"f1", "f3"})] == ["f2", "f4", "f5"]


def test_dump_facts_reparses_to_the_same_facts():
    store = evaluate(fixture_program("route.dl"))
    text = dump_facts(store)
    reread = parse_program(text)
    assert all(not r.body for r in reread.rules)
    original = {term_text(Compound(f.predicate, f.args)) for f in store.sorted_facts()}
    reloaded = {term_text(Compound(r.head.predicate, r.head.args)) for r in reread.rules}
    assert reloaded == original


def test_dump_facts_of_empty_store_is_empty():
    assert dump_facts(FactStore()) == ""


def test_facts_to_json_shape_and_order():
    store = FactStore()
    store.add(Atom("q", (Const("b"),)))
    store.add(Atom("p", (Const("a z"), Num(1))))
    rows = facts_to_json(store)
    assert rows == [
        {"pred": "p/2", "args": ["'a z'", "1"]},
        {"pred": "q/1", "args": ["b"]},
    ]
