"""Builtins, safety, stratification, fixpoint evaluation, proof trees."""

import random
import time
from pathlib import Path

import pytest

from ddlite.engine import (
    EvalOptions,
    FactStore,
    Violation,
    auto_pt,
    call_builtin,
    check_safety,
    deferred_negation_ok,
    dump_facts,
    evaluate,
    facts_as_rules,
    facts_to_json,
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
    mklist,
    term_text,
)
from ddlite.syntax import lloyd_topor, parse_program, parse_swrl, print_program, swrl_to_datalog

from naive import evaluate_naive, tp_step
from oracles import ground_model, model_of_store, random_program, reference_render_proof_tree

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


def test_store_facts_accepts_name_arity_pairs():
    store = FactStore()
    store.add(Atom("p", (Const("b"),)))
    store.add(Atom("p", (Const("a"),)))
    listed = store.facts(("p", 1))
    assert [term_text(f.args[0]) for f in listed] == ["a", "b"]
    assert store.facts(PredKey(None, "p", 1)) == listed
    assert store.facts(("p", 2)) == []


def test_store_matching_narrows_by_first_bound_argument():
    store = FactStore()
    for i in range(5):
        store.add(Atom("edge", (Const(f"n{i}"), Const(f"n{i + 1}"))))
    n2_n3 = [Atom("edge", (Const("n2"), Const("n3")))]
    query = Atom("edge", (Const("n2"), Var("Y")))
    assert store.sorted_candidates(query, {}) == n2_n3
    bound = Atom("edge", (Var("X"), Var("Y")))
    assert store.sorted_candidates(bound, {"X": Const("n2")}) == n2_n3
    results = list(solve_body((Literal(query),), store))
    assert len(results) == 1
    assert apply(results[0], Var("Y")) == Const("n3")


def test_store_matching_yields_sort_key_order_whatever_the_insertion_order():
    store = FactStore()
    for y in ("d", "b", "e", "a", "c"):
        store.add(Atom("edge", (Const("n0"), Const(y))))
    store.add(Atom("edge", (Const("n1"), Const("a"))))
    query = Atom("edge", (Const("n0"), Var("Y")))
    assert [term_text(f.args[1]) for f in store.sorted_candidates(query, {})] == list("abcde")
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
    model = model_of_store(evaluate(p))
    assert model == ground_model(p)
    assert {"p(f(a))", "s(f(a), a)"} <= model


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
    routes = store.facts(("route", 4))
    assert len(routes) == 3
    ends = {(term_text(f.args[0]), term_text(f.args[1]), f.args[2]) for f in routes}
    assert ends == {
        ("'KT'", "'Wue'", Num(15)),
        ("'Wue'", "'Mue'", Num(280)),
        ("'KT'", "'Mue'", Num(295)),
    }


def test_evaluate_records_the_deriving_rule():
    store = evaluate(fixture_program("route.dl"))
    by_len = {f.args[2]: f for f in store.facts(("route", 4))}
    assert store.origin(by_len[Num(295)]) == "r"
    assert store.origin(by_len[Num(15)]) == "e"


def test_evaluate_uncle():
    p = combined(fixture_text("uncle.dl"), "parent(a, b). brother(b, c).")
    store = evaluate(p)
    uncles = store.facts(("uncle", 2))
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
        for key in (("derived_sink", 2), ("derived_source", 2), ("derived_account", 2))
        for f in store.facts(key)
    ]
    assert len(derived) == 4
    firsts = {f.args[0] for f in derived}
    assert len(firsts) == 1
    (skolem,) = firsts
    assert isinstance(skolem, Compound) and skolem.functor == "skolem"
    accounts = {term_text(f.args[1]) for f in store.facts(("derived_account", 2))}
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
    assert [tuple(term_text(a) for a in f.args) for f in store.facts(("s", 1))] == [("b",)]


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
    (best,) = [f for f in store.facts(("route", 4)) if f.args[2] == Num(295)]
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
    (deepest,) = [f for f in store.facts(("reach", 2)) if f.args[0] == Const("n1100")]
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


# ===========================================================================
# Fact plumbing
# ===========================================================================


def test_facts_as_rules_skips_taken_names():
    facts = [Atom("p", (Const("a"),)), Atom("p", (Const("b"),))]
    rules = facts_as_rules(facts, taken=("f1", "r1"))
    assert [r.name for r in rules] == ["f2", "f3"]
    assert all(r.is_fact() for r in rules)


def test_dump_facts_reparses_to_the_same_facts():
    store = evaluate(fixture_program("route.dl"))
    text = dump_facts(store)
    reread = parse_program(text)
    assert all(r.is_fact() for r in reread.rules)
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
