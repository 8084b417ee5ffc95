"""The magic-set rewrite behind prove (ddlite.magic), against full
evaluation: the same answers, the same prove output, and stores whose
facts replay against the original program."""

import random

import pytest

from ddlite import magic
from ddlite.cli import main
from ddlite.engine import EvalOptions, auto_pt, evaluate, validate_store
from ddlite.errors import ResourceLimitExceeded
from ddlite.kernel import Atom, Const, PredKey, Var, match, term_text
from ddlite.magic import evaluate_goal, magic_program
from ddlite.syntax import parse_atom, parse_program, print_program

from oracles import CONSTANTS, model_of_store, random_program, random_recursive_program


def _matching(store, goal):
    return {
        term_text(f)
        for f in store.sorted_facts()
        if f.key == goal.key and match(goal.args, f.args, {}) is not None
    }


def _random_goals(rng, p, full, traced):
    """Three goals on predicates p defines, each binding one or two of its
    arguments (not the proof tree) to constants, most of them read off a
    fact of the full model, so that most goals have a proof."""
    keys = sorted({r.head.key for r in p.rules}, key=str)
    goals = []
    while len(goals) < 3:
        key = rng.choice(keys)
        width = key.arity - 1 if traced else key.arity
        if width < 1:
            continue
        facts = full.facts(key)
        source = rng.choice(facts).args if facts and rng.random() < 0.7 else None
        args = [Var(f"V{i}") for i in range(key.arity)]
        for i in rng.sample(range(width), min(width, rng.randint(1, 2))):
            args[i] = source[i] if source else Const(rng.choice(CONSTANTS))
        goals.append(Atom(key.name, tuple(args)))
    return goals


def _prove(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _programs():
    """(rule text, auto_pt) pairs: random programs with and without
    negation, and recursive ones, each plain and traced."""
    rng = random.Random(2311)
    texts = [
        print_program(random_program(rng, allow_negation=k % 2 == 0)) for k in range(24)
    ]
    texts += [random_recursive_program(rng) for _ in range(12)]
    return [(text, traced) for text in texts for traced in (False, True)]


def test_the_rewrite_agrees_with_full_evaluation(capsys, monkeypatch, tmp_path):
    rng = random.Random(1986)
    rewritten = 0
    for k, (text, traced) in enumerate(_programs()):
        p = parse_program(text)
        if traced:
            p = auto_pt(p)
        full = evaluate(p)
        model = model_of_store(full)
        path = tmp_path / f"p{k}.dl"
        path.write_text(text, encoding="utf-8")
        for goal in _random_goals(rng, p, full, traced):
            shown = f"{goal} in\n{print_program(p)}"
            program = magic_program(p, goal)
            if program is not None:
                rewritten += 1
                store = evaluate(program)
                user = p.pred_keys()
                # the answers, and only facts of the full model
                assert _matching(store, goal) == _matching(full, goal), shown
                facts = {term_text(f) for f in store.sorted_facts() if f.key in user}
                assert facts <= model, shown
                # every fact of a user predicate replays against p
                bad = [f for f in validate_store(p, store) if f.key in user]
                assert bad == [], shown
            for fmt in ("term", "ascii", "dot"):
                argv = ["prove", str(path), "--atom", term_text(goal), "--format", fmt]
                argv += ["--auto-pt"] if traced else []
                demanded = _prove(capsys, argv)
                with monkeypatch.context() as m:
                    m.setattr(magic, "magic_program", lambda p, goal: None)
                    assert _prove(capsys, argv) == demanded, shown
    # the rest bind only facts, or arguments the calls below do not
    assert rewritten >= 100, rewritten


def _right_chain(n):
    return auto_pt(parse_program(
        "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(n))
        + "path(X, Y) :- edge(X, Y).\n"
        + "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
    ))


def _path_facts(n):
    """The path/3 facts prove stores for path(n<n-10>, n<n>, T) on the
    auto_pt chain of n edges."""
    store = evaluate_goal(_right_chain(n), parse_atom(f"path(n{n - 10}, n{n}, T)"))
    return len(store.facts(PredKey(None, "path", 3)))


def test_a_bound_goal_stores_facts_in_proportion_to_its_proof():
    # the demand runs from n<n-10> down the chain, so the path facts are
    # the ten the proof holds at any length; full evaluation stores
    # n(n+1)/2 of them, 80,200 at n = 400
    assert _path_facts(100) == _path_facts(400) == 10


def test_the_original_program_decides_when_the_rewrite_fails(capsys, monkeypatch,
                                                           tmp_path):
    # reach demands backward from n30 to n0 and then answers forward: 61
    # passes, where full evaluation needs 31, so at 40 the rewritten
    # program stops on the limit and prove evaluates the original
    f = tmp_path / "reach.dl"
    f.write_text(
        "reach(n0).\n"
        + "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(30))
        + "reach(Y) :- edge(X, Y), reach(X).\n",
        encoding="utf-8",
    )
    p = auto_pt(parse_program(f.read_text(encoding="utf-8")))
    goal = parse_atom("reach(n30, T)")
    with pytest.raises(ResourceLimitExceeded, match="iteration limit 40"):
        evaluate(magic_program(p, goal), EvalOptions(max_iterations=40))
    argv = ["prove", str(f), "--auto-pt", "--atom", "reach(n30, T)",
            "--max-iterations", "40", "--format", "ascii"]
    code, out, err = _prove(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["reach(n30) [r32]", "  edge(n29, n30) [r31]"]
    with monkeypatch.context() as m:
        m.setattr(magic, "magic_program", lambda p, goal: None)
        assert _prove(capsys, argv) == (code, out, err)


@pytest.mark.parametrize(
    "text, goal, guarded",
    [
        ("p(a). q(X) :- p(X).", "q(X)", None),  # binds nothing
        ("p(a). q(X) :- p(X).", "prolog:q(a)", None),  # a module prefix
        ("p(a). q(X) :- p(X).", "p(a)", None),  # facts alone
        # the recursive call binds the second position, the goal the first
        ("p(a, b). q(X, Y) :- p(X, Y). q(X, Y) :- q(Y, X).", "q(a, Y)", None),
        # and here q's two calls do: r is guarded, q is read in full
        ("p(a, b). q(X, Y) :- p(X, Y). r(X) :- q(X, Y). r(Y) :- q(Z, Y).", "r(a)",
         {"r3", "r4"}),
        # t is read under negation and depends on q: both are read in full
        ("p(a). q(X) :- p(X). t(X) :- q(X). r(X) :- q(X), not t(X).", "r(a)", {"r4"}),
        # q(f(X)) binds nothing: demand q(f(a)), q(f(f(a))), ... would
        # never end, where the model holds q(a) alone
        ("e(a). q(X) :- e(X). q(X) :- q(f(X)). p(X) :- e(X), q(X).", "p(a)", {"r4"}),
        # u is not reached: its rule is left out
        ("e(a, b). e(b, c). q(X, Y) :- e(X, Y). q(X, Z) :- e(X, Y), q(Y, Z).\n"
         "u(X) :- e(X, Y).", "q(a, Z)", {"r3", "r4"}),
    ],
    ids=["unbound", "module", "facts", "goal-unbound", "callee-unbound", "negated",
         "open-compound", "chain"],
)
def test_the_rules_the_rewrite_guards(text, goal, guarded):
    p, goal = parse_program(text), parse_atom(goal)
    program = magic_program(p, goal)
    if guarded is None:
        assert program is None
        return
    names = {key.name for key in p.pred_keys()}
    assert guarded == {
        r.name for r in program.rules
        if r.head.predicate in names and r.body[:1]
        and r.body[0].atom.predicate not in names
    }
    kept = {r.name for r in program.rules} & {r.name for r in p.rules}
    assert kept == {r.name for r in p.rules if r.head.predicate != "u"}
    assert _matching(evaluate(program), goal) == _matching(evaluate(p), goal)


def test_demand_names_collide_with_no_predicate():
    # m_p and m_p1 are the program's own, and p/2 and p/1 each need a name
    p = parse_program(
        "m_p(a). m_p1(c). e(a, b). e(b, c).\n"
        "p(X, Y) :- e(X, Y), m_p(X).\n"
        "p(X) :- e(X, Y), m_p1(Y).\n"
        "q(X) :- p(X, Y), p(Y).\n"
    )
    goal = parse_atom("q(a)")
    program = magic_program(p, goal)
    demand = {r.head.key for r in program.rules} - p.pred_keys()
    assert sorted(map(str, demand)) == ["m_p2/1", "m_p3/1", "m_q/1"]
    assert _matching(evaluate(program), goal) == _matching(evaluate(p), goal) == {"q(a)"}
    p = parse_program("m_p(a). e(a). p(X) :- e(X), m_p(X).")
    program = magic_program(p, parse_atom("p(a)"))
    assert {r.head.predicate for r in program.rules} - {"m_p", "e", "p"} == {"m_p1"}
