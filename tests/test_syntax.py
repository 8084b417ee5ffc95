"""Rule text, SWRL abstract syntax, and the XML subset."""

import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddlite.engine import check_calls, evaluate
from ddlite.errors import (
    DdliteError,
    EmptyConsequent,
    ParseError,
    TranslationError,
    UnknownBuiltin,
    UnsupportedConstruct,
    XmlParseError,
)
from ddlite.kernel import (
    Atom,
    Compound,
    Const,
    Num,
    PredKey,
    Var,
    parse_number,
    term_text,
)
from ddlite import syntax
from ddlite.syntax import (
    SwrlRule,
    TermParser,
    Token,
    lloyd_topor,
    parse_atom,
    parse_program,
    parse_ruleml_xml,
    parse_swrl,
    print_program,
    swrl_to_datalog,
    tokenize,
)
from ddlite.hybrid import parse_goal, parse_template
from ddlite.xmlterm import Text, XmlTerm, parse_xml, xml_to_text
from oracles import (
    char_tokens,
    reference_parse_atom,
    reference_parse_number,
    reference_parse_program,
    reference_parse_swrl,
    reference_parse_xml,
    reference_scan_xml,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_kinds():
    toks = tokenize("p(X, 'a b', 12, 3.5) :- q.", "<t>")
    kinds = [t.kind for t in toks]
    assert kinds == [
        "atom", "punct", "var", "punct", "quoted", "punct", "num",
        "punct", "num", "punct", "punct", "atom", "end", "eof",
    ]


def test_tokenize_two_char_operators():
    toks = tokenize("X := Y, A =< B, C >= D, E =:= F", "<t>")
    values = [t.value for t in toks if t.kind == "punct"]
    assert ":=" in values and "=<" in values and ">=" in values
    assert "=:=" in values


def test_tokenize_comments_and_name_directive():
    toks = tokenize("% plain comment\n% name: r9\np.", "<t>")
    assert toks[0].kind == "directive" and toks[0].value == "r9"
    assert toks[1].kind == "atom"


def test_tokenize_quoted_escapes():
    toks = tokenize(r"'don\'t'.", "<t>")
    assert toks[0].kind == "quoted" and toks[0].value == "don't"


def test_tokenize_error_position():
    with pytest.raises(ParseError) as err:
        tokenize("p(\n  #).", "<file>")
    assert "<file>:2:" in str(err.value)


def test_tokenize_counts_the_lines_inside_a_quoted_atom():
    toks = tokenize("p('a\nb').\nq(X).", "<t>")
    assert [(t.value, t.line, t.col) for t in toks[5:7]] == [("q", 3, 1), ("(", 3, 2)]
    with pytest.raises(ParseError) as err:
        parse_program("p('a\nb').\nq(X) :- .\n", "ml.dl")
    assert str(err.value) == "ml.dl:3:9: unexpected token '.'"


def test_tokenize_numbers_are_decimal_digits():
    toks = tokenize("p(٣, 12, 1.5, 2e3, 7.e, 1.x).", "<t>")
    values = [(t.kind, t.value) for t in toks if t.kind in ("num", "atom")]
    assert values == [
        ("atom", "p"), ("num", 3), ("num", 12), ("num", 1.5), ("num", 2000.0),
        ("num", 7), ("atom", "e"), ("num", 1), ("atom", "x"),
    ]
    # a digit that is no decimal digit starts no token
    for text in ("p(²).", "p(1²).", "p(Ⅰ)."):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize(text, "<t>")
    with pytest.raises(ParseError) as err:
        tokenize("p(²).", "f.dl")
    assert str(err.value) == "f.dl:1:3: unexpected character '²'"
    # but it may go on inside a word, as any letter or digit may
    assert tokenize("a² Été", "<t>")[:2] == [
        Token("atom", "a²", 1, 1, 0), Token("var", "Été", 1, 4, 3)
    ]


def test_tokenize_quoted_atoms_end_at_a_lone_quote():
    toks = tokenize(r"'it''s' 'a\\b\n' ''''.", "<t>")
    assert [t.value for t in toks[:3]] == ["it's", "a\\b\n", "'"]
    for text in ("p('ab'').", "p('ab\\", "'"):
        with pytest.raises(ParseError, match="unterminated quoted atom"):
            tokenize(text, "<t>")
    with pytest.raises(ParseError) as err:
        tokenize("p(a).\nq('ab'').", "<t>")
    assert str(err.value) == "<t>:2:3: unterminated quoted atom"


# ---------------------------------------------------------------------------
# program parsing
# ---------------------------------------------------------------------------


def test_parse_fact_and_rule():
    p = parse_program("p(a).\nq(X) :- p(X).")
    assert [r.name for r in p.rules] == ["r1", "r2"]
    assert p.rules[0].head == Atom("p", (Const("a"),))
    assert not p.rules[0].body
    assert p.rules[1].body[0].atom == Atom("p", (Var("X"),))


def test_name_directive_names_next_clause():
    p = parse_program("% name: base\np(a).\np(b).")
    assert [r.name for r in p.rules] == ["base", "r1"]


def test_duplicate_explicit_names_rejected():
    with pytest.raises(ParseError):
        parse_program("% name: x\np.\n% name: x\nq.")


def test_auto_names_skip_explicit_ones():
    p = parse_program("% name: r2\na.\nb.\nc.")
    assert [r.name for r in p.rules] == ["r2", "r1", "r3"]


def test_negation_forms():
    p = parse_program("p(X) :- q(X), not(r(X)).\ns(X) :- q(X), not r(X).")
    assert p.rules[0].body[1].is_negated()
    assert p.rules[1].body[1].is_negated()
    assert p.rules[1].body[1].atom == Atom("r", (Var("X"),))


def test_not_as_plain_zero_arity_predicate():
    p = parse_program("p :- not.")
    lit = p.rules[0].body[0]
    assert not lit.is_negated() and lit.atom == Atom("not", ())


def test_module_prefixed_goals():
    p = parse_program("p(L) :- q(N), prolog:(L is N+1).\nr(T) :- prolog:pt(T, t).")
    call = p.rules[0].body[1].atom
    assert call.module_prefix == "prolog" and call.predicate == "is"
    pt = p.rules[1].body[0].atom
    assert pt.module_prefix == "prolog" and pt.key.name == "pt"


def test_arithmetic_precedence_shape():
    p = parse_program("p(X) :- prolog:(X is 1+2*3).")
    rhs = p.rules[0].body[0].atom.args[1]
    assert rhs == Compound("+", (Num(1), Compound("*", (Num(2), Num(3)))))


def test_conjunctions_fold_to_the_right():
    a, b, c, d = (Const(n) for n in "abcd")
    t = TermParser(tokenize("a, b = c, d + a, (b, c)", "<t>")).term(1200)
    assert t == Compound(",", (a, Compound(",", (
        Compound("=", (b, c)),
        Compound(",", (Compound("+", (d, a)), Compound(",", (b, c)))),
    ))))
    assert TermParser(tokenize("(a, b), c", "<t>")).term(1200) == Compound(
        ",", (Compound(",", (a, b)), c)
    )


def test_a_long_conjunction_parses_without_recursion():
    n = 1200
    goals = ", ".join(f"q{i}(X)" for i in range(n))
    p = parse_program(f"p(L) :- findall(X, ({goals}), L).")
    conj = p.rules[0].body[0].atom.args[1]
    names = []
    while isinstance(conj, Compound) and conj.functor == ",":
        names.append(conj.args[0].functor)
        conj = conj.args[1]
    names.append(conj.functor)
    assert names == [f"q{i}" for i in range(n)]


def test_terms_nested_too_deeply_are_a_parse_error():
    deep = "[" * 400 + "]" * 400
    readers = [
        (parse_program, f"q.\np({deep}) :- q.", "2:1"),
        (parse_goal, f"q, p({deep})", "1:1"),
        (parse_template, f"[{deep}]", "1:1"),
        (parse_atom, f"p({deep})", "1:1"),
    ]
    for reader, text, at in readers:
        with pytest.raises(ParseError) as err:
            reader(text, "f")
        assert str(err.value) == f"f:{at}: term nested too deeply"
        # a lexical error after it still comes first, as in tokenize
        with pytest.raises(ParseError, match="unexpected character '#'"):
            reader(text + " #", "f")
    # three stack frames a level, as before flat lists: lists, arguments
    # and operands 260 deep still parse
    for inner in ("[" * 260 + "]" * 260, "f(" * 260 + "a" + ")" * 260,
                  "1+(" * 260 + "1" + ")" * 260):
        assert len(parse_atom(f"p({inner})").args) == 1


def test_lists_parse_with_tails():
    p = parse_program("p([1, 2|T], []) :- q(T).")
    first, second = p.rules[0].head.args
    assert term_text(first) == "[1, 2|T]"
    assert term_text(second) == "[]"


def test_cut_and_curly_names():
    p = parse_program("p :- q, !.")
    assert p.rules[0].body[1].atom == Atom("!", ())


def test_anonymous_variables_are_made_distinct():
    p = parse_program("p(X) :- q(X, _), r(X, _).")
    body_vars = [term_text(l.atom.args[1]) for l in p.rules[0].body]
    assert body_vars[0] != body_vars[1]


def test_parse_error_mentions_file_and_line():
    with pytest.raises(ParseError) as err:
        parse_program("p :- q\nr.", "prog.dl")
    assert "prog.dl" in str(err.value)


def test_missing_final_dot_rejected():
    with pytest.raises(ParseError):
        parse_program("p :- q")


def test_head_cannot_be_a_variable_or_number():
    with pytest.raises(ParseError):
        parse_program("X :- q.")
    with pytest.raises(ParseError):
        parse_program("7.")


def test_print_parse_roundtrip_on_fixture_programs():
    for name in (
        "route.dl", "route_plain.dl", "ancestor.dl", "p1.dl", "p2.dl",
        "h1.dl", "h2.dl", "uncle.dl", "opm_facts.dl",
    ):
        p = parse_program(fixture(name), name)
        text = print_program(p)
        assert print_program(parse_program(text, name)) == text, name


# ---------------------------------------------------------------------------
# SWRL abstract syntax
# ---------------------------------------------------------------------------


def test_parse_swrl_uncle_shape():
    rules = parse_swrl(fixture("uncle.swrl"))
    assert len(rules) == 1
    rule = rules[0]
    assert rule.antecedent == (
        Atom("parent", (Var("x"), Var("y"))),
        Atom("brother", (Var("y"), Var("z"))),
    )
    assert rule.consequent == (Atom("uncle", (Var("x"), Var("z"))),)


def test_parse_swrl_class_atoms_individuals_and_literals():
    rules = parse_swrl(
        'Implies(Antecedent(person(I-variable(x)) age(I-variable(x) 42)'
        ' city(I-variable(x) "Berlin")) Consequent(adult(I-variable(x))))'
    )
    ante = rules[0].antecedent
    assert ante[0] == Atom("person", (Var("x"),))
    assert ante[1] == Atom("age", (Var("x"), Num(42)))
    assert ante[2] == Atom("city", (Var("x"), Const("Berlin")))


def test_parse_swrl_same_different_and_builtin():
    rules = parse_swrl(
        "Implies(Antecedent(same_as(I-variable(x) mary)"
        " differentFrom(I-variable(x) I-variable(y))"
        " builtin(greaterThan I-variable(x) 3)"
        " swrlx:create_owl_thing(I-variable(b) I-variable(x)))"
        " Consequent(p(I-variable(x))))"
    )
    ante = rules[0].antecedent
    assert ante[0] == Atom("same_as", (Var("x"), Const("mary")), "prolog")
    assert ante[1] == Atom("different_from", (Var("x"), Var("y")), "prolog")
    assert ante[2] == Atom("greaterThan", (Var("x"), Num(3)), "prolog")
    assert ante[3] == Atom("create_owl_thing", (Var("b"), Var("x")), "prolog")


def test_parse_swrl_annotations_are_kept_verbatim():
    rules = parse_swrl(
        "Implies(annotation(source(ex)) Antecedent(q(I-variable(x)))"
        " Consequent(p(I-variable(x))))"
    )
    assert rules[0].annotations == ("(source(ex))",)
    # strings keep their parentheses and line breaks; blanks inside stay
    rules = parse_swrl(
        'Implies(annotation(rdfs:comment "a (note)\n  on two lines")'
        " annotation( label  (nested (deep) ) )\n"
        " Antecedent(q(I-variable(x) 2.5)) Consequent(p(I-variable(x))))"
    )
    assert rules[0].annotations == (
        '(rdfs:comment "a (note)\n  on two lines")',
        "( label  (nested (deep) ) )",
    )
    assert rules[0].antecedent == (Atom("q", (Var("x"), Num(2.5))),)


def test_parse_swrl_rejects_wide_plain_atoms():
    with pytest.raises(ParseError):
        parse_swrl(
            "Implies(Antecedent(trip(I-variable(x) I-variable(y) I-variable(z)))"
            " Consequent(p(I-variable(x))))"
        )


SWRL_ERRORS = [
    (
        "Implies(Antecedent(p(I-variable(x))) Consequent(q(I-variable(x)))",
        "f.swrl:1:66: expected ')', found ''",
    ),
    (
        "Implies(Antecedent(p(I-variable(x))) Consequent(q(I-variable(x))))"
        "\n\n  junk(",
        "f.swrl:3:3: expected 'Implies', found 'junk'",
    ),
    (
        # points at the end of the previous token, before the blanks
        "Implies(Antecedent(p(I-variable(x)))\n   Consequent(q(I-variable(  $x))))\n",
        "f.swrl:2:28: unexpected input",
    ),
    (
        "Implies(Antecedent(\n            p(I-variable(x) I-variable(y) I-variable(z)))"
        "\n Consequent(q(I-variable(x))))",
        "f.swrl:2:13: unknown atom form p/3",
    ),
    ("Implies(annotation(label \n", "f.swrl:1:25: unterminated annotation"),
    (
        "Implies(Antecedent(p(I-variable(x)))\n   Consequent(q(I-variable(x)",
        "f.swrl:2:30: unexpected '' in atom arguments",
    ),
    (
        'Implies(Antecedent(p(I-variable("x"))) Consequent(q(I-variable(x))))',
        "f.swrl:1:33: expected a variable name",
    ),
    (
        # a syntax error before unreadable input is the one reported
        "Implies(Antecedent(p(I-variable(x))) Consequnt(q(I-variable(x))) $)",
        "f.swrl:1:38: expected 'Consequent', found 'Consequnt'",
    ),
    (
        # lines are counted through a string that spans lines
        'Implies(annotation("one\ntwo")\n   Antecedent(q(I-variable(7))))',
        "f.swrl:3:28: expected a variable name",
    ),
    (
        # a built-in's name is an individual, not a string or a variable
        'Implies(Antecedent(builtin("add" I-variable(x))) Consequent(q(I-variable(x))))',
        "f.swrl:1:20: builtin needs a builtin name first",
    ),
    (
        "Implies(Antecedent(builtin(I-variable(x) 3)) Consequent(q(I-variable(x))))",
        "f.swrl:1:20: builtin needs a builtin name first",
    ),
    pytest.param(
        # more digits than int() converts
        "Implies(Antecedent(q(I-variable(x) " + "1" * 5000
        + ")) Consequent(p(I-variable(x))))",
        "f.swrl:1:36: integer of 5000 digits is too long",
        id="number-of-5000-digits",
    ),
]


@pytest.mark.parametrize("text, message", SWRL_ERRORS)
def test_parse_swrl_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_swrl(text, "f.swrl")
    assert str(err.value) == message


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_parse_swrl_is_linear_in_the_text(tmp_path):
    # 2,080 generated rules; a reader that re-slices the rest of the text
    # per token takes about 3 s here
    case = _perfbench_workloads().make_rulebase(
        random.Random(1), {"rules": 2080}, tmp_path
    )
    text = (tmp_path / "rules.swrl").read_text(encoding="utf-8")
    t0 = time.perf_counter()
    rules = parse_swrl(text, "rules.swrl")
    elapsed = time.perf_counter() - t0
    program = swrl_to_datalog([r for rule in rules for r in lloyd_topor(rule)])
    assert case.steps[0].check(print_program(program).encode()) is None
    assert elapsed < 1.5


def test_a_reader_compiles_only_the_rule_patterns_its_text_needs(monkeypatch):
    # the rule-text patterns compile on first use: SWRL, and its Datalog
    # translation printed, compile none; a program of flat clauses only the
    # literal pattern, up to its end; a comment or an operator the token
    # pattern too; a goal, `--atom` or a template, flat or not, only the
    # token pattern
    monkeypatch.setattr(syntax, "_RULE_PATTERNS", {})
    rules = parse_swrl(fixture("uncle.swrl"), "uncle.swrl")
    text = print_program(swrl_to_datalog([r for rule in rules for r in lloyd_topor(rule)]))
    assert syntax._RULE_PATTERNS == {}
    parse_program(text + "parent(a, b).\n\n")
    assert list(syntax._RULE_PATTERNS) == ["literal"]
    parse_program("% name: u\np(X) :- q(X).")
    assert sorted(syntax._RULE_PATTERNS) == ["literal", "token"]
    workloads = _perfbench_workloads()
    for read, text in (
        (parse_atom, "route(c0, c16, L, T)"),
        (parse_goal, workloads.HOURS_GOAL),
        (parse_template, workloads.HOURS_TEMPLATE),
    ):
        monkeypatch.setattr(syntax, "_RULE_PATTERNS", {})
        read(text)
        assert list(syntax._RULE_PATTERNS) == ["token"], text


def test_lloyd_topor_splits_consequents():
    rules = parse_swrl(fixture("opm.swrl"))
    split = lloyd_topor(rules[0])
    assert len(split) == 4
    assert all(len(r.consequent) == 1 for r in split)
    assert all(r.antecedent == rules[0].antecedent for r in split)


def test_lloyd_topor_rejects_empty_consequent():
    rules = parse_swrl("Implies(Antecedent(q(I-variable(x))) Consequent())")
    with pytest.raises(EmptyConsequent):
        lloyd_topor(rules[0])


def test_swrl_to_datalog_uncle():
    prog = swrl_to_datalog(parse_swrl(fixture("uncle.swrl")))
    assert print_program(prog) == "uncle(X, Z) :- parent(X, Y), brother(Y, Z).\n"


def test_swrl_to_datalog_requires_single_consequent():
    rules = parse_swrl(fixture("opm.swrl"))
    with pytest.raises(TranslationError):
        swrl_to_datalog(rules)


def test_swrl_to_datalog_rejects_capitalization_collision():
    rules = parse_swrl(
        "Implies(Antecedent(p(I-variable(x) I-variable(X)))"
        " Consequent(q(I-variable(x))))"
    )
    with pytest.raises(TranslationError) as err:
        swrl_to_datalog(rules)
    # the name seen first is named first
    assert str(err.value) == "variables 'x' and 'X' collide as 'X'"
    # the head is read before it is rejected as a built-in, so a collision
    # among its own variables is the error reported
    rules = parse_swrl(
        "Implies(Antecedent(p(I-variable(y) I-variable(Y)))"
        " Consequent(swrlb:add(I-variable(x) I-variable(X))))"
    )
    with pytest.raises(TranslationError) as err:
        swrl_to_datalog(rules)
    assert str(err.value) == "variables 'x' and 'X' collide as 'X'"


def test_swrl_variable_names_print_as_rule_variables():
    rules = parse_swrl(
        "Implies(Antecedent(p(I-variable(x-y) mary-ann) q(I-variable(a.b))"
        " q(I-variable(c:d)) q(I-variable(_)))"
        " Consequent(r(I-variable(x-y) I-variable(a.b))))"
    )
    prog = swrl_to_datalog(rules)
    assert print_program(prog) == (
        "r(X_y, A_b) :- p(X_y, 'mary-ann'), q(A_b), q(C_d), q(_V).\n"
    )
    rules = parse_swrl(
        "Implies(Antecedent(p(I-variable(x-y) I-variable(x.y)))"
        " Consequent(q(I-variable(x-y))))"
    )
    with pytest.raises(TranslationError) as err:
        swrl_to_datalog(rules)
    assert str(err.value) == "variables 'x-y' and 'x.y' collide as 'X_y'"
    # RuleML variable names are any text
    rules = [SwrlRule((), (Atom("p", (Var("1x"), Var("a b"), Var("é"))),),
                      (Atom("q", (Var("1x"),)),))]
    prog = swrl_to_datalog(rules)
    assert print_program(prog) == "q(_1x) :- p(_1x, A_b, _V).\n"
    assert parse_program(print_program(prog)) == prog


# names of the SWRL name pattern, with each character it allows beyond
# those of a rule variable ('-', '.' and ':')
_LETTERS = "abxyzABXYZ_"
_SWRL_NAMES = st.builds(
    str.__add__, st.sampled_from(_LETTERS), st.text(_LETTERS + "09:.-", max_size=3)
)
_SWRL_ARGS = st.one_of(
    _SWRL_NAMES.map(lambda name: f"I-variable({name})"),
    _SWRL_NAMES,
    st.sampled_from(["0", "12", "3.5", "007", "1.50"]),
    st.text("a b'\\%.\n", max_size=4).map(lambda text: f'"{text}"'),
)


@st.composite
def _swrl_atoms(draw, predicates):
    args = draw(st.lists(_SWRL_ARGS, min_size=1, max_size=2))
    return f"{draw(st.sampled_from(predicates))}({' '.join(args)})"


@settings(max_examples=150, derandomize=True, database=None)
@given(
    st.lists(
        _swrl_atoms(["p", "hasParent", "Person", "r-s", "swrlb:add", "swrlb:lessThan"]),
        min_size=1,
        max_size=3,
    ),
    _swrl_atoms(["q", "hasUncle", "r-s"]),
)
def test_swrl_output_parses_back_to_the_same_program(body, head):
    text = f"Implies(Antecedent({' '.join(body)}) Consequent({head}))"
    rules = [r for rule in parse_swrl(text) for r in lloyd_topor(rule)]
    try:
        prog = swrl_to_datalog(rules)
    except TranslationError:
        assume(False)  # two source names that collide as one
    assert parse_program(print_program(prog)) == prog


@pytest.mark.parametrize(
    "call, text",
    [
        ("swrlb:greaterThan(D-variable(a) 1)", "prolog:(A > 1)"),
        ("swrlb:greaterThanOrEqual(D-variable(a) 1)", "prolog:(A >= 1)"),
        ("swrlb:lessThan(D-variable(a) 1)", "prolog:(A < 1)"),
        ("swrlb:lessThanOrEqual(D-variable(a) 1)", "prolog:(A =< 1)"),
        ("builtin(swrlb:add D-variable(b) D-variable(a) 1)", "prolog:(B is A+1)"),
        ("builtin(swrlb:subtract D-variable(b) D-variable(a) 1)", "prolog:(B is A-1)"),
        ("builtin(swrlb:multiply D-variable(b) D-variable(a) 1)", "prolog:(B is A*1)"),
        ("builtin(swrlb:divide D-variable(b) D-variable(a) 1)", "prolog:(B is A/1)"),
        # other names and arities keep their SWRL name, which no builtin has
        ("builtin(swrlb:add D-variable(b) D-variable(a))", "prolog:add(B, A)"),
        ("swrlb:pow(D-variable(b) D-variable(a) 2)", "prolog:pow(B, A, 2)"),
        ("swrlb:lessThan(D-variable(a) 1 2)", "prolog:lessThan(A, 1, 2)"),
    ],
)
def test_swrl_comparisons_and_arithmetic_call_the_builtins(call, text):
    rules = parse_swrl(
        f"Implies(Antecedent(n(D-variable(a)) {call}) Consequent(q(D-variable(a))))"
    )
    prog = swrl_to_datalog(rules)
    assert print_program(prog) == f"q(A) :- n(A), {text}.\n"
    assert parse_program(print_program(prog)) == prog
    if text.startswith("prolog:("):
        check_calls(prog)
    else:
        with pytest.raises(UnknownBuiltin):
            check_calls(prog)


def test_swrl_builtins_evaluate():
    source = Path(__file__).parent / "golden" / "inputs" / "swrl_builtins.swrl"
    rules = parse_swrl(source.read_text(encoding="utf-8"))
    text = print_program(swrl_to_datalog(rules)) + "age(ann, 30).\nage(bob, 12).\n"
    store = evaluate(parse_program(text))
    next_age = store.facts(PredKey(None, "next_age", 2))
    assert next_age == [Atom("next_age", (Const("ann"), Num(31)))]


def test_swrl_to_datalog_rejects_builtin_head():
    rules = parse_swrl(
        "Implies(Antecedent(q(I-variable(x)))"
        " Consequent(swrlx:make(I-variable(x))))"
    )
    with pytest.raises(TranslationError):
        swrl_to_datalog(rules)


# ---------------------------------------------------------------------------
# XML subset and RuleML
# ---------------------------------------------------------------------------


def test_parse_xml_attributes_text_and_entities():
    root = parse_xml('<a x="1&amp;2"><b/>hi &lt;there&gt;</a>')
    assert root.tag == "a" and root.attributes == {"x": "1&2"}
    assert root.child_elements()[0].tag == "b"
    assert root.text() == "hi <there>"


def test_parse_xml_comments_are_skipped():
    root = parse_xml("<a><!-- note --><b/></a>")
    assert [c.tag for c in root.child_elements()] == ["b"]


def test_parse_xml_mismatched_tag_rejected():
    with pytest.raises(XmlParseError):
        parse_xml("<a><b></a></b>")


def test_parse_xml_duplicate_attribute_rejected():
    with pytest.raises(XmlParseError):
        parse_xml('<a x="1" x="2"/>')


def test_xml_to_text_roundtrip():
    source = '<table name="works_on"><row ESSN="11"/>text</table>'
    root = parse_xml(source)
    again = parse_xml(xml_to_text(root))
    assert again.attributes == root.attributes
    assert [type(c) for c in again.children] == [type(c) for c in root.children]


def test_xml_to_text_of_a_deeply_nested_document():
    # compare strings: XmlTerm equality recurses per level too
    source = '<a n="1">' * 3000 + "x &amp; y" + "</a>" * 3000
    assert xml_to_text(parse_xml(source)) == source


# Generated documents: names, entities, both quotes, comments and
# processing instructions inside text, `<a x="1"y="2"/>`, `</a >`, and
# whitespace before and after the root.
_XML_NAMES = st.sampled_from(["a", "b", "x:y", "r.s-t_u", "A1"])
_XML_SPACE = st.sampled_from([" ", "  ", "\n  ", "\t"])
_XML_CLOSE_SPACE = ["", " ", "\n"]
_XML_TEXT = st.lists(
    st.sampled_from(
        ["t", " ", "\n  ", "&lt;", "&amp;", "&gt;", "&quot;", "&apos;", "é　",
         "<!-- c -->", "<?p i?>", "'\"", ">"]
    ),
    max_size=4,
).map("".join)
_XML_VALUE = st.lists(
    st.sampled_from(["v", " ", "&amp;", "&lt;", "&apos;", "'", '"', ">", "\n"]),
    max_size=3,
).map("".join)


@st.composite
def _xml_element(draw, depth=0):
    tag = draw(_XML_NAMES)
    out = [f"<{tag}"]
    attributes = draw(st.dictionaries(_XML_NAMES, _XML_VALUE, max_size=3))
    for i, (key, value) in enumerate(attributes.items()):
        quote = draw(st.sampled_from(["'", '"']))
        value = value.replace(quote, "&quot;" if quote == '"' else "&apos;")
        out.append("" if i and draw(st.booleans()) else draw(_XML_SPACE))
        out.append(f"{key}{draw(st.sampled_from(['=', ' = ']))}{quote}{value}{quote}")
    out.append(draw(st.sampled_from(["", " "])))
    children = draw(st.integers(min_value=0, max_value=3 if depth < 3 else 0))
    if not children and draw(st.booleans()):
        return "".join(out) + "/>"
    out.append(">")
    for _ in range(children):
        out.append(draw(_XML_TEXT))
        out.append(draw(_xml_element(depth + 1)))
    out.append(draw(_XML_TEXT))
    out.append(f"</{tag}{draw(st.sampled_from(_XML_CLOSE_SPACE))}>")
    return "".join(out)


_XML_DOCUMENTS = st.tuples(
    st.sampled_from(["", '<?xml version="1.0"?>\n', "<!-- lead -->\n", " "]),
    _xml_element(),
    st.sampled_from(["", "\n", "\n<!-- tail --><?p?>\n"]),
).map("".join)


def _xml_outcome(reader, text):
    """The tree, or the error with its span."""
    try:
        return reader(text, "<x>")
    except XmlParseError as err:
        return str(err)


@settings(max_examples=150, derandomize=True, database=None)
@given(
    _XML_DOCUMENTS,
    st.lists(
        st.tuples(
            st.integers(min_value=0),
            st.sampled_from(["insert", "replace", "delete"]),
            st.sampled_from(list("<>/=\"'&;!?- ax\n")),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_parse_xml_agrees_with_the_stepping_scanner(document, edits):
    reference = _xml_outcome(reference_parse_xml, document)
    assert isinstance(reference, XmlTerm), reference
    assert _xml_outcome(parse_xml, document) == reference
    # each edit alone: one character inserted, replaced or deleted
    for at, op, char in edits:
        at %= len(document) + 1
        rest = document[at + (op != "insert") :]
        mutant = document[:at] + ("" if op == "delete" else char) + rest
        assert _xml_outcome(parse_xml, mutant) == _xml_outcome(reference_parse_xml, mutant), mutant


# Generated documents for the whole-tag match: attribute names that may
# repeat, values that may hold '<' or an entity reference, either quote,
# runs of whitespace or none between attributes and around `=`, text with
# comments and processing instructions, and self-closing and nested tags.
_TAG_VALUE = st.lists(
    st.sampled_from(["v", "<", "w x", ">", "\n", "&amp;", "&quot;", "'", '"']),
    max_size=3,
).map("".join)
_TAG_SPACE = st.sampled_from([" ", "  ", "\n\t", " \r\n ", ""])
_TAG_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.sampled_from(["insert", "replace", "delete"]),
        st.sampled_from(list("<>/=\"'&;!?- ax\n")),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def _tagged_element(draw, depth=0):
    tag = draw(_XML_NAMES)
    out = [f"<{tag}"]
    for key, value in draw(st.lists(st.tuples(_XML_NAMES, _TAG_VALUE), max_size=4)):
        quote = draw(st.sampled_from(["'", '"']))
        value = value.replace(quote, "&quot;" if quote == '"' else "&apos;")
        out.append(draw(_TAG_SPACE))
        out.append(f"{key}{draw(st.sampled_from(['=', ' = ', '=  ']))}{quote}{value}{quote}")
    out.append(draw(_TAG_SPACE))
    children = draw(st.integers(min_value=0, max_value=3 if depth < 2 else 0))
    if not children and draw(st.booleans()):
        return "".join(out) + "/>"
    out.append(">")
    for _ in range(children):
        out.append(draw(_XML_TEXT))
        out.append(draw(_tagged_element(depth + 1)))
    out.append(draw(_XML_TEXT))
    out.append(f"</{tag}{draw(st.sampled_from(_XML_CLOSE_SPACE))}>")
    return "".join(out)


@settings(max_examples=300, derandomize=True, database=None)
@given(
    st.tuples(
        st.sampled_from(["", '<?xml version="1.0"?>\n', "<!-- lead -->\n", " "]),
        _tagged_element(),
        st.sampled_from(["", "\n", "\n<!-- tail --><?p?>\n"]),
    ).map("".join),
    _TAG_EDITS,
)
def test_parse_xml_agrees_with_the_part_scanner(document, edits):
    # the scanner as it read a start tag before the whole-tag match: the
    # same tree, or the same error message at the same offset, on the
    # document and on each one-character edit of it
    assert _xml_outcome(parse_xml, document) == _xml_outcome(reference_scan_xml, document)
    for at, op, char in edits:
        at %= len(document) + 1
        rest = document[at + (op != "insert") :]
        mutant = document[:at] + ("" if op == "delete" else char) + rest
        assert _xml_outcome(parse_xml, mutant) == _xml_outcome(reference_scan_xml, mutant), mutant


_NUMBER_PIECES = st.sampled_from(
    ["0", "1", "7", "+", "-", ".", "e", "E", " ", "_", "inf", "nan", "Infinity",
     "0x1f", "١٣", "１", "²", "　", "\t"]
)


@settings(max_examples=600, derandomize=True, database=None)
@given(
    st.one_of(
        st.lists(_NUMBER_PIECES, max_size=6).map("".join),
        st.tuples(
            st.sampled_from(["", "-", "0" * 4000]),
            st.sampled_from(["1", "9", "١"]),
            st.integers(min_value=4290, max_value=5010),
            st.sampled_from(["", ".5", "e-9"]),
        ).map(lambda t: t[0] + t[1] * t[2] + t[3]),
    )
)
@example("5.")
@example(".5")
@example("-1.5E+10")
@example(" 5")
@example("1_000")
@example("nan")
@example("١٣")
@example("１")
@example("²")
@example("1" * 5000)
@example("0" * 4999 + "1")
def test_parse_number_agrees_with_int_and_float(cell):
    # repr tells 1 from 1.0
    assert repr(parse_number(cell)) == repr(reference_parse_number(cell))


# Rule text and SWRL against the readers that lexed the whole text first
# and read every atom token by token (oracles.reference_parse_*): the
# shapes around flat atoms, each read once whole and then under single
# one-character edits.

# each shape that ends the read (1., a string, a 4,301-digit integer, not
# of a variable) is drawn seldom, so that most texts read to the end
_RULE_ARGS = st.sampled_from(
    8 * ["X", "Y", "_", "_G2", "_x", "Xé", "a", "abc", "not", "is", "a²", "0",
         "7", "42", "007", "1" * 18, "1" * 19, "٣", "1.5", "2e3", "-3", "'a b'",
         "'it''s'", "f(X)", "g(X, _)", "[X, b|T]", "[]", "X + 1"]
    + ["1.", '"s"', "7" * 4301]
)
_RULE_SEPARATORS = st.sampled_from([", ", ",", " , ", ",\n   ", ", % note\n  ", "\n, "])
_RULE_NAMES = st.sampled_from(["p", "q", "abc", "x1", "'Quoted name'", "'q'", "'.'"])


@st.composite
def _rule_atom(draw):
    name = draw(_RULE_NAMES)
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return name
    args = draw(st.lists(_RULE_ARGS, min_size=1, max_size=4))
    out = [name, draw(st.sampled_from(["(", " (", "(\n "]))]
    for i, arg in enumerate(args):
        out.append(draw(_RULE_SEPARATORS) if i else draw(st.sampled_from(["", " "])))
        out.append(arg)
    out.append(draw(st.sampled_from([")", " )", "\n)"])))
    return "".join(out)


@st.composite
def _rule_goal(draw):
    atom = draw(_rule_atom())
    shape = draw(st.sampled_from(
        4 * ["{}", "{}", "not({})", "not {}", "not(p)", "not p", "{} = q",
             "{} = q, r", "prolog:{}", "prolog:(X is Y + 1)", "X = a"]
        + ["not(X)"]
    ))
    return shape.format(atom)


@st.composite
def _rule_clause(draw):
    head = draw(_rule_atom())
    directive = draw(st.sampled_from(["", "", "% name: c1\n", "% plain\n"]))
    goals = draw(st.lists(_rule_goal(), max_size=3))
    body = " :- " + ", ".join(goals) if goals else ""
    return f"{directive}{head}{body}."


_RULE_TEXTS = st.lists(_rule_clause(), min_size=1, max_size=4).map("\n".join)
_EDIT_CHARS = list("()[],.:=_'\"%|-X a17\n\t") + ["²", "٣"]
_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.sampled_from(["insert", "replace", "delete"]),
        st.sampled_from(_EDIT_CHARS),
    ),
    min_size=1,
    max_size=4,
)


def _edited(text, edits):
    """text under each edit alone: one character inserted, replaced or
    deleted."""
    for at, op, char in edits:
        at %= len(text) + 1
        yield text[:at] + ("" if op == "delete" else char) + text[at + (op != "insert") :]


def _program_outcome(reader, text):
    """The program with the spans of its rules and atoms, which equality
    skips, or the error with its span."""
    try:
        p = reader(text, "<r>")
    except ParseError as err:
        return str(err)
    spans = [
        (r.span, r.head.span, [lit.atom.span for lit in r.body]) for r in p.rules
    ]
    return p, spans


@settings(max_examples=200, derandomize=True, database=None)
@given(_RULE_TEXTS, _EDITS)
@example("p(X) :- not(X).", [(0, "insert", " ")])
@example("p :- not(p), not p(X), not p.", [(5, "delete", " ")])
@example("p(X) = q :- r(X), r(X) = q, s.", [(3, "replace", ",")])
@example("p(_G1, _) :- q(_, _G3), r(_).", [(2, "replace", "_")])
@example("p(X) :- prolog:f(X), prolog:(X = a).", [(14, "delete", "x")])
@example("p(X,\n  Y) :- q(X, % note\n  Y).\nr(Z).", [(5, "insert", "\n")])
@example("p (X) :- q (X , 1).", [(1, "delete", "x")])
@example("p(1.).", [(3, "delete", "x")])
@example("p(" + "7" * 4301 + ").", [(4000, "delete", "x")])
@example("'q r'(X) :- 'p'(X), '.'(X, Y).", [(1, "replace", "'")])
@example("% name: a\np(X) :- q(X, 1).\n% name: b\nr :- not s, t(_).", [(22, "insert", "\n")])
@example("% name: a\np.\n% name: a\nq(Y) :- p.", [(17, "replace", "b")])
@example("p(X) :- q(X).\n% name: z\n", [(14, "delete", "x")])
@example("p :- not (p), not(p(X)), not, q.", [(9, "delete", "x")])
@example("p :- q, not.", [(11, "delete", "x")])
@example("p(123456789012345678).\nq(1234567890123456789).", [(4, "insert", "1")])
@example("p(X,\n  Y)\n  :- q(X),\n\n  not\n r(Y)\n  .\ns(\n1).", [(20, "insert", "%")])
@example("p(X) :- q(X)% c\n.\nr.", [(12, "delete", "x")])
@example("p(_, _G1) :- q(_G1, _), r(_, _G2).\ns(_).", [(3, "replace", "X")])
@example("p(X) :- q(X)", [(12, "insert", ",")])
@example("p(X) :- q(X).r(X).", [(13, "insert", " ")])
def test_parse_program_agrees_with_the_token_reader(text, edits):
    assert _program_outcome(parse_program, text) == _program_outcome(
        reference_parse_program, text
    ), text
    for mutant in _edited(text, edits):
        assert _program_outcome(parse_program, mutant) == _program_outcome(
            reference_parse_program, mutant
        ), mutant


def _atom_outcome(reader, text):
    """The atom with its span, which equality skips, or the error with its
    span."""
    try:
        atom = reader(text, "<a>")
    except ParseError as err:
        return str(err)
    return atom, atom.span


@settings(max_examples=200, derandomize=True, database=None)
@given(st.one_of(_rule_atom(), _rule_goal()), _EDITS)
@example("route(c0, c16, L, T)", [(19, "insert", ".")])
@example("p(X) = q", [(4, "delete", "x")])
@example("prolog:p(X, 1)", [(6, "replace", " ")])
@example("p(X).", [(5, "insert", "q")])
def test_parse_atom_agrees_with_the_token_reader(text, edits):
    for goal in (text, *_edited(text, edits)):
        assert _atom_outcome(parse_atom, goal) == _atom_outcome(
            reference_parse_atom, goal
        ), goal


_FLAT_SWRL_ARGS = st.sampled_from(
    6 * ["I-variable(x)", "I-variable( y )", "I-variable (x.y)", "D-variable(n)",
         "bob", "ex:val", "swrlb:add", "17", "2.5", '"s (t)"', '""', '"a\nb"']
    + ["17abc", 'I-variable("x")', "D-variable(1)", "1.", "I-variables(x)",
       "I-variable", "D-variable"]
)
# argument counts by atom name, mostly ones the reader accepts
_FLAT_SWRL_ARITIES = {
    "p": [1, 2, 1, 2, 0, 3], "hasParent": [2], "ex:r": [0, 1, 2, 3, 4],
    "sameAs": [2, 2, 2, 1], "differentFrom": [2, 2, 2, 3], "builtin": [1, 2, 3, 0],
    "annotation": [1], "I-variable": [1],
}


@st.composite
def _flat_swrl_atom(draw):
    name = draw(st.sampled_from(sorted(_FLAT_SWRL_ARITIES)))
    count = draw(st.sampled_from(_FLAT_SWRL_ARITIES[name]))
    args = draw(st.lists(_FLAT_SWRL_ARGS, min_size=count, max_size=count))
    if name == "builtin" and args and draw(st.integers(0, 3)):
        args[0] = "swrlb:add"
    gaps = st.sampled_from([" ", "", "\n   "])
    out = [name, draw(st.sampled_from(["(", " ("]))]
    for i, arg in enumerate(args):
        out.append(draw(gaps) if i else draw(st.sampled_from(["", " "])))
        out.append(arg)
    out.append(draw(st.sampled_from([")", " )"])))
    return "".join(out)


@st.composite
def _flat_swrl_rule(draw):
    annotations = draw(st.lists(st.sampled_from(
        ['annotation(rdfs:comment "a (note)")', "annotation( label  (nested (deep) ) )",
         'annotation(label "x)")']
    ), max_size=2))
    body = draw(st.lists(_flat_swrl_atom(), max_size=3))
    head = draw(st.lists(_flat_swrl_atom(), max_size=2))
    gaps = [draw(st.sampled_from(["", " ", "\n  "])) for _ in range(6)]
    return (
        "Implies{}(" + " ".join(annotations) + "{}Antecedent{}(" + "\n   ".join(body)
        + "){}Consequent{}(" + " ".join(head) + "){})"
    ).format(*gaps)


def _swrl_outcome(reader, text):
    try:
        return reader(text, "<s>")
    except ParseError as err:
        return str(err)


@settings(max_examples=200, derandomize=True, database=None)
@given(st.lists(_flat_swrl_rule(), min_size=1, max_size=3).map("\n".join), _EDITS)
@example(
    'Implies(annotation(rdfs:comment "(a) note") Antecedent() '
    'Consequent(q(I-variable(x))))',
    [(20, "insert", "(")],
)
@example('Implies(Antecedent(p(I-variable("x"))) Consequent(q(a)))', [(1, "delete", "x")])
@example(
    "Implies(Antecedent(builtin(swrlb:add D-variable(b) D-variable(a) 1.5) "
    'name(I-variable(x) "Ann (Lee)")) Consequent(q(I-variable(x))))',
    [(30, "replace", '"')],
)
@example("Implies(Antecedent(p(" + "7" * 4301 + ")) Consequent(q(a)))", [(0, "delete", "x")])
@example('Implies(Antecedent(builtin("swrlb:add" D-variable(a) 1)) Consequent(q(a)))',
         [(0, "delete", "x")])
@example("Implies(Antecedent(p(I-variable) q(D-variable)) Consequent(r(a)))",
         [(0, "delete", "x")])
def test_parse_swrl_agrees_with_the_token_reader(text, edits):
    assert _swrl_outcome(parse_swrl, text) == _swrl_outcome(reference_parse_swrl, text), text
    for mutant in _edited(text, edits):
        assert _swrl_outcome(parse_swrl, mutant) == _swrl_outcome(
            reference_parse_swrl, mutant
        ), mutant


def test_parse_ruleml_uncle_matches_abstract_syntax():
    ontology = parse_ruleml_xml(fixture("uncle.xml"))
    assert ontology.name == "people"
    from_xml = swrl_to_datalog(list(ontology.rules))
    from_abstract = swrl_to_datalog(parse_swrl(fixture("uncle.swrl")))
    assert print_program(from_xml) == print_program(from_abstract)


RULEML_CALLS = """<swrlx:Ontology swrlx:name="calls">
<ruleml:imp>
  <ruleml:_body>
    <swrlx:classAtom>
      <owlx:Class owlx:name="person"/>
      <ruleml:var>x</ruleml:var>
    </swrlx:classAtom>
    <swrlx:sameIndividualAtom>
      <ruleml:var>x</ruleml:var>
      <owlx:Individual owlx:name="mary"/>
    </swrlx:sameIndividualAtom>
    <swrlx:differentIndividualsAtom>
      <ruleml:var>x</ruleml:var>
      <ruleml:var>y</ruleml:var>
    </swrlx:differentIndividualsAtom>
    <swrlx:builtinAtom swrlx:builtin="swrlb:add">
      <ruleml:var>z</ruleml:var>
      <ruleml:var>y</ruleml:var>
      <owlx:Individual owlx:name="one"/>
    </swrlx:builtinAtom>
  </ruleml:_body>
  <ruleml:_head>
    <swrlx:individualPropertyAtom swrlx:property="knows">
      <ruleml:var>x</ruleml:var>
      <owlx:Individual owlx:name="bob"/>
    </swrlx:individualPropertyAtom>
  </ruleml:_head>
</ruleml:imp>
</swrlx:Ontology>
"""


def test_parse_ruleml_individuals_and_calls_translate():
    ontology = parse_ruleml_xml(RULEML_CALLS)
    program = swrl_to_datalog([r for rule in ontology.rules for r in lloyd_topor(rule)])
    assert print_program(program) == (
        "knows(X, bob) :- person(X), prolog:same_as(X, mary),"
        " prolog:different_from(X, Y), prolog:(Z is Y+one).\n"
    )


def test_parse_ruleml_people_ontology_class_atoms():
    ontology = parse_ruleml_xml(fixture("people.xml"))
    assert ontology.name == "people"
    assert len(ontology.rules) == 1
    classes = [a.predicate for a in ontology.class_atoms]
    assert classes[0] == "person"
    assert classes[1] == "and(person,some(parent,Physician))"


def test_parse_ruleml_rejects_unknown_elements():
    with pytest.raises(UnsupportedConstruct):
        parse_ruleml_xml('<swrlx:Ontology><mystery/></swrlx:Ontology>')
    with pytest.raises(UnsupportedConstruct):
        parse_ruleml_xml("<other/>")


# ---------------------------------------------------------------------------
# fuzz: malformed input ends in a DdliteError, never another exception
# ---------------------------------------------------------------------------

_FUZZ_CHARS = (
    "()[]{},.:;=<>!?'\"%&@/\\-_|*+ \n\tabzXZ0179#$"
    "\u00b2\u0663\u00e9\u00c9\u00a0\u2028"
)

FUZZ_GOALS = [
    "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
    "R := doc('works_on.xml')/row::[@'ESSN' = SSN]@'HOURS', atom_number(R, H)",
    "C := doc('people.xml')/swrlx:classAtom/owlx:Class@owlx:name",
    "(route(A, B, L, T), not street(A, B, L, T), L > 100).",
    "W := doc('w.xml')/row, E := W@'ESSN', prolog:(X is E + 1)",
]


def _mutants(rng, text, count):
    """Copies of text with one to three truncations, deletions of one to
    three characters, or insertions of one character."""
    for _ in range(count):
        out = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(out) + 1)
            op = rng.randrange(3)
            if op == 0:
                out = out[:i]
            elif op == 1:
                out = out[:i] + out[i + rng.randint(1, 3):]
            else:
                out = out[:i] + rng.choice(_FUZZ_CHARS) + out[i:]
        yield out


def _fuzz_sources():
    readers = {".dl": parse_program, ".swrl": parse_swrl, ".xml": parse_xml}
    for path in sorted(FIXTURES.iterdir()):
        if path.suffix in readers:
            yield path.name, path.read_text(encoding="utf-8"), readers[path.suffix]
    for k, goal in enumerate(FUZZ_GOALS):
        yield f"goal{k}", goal, parse_goal


@pytest.mark.parametrize("name, text, reader", list(_fuzz_sources()))
def test_malformed_input_raises_only_ddlite_errors(name, text, reader):
    rng = random.Random(name)
    for mutant in _mutants(rng, text, 300):
        try:
            reader(mutant)
        except DdliteError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{type(exc).__name__}: {exc} on {mutant!r}")


def _lexed(text):
    try:
        return [(t.kind, t.value, t.line, t.col, t.pos) for t in tokenize(text, "<t>")]
    except ParseError as err:
        return str(err).removeprefix("<t>:")


def test_tokenize_agrees_with_a_character_at_a_time_lexer():
    sources = [fixture(p.name) for p in sorted(FIXTURES.iterdir()) if p.suffix in (".dl", ".swrl")]
    sources += FUZZ_GOALS + ["p('a\nb').\nq(X) :- 'c\n\nd', e.\n"]
    rng = random.Random("char_tokens")
    for text in sources:
        for mutant in [text, *_mutants(rng, text, 150)]:
            # repr tells 1 from 1.0
            assert repr(_lexed(mutant)) == repr(char_tokens(mutant)), mutant
