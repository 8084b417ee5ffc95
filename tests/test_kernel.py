"""Terms, substitutions, unification, and rendering."""

import random

from ddlite.kernel import (
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    PredKey,
    Rule,
    Var,
    apply,
    is_ground,
    list_elements,
    mgu,
    mklist,
    parse_number,
    rename_apart,
    sort_key,
    term_text,
    term_vars,
)

from oracles import random_term


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


def test_list_elements_roundtrip_and_partial_tail():
    t = mklist([Const("a"), Const("b")], tail=Var("T"))
    elements, tail = list_elements(t)
    assert elements == [Const("a"), Const("b")]
    assert tail == Var("T")
    assert list_elements(Const("a")) is None


def test_atom_key_carries_module_and_arity():
    a = Atom("pt", (Var("T"), Const("x")), "prolog")
    assert a.key == PredKey("prolog", "pt", 2)
    assert str(a.key) == "prolog:pt/2"


def test_term_vars_walks_atoms_literals_and_rules():
    r = Rule(
        "r1",
        Atom("p", (Var("X"),)),
        (Literal(Atom("q", (Var("X"), Compound("f", (Var("Y"),))))),),
    )
    assert term_vars(r) == {"X", "Y"}


def test_is_ground():
    assert is_ground(mklist([Num(1), Const("a")]))
    assert not is_ground(Compound("f", (Var("X"),)))


# ---------------------------------------------------------------------------
# unification
# ---------------------------------------------------------------------------


def test_mgu_binds_and_applies():
    s = mgu(Compound("f", (Var("X"), Const("b"))), Compound("f", (Const("a"), Var("Y"))))
    assert s is not None
    assert apply(s, Var("X")) == Const("a")
    assert apply(s, Var("Y")) == Const("b")


def test_mgu_occurs_check_rejects_cyclic_binding():
    assert mgu(Var("X"), Compound("f", (Var("X"),))) is None


def test_mgu_respects_existing_bindings():
    s0 = mgu(Var("X"), Const("a"))
    assert mgu(Var("X"), Const("b"), s0) is None
    s1 = mgu(Var("X"), Var("Y"), s0)
    assert apply(s1, Var("Y")) == Const("a")


def test_mgu_clash_on_functor_and_arity():
    assert mgu(Compound("f", (Var("X"),)), Compound("g", (Var("X"),))) is None
    assert mgu(Compound("f", (Var("X"),)), Compound("f", (Var("X"), Var("Y")))) is None


def test_mgu_unifies_atoms_and_list_sugar():
    s = mgu(Atom("p", (mklist([Var("X")]),)), Atom("p", (mklist([Num(3)]),)))
    assert apply(s, Var("X")) == Num(3)


def test_mgu_idempotent_on_random_pairs():
    rng = random.Random(7)
    unified = 0
    for _ in range(300):
        a, b = random_term(rng), random_term(rng)
        s = mgu(a, b)
        if s is None:
            continue
        unified += 1
        sa, sb = apply(s, a), apply(s, b)
        assert sa == sb
        assert apply(s, sa) == sa
    assert unified > 30


def test_rename_apart_suffixes_every_variable():
    r = Rule("r1", Atom("p", (Var("X"),)), (Literal(Atom("q", (Var("X"), Var("Y")))),))
    r2 = rename_apart(r, "_t")
    assert term_vars(r2) == {"X_t", "Y_t"}
    assert r2.name == "r1"


# ---------------------------------------------------------------------------
# ordering and rendering
# ---------------------------------------------------------------------------


def test_sort_key_orders_numbers_before_consts_before_vars():
    terms = [Var("X"), Const("b"), Num(2), Compound("f", (Num(1),)), Num(10)]
    ordered = sorted(terms, key=sort_key)
    assert ordered[0] == Num(2) and ordered[1] == Num(10)
    assert ordered[2] == Const("b")
    assert isinstance(ordered[3], Var)


def test_term_text_quotes_only_when_needed():
    assert term_text(Const("abc")) == "abc"
    assert term_text(Const("KT")) == "'KT'"
    assert term_text(Const("two words")) == "'two words'"
    assert term_text(Const("it's")) == "'it\\'s'"
    assert term_text(Const("KT"), quoted=False) == "KT"


def test_term_text_lists_and_tails():
    assert term_text(mklist([Num(1), Num(2)])) == "[1, 2]"
    assert term_text(mklist([Num(1)], tail=Var("T"))) == "[1|T]"
    assert term_text(mklist([])) == "[]"


def test_term_text_infix_parenthesizes_by_precedence():
    def parse(s):
        from ddlite.syntax import TermParser, tokenize

        return TermParser(tokenize(s, "<test>")).term(1200)

    cases = [
        ("X is 1+2*3", "(X is 1+2*3)"),
        ("X is (1+2)*3", "(X is (1+2)*3)"),
        ("X is 1+2+3", "(X is 1+2+3)"),
        ("X is 1-(2-3)", "(X is 1-(2-3))"),
        ("1+2 < 3*4", "(1+2 < 3*4)"),
    ]
    for source, expected in cases:
        t = parse(source)
        assert term_text(t) == expected
        assert term_text(parse(term_text(t))) == expected


def test_term_text_module_prefix_and_infix_functor_quoting():
    a = Atom("pt", (Var("T"), Const("x")), "prolog")
    assert term_text(a) == "prolog:pt(T, x)"
    assert term_text(Compound("is", (Var("X"), Num(1), Num(2)))) == "'is'(X, 1, 2)"


# ---------------------------------------------------------------------------
# number parsing
# ---------------------------------------------------------------------------


def test_parse_number_accepts_plain_ints_and_floats():
    assert parse_number("12") == Num(12)
    assert parse_number("-3") == Num(-3)
    assert parse_number("12.5") == Num(12.5)
    assert parse_number("1e3") == Num(1000.0)


def test_parse_number_rejects_junk():
    for bad in ("", " 12", "12 ", "1_000", "NULL", "nan", "inf", "0x10"):
        assert parse_number(bad) is None, bad
