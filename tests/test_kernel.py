"""Terms, substitutions, unification, and rendering."""

import gc
import random

from ddlite import kernel
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


def test_equal_ground_compounds_are_one_object():
    a = Compound("f", (Const("a"), mklist([Num(1), Num(2.5)])))
    b = Compound("f", (Const("a"), mklist([Num(1), Num(2.5)])))
    assert a is b
    x = Compound("f", (Var("X"), Const("a")))
    y = Compound("f", (Var("X"), Const("a")))
    assert x == y and hash(x) == hash(y)
    assert x is not y


def test_apply_returns_a_ground_term_unchanged():
    t = Compound("g", (Compound("f", (Const("a"),)), Num(3)))
    assert apply({"X": Const("b")}, t) is t
    assert apply({"X": Const("a")}, Compound("g", (Compound("f", (Var("X"),)), Num(3)))) is t


def test_intern_table_drops_terms_no_longer_used():
    gc.collect()
    before = len(kernel._INTERNED)
    terms = [Compound("interned_probe", (Num(i),)) for i in range(500)]
    assert len(kernel._INTERNED) >= before + 500
    del terms
    gc.collect()
    assert len(kernel._INTERNED) <= before


def test_signed_zeros_are_two_terms_that_print_as_built():
    positive = Compound("f", (Num(0.0),))
    negative = Compound("f", (Num(-0.0),))
    assert negative is not positive
    assert term_text(negative) == "f(-0.0)"
    assert term_text(Compound("g", (negative,))) == "g(f(-0.0))"
    # equal, as the numbers are, and so they unify
    assert negative == positive and Num(-0.0) == Num(0.0)
    assert mgu(negative, positive) == {}


def test_deep_ground_compound_needs_no_recursion():
    def chain(leaf, depth=100_000):
        t = leaf
        for _ in range(depth):
            t = Compound("s", (t,))
        return t

    deep, twin, other = chain(Const("z")), chain(Const("z")), chain(Const("y"))
    assert twin is deep and hash(twin) == hash(deep)
    assert deep == twin and deep != other
    assert is_ground(deep) and is_ground(Atom("p", (deep,)))
    assert apply({"X": Num(1)}, deep) is deep
    assert mgu(deep, twin) == {} and mgu(deep, other) is None
    assert mgu(Atom("p", (Var("X"), deep)), Atom("p", (deep, deep))) == {"X": deep}
    assert sort_key(deep) is sort_key(twin)
    # non-ground twins are not interned; == walks them on a stack
    assert chain(Var("X"), 10_000) == chain(Var("X"), 10_000)


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
