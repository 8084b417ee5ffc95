"""Terms, substitutions, unification, and rendering."""

import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlite import kernel
from ddlite.engine import (
    Builtin,
    EvalOptions,
    FactStore,
    Strata,
    Violation,
    dump_facts,
    solve_body,
)
from ddlite.graphs import (
    DepGraph, DiffReport, Edge, MetaCallNode, Node, PredNode, RuleNode, TagNode
)
from ddlite.hybrid import (
    AggCol,
    AggTemplate,
    AttrAccess,
    Child,
    Filter,
    GroupCol,
    PathBinding,
    PathExpr,
    XmlNode,
)
from ddlite.kernel import (
    NEGATED,
    NIL,
    OPERATORS,
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    PredKey,
    Program,
    Record,
    Rule,
    SourceSpan,
    Term,
    Var,
    apply,
    bind_ground,
    is_ground,
    list_elements,
    match,
    mgu,
    mklist,
    parse_number,
    rename_apart,
    sort_key,
    term_text,
    term_vars,
)

from ddlite.syntax import SwrlOntology, SwrlRule, Token
from ddlite.xmlterm import Text, XmlTerm

from oracles import random_term, reference_text


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
    # ground compounds and constants alike, in the one table
    for build in (
        lambda i: Compound("interned_probe", (Num(i),)),
        lambda i: Const(f"interned_probe_{i}"),
    ):
        gc.collect()
        before = len(kernel._INTERNED)
        terms = [build(i) for i in range(500)]
        assert len(kernel._INTERNED) >= before + 500
        assert {type(ref) for ref in kernel._INTERNED.values()} == {kernel._InternRef}
        del terms
        gc.collect()
        assert len(kernel._INTERNED) <= before


def test_constants_stay_interned_through_pickle_and_copies():
    a = Const("a")
    for copied in (Const("a"), pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied is a
    fact = Atom("p", (a, Compound("f", (Var("X"), a))))
    for copied in (pickle.loads(pickle.dumps(fact)), copy.deepcopy(fact)):
        assert copied.args[0] is a and copied.args[1].args[1] is a


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
    assert sort_key(other) < sort_key(deep) and sort_key(deep) > sort_key(other)
    assert sorted([Atom("p", (deep,)), Atom("p", (other,))], key=sort_key)[0].args == (other,)
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


# one-way matching against mgu: leaves that are equal but print apart
# (1 and 1.0 are not equal, 0.0 and -0.0 are), opaque document nodes, and
# few variable names, so that patterns repeat them
_LEAVES = [Const("a"), Const("b"), Num(1), Num(1.0), Num(0.0), Num(-0.0),
           XmlNode(XmlTerm("r1")), XmlNode(XmlTerm("r2"))]
_ZEROS = [Num(0.0), Num(-0.0), Compound("f", (Num(0.0),)), Compound("f", (Num(-0.0),))]
_VARS = [Var("X"), Var("Y")]


def _terms(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.sampled_from("fg"),
            st.lists(kids, min_size=1, max_size=2),
        ),
        max_leaves=5,
    )


_GROUND = _terms(st.sampled_from(_LEAVES))
_PATTERN = _terms(st.one_of(st.sampled_from(_VARS), st.sampled_from(_LEAVES)))


@st.composite
def _instance(draw, t):
    """t with each variable occurrence, and now and then another leaf,
    replaced on its own, so the result often matches t and sometimes
    binds one variable to two values that are equal or nearly so."""
    if isinstance(t, Var):
        return draw(st.one_of(st.sampled_from(_ZEROS), _GROUND))
    if not isinstance(t, Compound) and draw(st.integers(0, 4)) == 0:
        return draw(_GROUND)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(draw(_instance(a)) for a in t.args))
    return t


@st.composite
def _triples(draw, open_values=False):
    """(atom, ground fact, substitution), the substitution idempotent; with
    open_values some of its values hold a variable it does not bind."""
    args = tuple(draw(st.lists(_PATTERN, min_size=1, max_size=3)))
    fact = Atom("p", tuple(draw(_instance(a)) for a in args))
    if open_values:
        bound, free = draw(st.permutations(["X", "Y"]))
        s = {"W": Compound("h", (Var(free),))}
        if draw(st.booleans()):
            s[bound] = draw(_GROUND)
        return Atom("p", args), fact, s
    names = draw(st.lists(st.sampled_from(["X", "Y", "W"]), unique=True, max_size=2))
    s = {name: draw(_GROUND) for name in names}
    return Atom("p", args), fact, s


def _shown(s):
    """A substitution as text that tells 0.0 from -0.0 and 1 from 1.0."""
    return None if s is None else sorted((k, repr(v)) for k, v in s.items())


@settings(max_examples=300, derandomize=True, database=None)
@given(_triples())
def test_match_agrees_with_mgu_on_ground_facts(triple):
    atom, fact, s = triple
    expected = _shown(mgu(atom, fact, s))
    assert _shown(match(atom.args, fact.args, s)) == expected
    store = FactStore()
    store.add(fact)
    answers = [_shown(a) for a in solve_body((Literal(atom),), store, s)]
    assert answers == ([] if expected is None else [expected])


@settings(max_examples=150, derandomize=True, database=None)
@given(_triples(open_values=True))
def test_a_substitution_holding_open_terms_is_unified_with_mgu(triple):
    atom, fact, s = triple
    expected = _shown(mgu(atom, fact, s))
    store = FactStore()
    store.add(fact)
    answers = [_shown(a) for a in solve_body((Literal(atom),), store, s)]
    assert answers == ([] if expected is None else [expected])
    (t,) = atom.args[:1]
    (value,) = fact.args[:1]
    assert _shown(bind_ground(s, t, value)) == _shown(mgu(t, value, s))


def test_match_binds_a_repeated_variable_where_mgu_does():
    zeros = (Num(0.0), Num(-0.0))
    for values in (zeros, zeros[::-1]):
        s = match((Var("X"), Var("X")), values, {})
        assert repr(s["X"]) == repr(mgu(Atom("p", (Var("X"), Var("X"))), Atom("p", values))["X"])
    assert match((Var("X"), Var("X")), (Num(1), Num(1.0)), {}) is None
    nested = (Compound("f", (Var("X"), Compound("g", (Var("X"),)))),)
    fact = (Compound("f", (Num(0.0), Compound("g", (Num(-0.0),)))),)
    assert repr(match(nested, fact, {})["X"]) == "Num(-0.0)"


def test_match_returns_s_itself_when_nothing_is_bound():
    s = {"X": Const("a")}
    assert match((Var("X"), Const("b")), (Const("a"), Const("b")), s) is s
    assert match((Var("X"),), (Const("b"),), s) is None


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


def test_sort_key_orders_numbers_by_value_beyond_float_range():
    # ints compare with floats exactly: no int is too large for its key,
    # and ints that one float stands for keep their own order
    big, edge = 10**400, 2**53
    terms = [Num(big + 1), Num(2.5), Num(edge + 1), Num(float(edge)), Num(big),
             Num(1.0), Num(1), Num(-big)]
    ordered = [Num(-big), Num(1), Num(1.0), Num(2.5), Num(float(edge)), Num(edge + 1),
               Num(big), Num(big + 1)]
    assert sorted(terms, key=sort_key) == ordered
    facts = sorted((Atom("p", (t,)) for t in terms), key=sort_key)
    assert [f.args[0] for f in facts] == ordered


def _nested_key(t):
    """sort_key as plain nested tuples, built by recursion."""
    if isinstance(t, Atom):
        return (t.module_prefix or "", t.predicate, len(t.args),
                tuple(_nested_key(a) for a in t.args))
    if isinstance(t, Num):
        return (0, float(t.value), 0 if t.is_int() else 1)
    if isinstance(t, Const):
        return (1, t.symbol)
    if isinstance(t, Var):
        return (2, t.name)
    return (3, t.functor, len(t.args), tuple(_nested_key(a) for a in t.args))


def test_keys_of_deep_compounds_order_as_nested_tuples():
    # chains around the depth where keys stop being plain tuples, sharing
    # long prefixes, so that comparisons reach the bottom
    rng = random.Random(20171019)
    leaves = [Num(1), Num(1.0), Num(0.0), Num(-0.0), Num(2), Const("a"), Const("b"),
              Var("X"), Var("Y")]
    terms = []
    for _ in range(120):
        t = rng.choice(leaves)
        for _ in range(rng.randrange(1, 90)):
            f = rng.choice(("s", "s", "s", "g"))
            t = Compound(f, (t,)) if f == "s" else Compound(f, (rng.choice(leaves), t))
        terms.append(t)
    facts = [Atom("p", (t, rng.choice(leaves))) for t in terms]
    for items in (terms, facts):
        ordered = sorted(items, key=sort_key)
        assert ordered == sorted(items, key=_nested_key)
        # neighbours in the written order, and in sorted order, where the
        # shared prefixes are longest
        keys = [(sort_key(t), _nested_key(t)) for t in items + ordered]
        for (k1, n1), (k2, n2) in zip(keys, keys[1:]):
            assert (k1 == k2, k1 < k2, k1 > k2) == (n1 == n2, n1 < n2, n1 > n2)
            assert k1 != k2 or hash(k1) == hash(k2)


def test_term_text_quotes_only_when_needed():
    assert term_text(Const("abc")) == "abc"
    assert term_text(Const("KT")) == "'KT'"
    assert term_text(Const("two words")) == "'two words'"
    assert term_text(Const("it's")) == "'it\\'s'"
    assert term_text(Const("KT"), quoted=False) == "KT"
    # a trailing newline is no part of a plain name
    assert term_text(Const("a\n")) == "'a\n'"


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


# symbols that print bare, and ones that need quotes: capitals, spaces,
# quotes, backslashes, operators, the empty name, a newline, non-ASCII
_SYMBOLS = st.sampled_from(
    ["a", "b_1", "[]", "!", ";", "{}", "KT", "two words", "it's", "back\\slash",
     "", ".", "a\n", "\u00e9t\u00e9", "f'('"] + sorted(OPERATORS)
)
_PRINT_LEAVES = st.one_of(
    st.sampled_from([Var("X"), Var("_G1"), XmlNode(XmlTerm("row"))]),
    st.builds(Const, _SYMBOLS),
    st.builds(Num, st.integers(-20, 20)),
    st.builds(Num, st.floats(allow_nan=False, allow_infinity=False)),
)
_OPS = st.sampled_from(sorted(OPERATORS))


def _chain(op, terms, left):
    """terms joined by the binary functor op, nested to the left or right."""
    if left:
        out = terms[0]
        for t in terms[1:]:
            out = Compound(op, (out, t))
        return out
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = Compound(op, (t, out))
    return out


def _print_compounds(kids):
    return st.one_of(
        st.builds(lambda op, a, b: Compound(op, (a, b)), _OPS, kids, kids),
        st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.one_of(_SYMBOLS, _OPS),
            st.lists(kids, min_size=1, max_size=3),
        ),
        st.builds(mklist, st.lists(kids, max_size=3), st.one_of(st.just(NIL), kids)),
        st.builds(_chain, st.one_of(_OPS, st.just("f")),
                  st.lists(kids, min_size=2, max_size=4), st.booleans()),
    )


def _depth(t):
    if isinstance(t, (Compound, Atom)):
        return 1 + max((_depth(a) for a in t.args), default=0)
    return 0


_PRINT_TERMS = st.recursive(_PRINT_LEAVES, _print_compounds, max_leaves=12)
_PRINT_ATOMS = st.builds(
    lambda p, args, module: Atom(p, tuple(args), module),
    st.one_of(_SYMBOLS, _OPS),
    st.lists(_PRINT_TERMS, max_size=3),
    st.sampled_from([None, "prolog", "swrlb"]),
)


@settings(max_examples=300, derandomize=True, database=None)
@given(st.one_of(_PRINT_TERMS, _PRINT_ATOMS).filter(lambda t: _depth(t) <= 8))
def test_term_text_agrees_with_the_reference_printer(t):
    for quoted in (True, False):
        assert term_text(t, quoted) == reference_text(t, quoted)


# Facts as a dump prints them: mostly flat (Const and Num arguments), with
# 1 and 1.0, 0.0 and -0.0, quoted and operator names, '.'/2 and '.'/1,
# prefixed facts, and nested arguments next to them.
_FACT_LEAVES = st.one_of(
    st.builds(Const, _SYMBOLS),
    st.sampled_from([Num(1), Num(1.0), Num(0), Num(0.0), Num(-0.0), Num(-1)]),
    st.builds(Num, st.integers(-20, 20)),
    st.builds(Num, st.floats(allow_nan=False, allow_infinity=False)),
)
_FACT_TERMS = st.recursive(
    _FACT_LEAVES,
    lambda kids: st.builds(
        lambda f, args: Compound(f, tuple(args)),
        st.one_of(_SYMBOLS, _OPS),
        st.lists(kids, min_size=1, max_size=3),
    ),
    max_leaves=6,
)
_FACTS = st.builds(
    lambda p, args, module: Atom(p, tuple(args), module),
    st.one_of(st.sampled_from(["p", "."]), _SYMBOLS, _OPS),
    st.one_of(
        st.lists(_FACT_LEAVES, max_size=3),
        st.lists(st.one_of(_FACT_LEAVES, _FACT_TERMS), max_size=3),
    ),
    st.sampled_from([None, None, None, "prolog"]),
)


@settings(max_examples=400, derandomize=True, database=None)
@given(_FACTS)
def test_fact_keys_and_text_agree_with_the_term_walkers(fact):
    # an atom's key holds its arguments' keys; repr tells the keys of 0.0
    # and -0.0 apart, which compare equal
    walked = tuple(sort_key(a) for a in fact.args)
    expected = (fact.module_prefix or "", fact.predicate, len(fact.args), walked)
    assert repr(sort_key(fact)) == repr(expected)
    for quoted in (True, False):
        assert term_text(fact, quoted) == reference_text(fact, quoted)


@settings(max_examples=200, derandomize=True, database=None)
@given(st.lists(_FACTS, max_size=8))
def test_dump_facts_agrees_with_sort_key_and_term_text(facts):
    store = FactStore()
    for fact in facts:
        store.add(fact)
    # a fact prints as its term: without its prefix, a '.'/2 one as a list
    expected = [
        term_text(Compound(f.predicate, f.args) if f.args else Const(f.predicate)) + "."
        for f in sorted(dict.fromkeys(facts), key=sort_key)
    ]
    assert dump_facts(store) == "".join(line + "\n" for line in expected)


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



# ---------------------------------------------------------------------------
# value classes: written out in source, they behave as the dataclasses
# they replace did
# ---------------------------------------------------------------------------


_SPAN = SourceSpan("f.dl", 3, 7)
_KEY = PredKey(None, "p", 1)
_ROW = XmlTerm("row", {"ESSN": "22"}, [Text("x")])
_IF = (Atom("C", (Var("x"),)),)
_THEN = (Atom("p", (Var("x"), Num(3))),)
_NODES = (PredNode(_KEY), RuleNode("r1"))
_EDGES = (Edge(_NODES[0], _NODES[1]),)


def _atom():
    return Atom("p", (Var("X"), Const("a")), None, _SPAN)


def _body():
    return (Literal(Atom("q", (Var("X"),))),)


def _rule():
    return Rule("r1", _atom(), _body(), _SPAN)


# one instance of each value class: a builder of equal copies, and the
# value whose hash the instance's hash is (the tuple of the compared
# fields), or None where instances are unhashable
VALUES = [
    (lambda: SourceSpan("f.dl", 3, 7), ("f.dl", 3, 7)),
    (lambda: Var("X"), "X"),  # a one-field term hashes as its field
    (lambda: Const("a"), "a"),  # interned (INTERNED): equal to no str all the same
    (lambda: Num(2.5), 2.5),
    (lambda: Compound("f", (Var("X"), Num(1))), ("f", (Var("X"), Num(1)))),
    (_atom, ("p", (Var("X"), Const("a")), None)),
    (lambda: Literal(_atom(), NEGATED), (_atom(), NEGATED)),
    (_rule, ("r1", _atom(), _body())),
    (lambda: Program((_rule(),)), ((_rule(),),)),
    (lambda: Token("atom", "p", 1, 1, 0), None),
    (lambda: SwrlRule(("a",), _IF, _THEN), (("a",), _IF, _THEN)),
    (lambda: SwrlOntology("o", ()), ("o", (), ())),
    (lambda: XmlNode(_ROW), id(_ROW)),  # one element is one node
    (lambda: Child("row"), ("row",)),
    (lambda: Filter("ESSN", Var("S")), ("ESSN", Var("S"))),
    (lambda: AttrAccess("HOURS"), ("HOURS",)),
    (lambda: PathExpr((Child("row"),)), ((Child("row"),),)),
    (
        lambda: PathBinding("R", "w.xml", None, PathExpr((Child("row"),))),
        ("R", "w.xml", None, PathExpr((Child("row"),))),
    ),
    (lambda: GroupCol("D"), ("D",)),
    (lambda: AggCol("sum", "H"), ("sum", "H")),
    (lambda: AggTemplate((GroupCol("D"),)), ((GroupCol("D"),),)),
    (lambda: PredNode(_KEY), (_KEY,)),
    (lambda: RuleNode("r1"), ("r1",)),
    (lambda: MetaCallNode(_KEY, 2), (_KEY, 2)),
    (lambda: TagNode("row"), ("row",)),
    (lambda: DepGraph("rpg", _NODES, _EDGES), ("rpg", frozenset(_NODES), frozenset(_EDGES))),
    (lambda: DiffReport((RuleNode("r1"),), (), (), ()), ((RuleNode("r1"),), (), (), (), frozenset())),
    (lambda: Builtin("b", 1, (0,), (), max), ("b", 1, (0,), (), max)),
    (lambda: Violation("r1", "X", "is free"), ("r1", "X", "is free")),
    (lambda: Strata({_KEY: 0}), None),  # hashing its dict raises
    (lambda: EvalOptions(max_facts=5), (10000, 5)),
    (lambda: Text("x"), None),
    (lambda: XmlTerm("row", {"ESSN": "22"}, [Text("x")]), None),
]
# the reprs the dataclasses printed
VALUE_REPRS = {
    "SourceSpan": "SourceSpan(file='f.dl', line=3, col=7)",
    "Var": "Var('X')",
    "Const": "Const('a')",
    "Num": 'Num(2.5)',
    "Compound": "Compound('f', (Var('X'), Num(1)))",
    "Atom": "Atom(p/2, (Var('X'), Const('a')))",
    "Literal": "Literal(atom=Atom(p/2, (Var('X'), Const('a'))), polarity='negated')",
    "Rule": (
        "Rule(name='r1', head=Atom(p/2, (Var('X'), Const('a'))), "
        "body=(Literal(atom=Atom(q/1, (Var('X'),)), polarity='positive'),), "
        "span=SourceSpan(file='f.dl', line=3, col=7))"
    ),
    "Program": (
        "Program(rules=(Rule(name='r1', head=Atom(p/2, (Var('X'), "
        "Const('a'))), body=(Literal(atom=Atom(q/1, (Var('X'),)), "
        "polarity='positive'),), span=SourceSpan(file='f.dl', line=3, "
        'col=7)),))'
    ),
    "Token": "Token(kind='atom', value='p', line=1, col=1, pos=0)",
    "SwrlRule": (
        "SwrlRule(annotations=('a',), antecedent=(Atom(C/1, (Var('x'),)),), "
        "consequent=(Atom(p/2, (Var('x'), Num(3))),))"
    ),
    "SwrlOntology": "SwrlOntology(name='o', rules=(), class_atoms=())",
    "XmlNode": 'XmlNode(<row>)',
    "Child": "Child(tag='row')",
    "Filter": "Filter(attr='ESSN', value=Var('S'))",
    "AttrAccess": "AttrAccess(name='HOURS')",
    "PathExpr": "PathExpr(steps=(Child(tag='row'),))",
    "PathBinding": (
        "PathBinding(var='R', doc='w.xml', from_var=None, "
        "expr=PathExpr(steps=(Child(tag='row'),)))"
    ),
    "GroupCol": "GroupCol(var='D')",
    "AggCol": "AggCol(fn='sum', var='H')",
    "AggTemplate": "AggTemplate(columns=(GroupCol(var='D'),))",
    "PredNode": "PredNode(key=PredKey(module=None, name='p', arity=1))",
    "RuleNode": "RuleNode(rule_name='r1')",
    "MetaCallNode": (
        "MetaCallNode(key=PredKey(module=None, name='p', arity=1), "
        'call_site=2)'
    ),
    "TagNode": "TagNode(tag='row')",
    "DepGraph": (
        "DepGraph(kind='rpg', nodes=(PredNode(key=PredKey(module=None, "
        "name='p', arity=1)), RuleNode(rule_name='r1')), "
        "edges=(Edge(src=PredNode(key=PredKey(module=None, name='p', "
        "arity=1)), dst=RuleNode(rule_name='r1'), mark='plain'),))"
    ),
    "DiffReport": (
        "DiffReport(nodes_only_left=(RuleNode(rule_name='r1'),), "
        'nodes_only_right=(), edges_only_left=(), edges_only_right=(), '
        'equivalent_modulo=frozenset())'
    ),
    "Builtin": (
        "Builtin(name='b', arity=1, inputs=(0,), outputs=(), "
        'fn=<built-in function max>)'
    ),
    "Violation": "Violation(rule_name='r1', variable='X', reason='is free')",
    "Strata": "Strata(assignment={PredKey(module=None, name='p', arity=1): 0})",
    "EvalOptions": 'EvalOptions(max_iterations=10000, max_facts=5)',
    "Text": "Text(value='x')",
    "XmlTerm": (
        "XmlTerm(tag='row', attributes={'ESSN': '22'}, "
        "children=[Text(value='x')])"
    ),
}
MUTABLE = (Token, Text, XmlTerm)
# classes whose equal values are one object, hashed by its identity
INTERNED = (Const,)


def _name(case):
    return type(case[0]()).__name__


@pytest.mark.parametrize("build, hashes_like", VALUES, ids=map(_name, VALUES))
def test_value_class_contract(build, hashes_like):
    x, y = build(), build()
    if isinstance(x, INTERNED):
        assert x is y and hash(x) == object.__hash__(x)
    else:
        assert x is not y
    assert x == y and not x != y
    assert x != hashes_like and x != object()
    if hashes_like is None:
        with pytest.raises(TypeError):
            hash(x)
    elif not isinstance(x, INTERNED):
        assert hash(x) == hash(y) == hash(hashes_like)
    assert repr(x) == VALUE_REPRS[type(x).__name__]
    field = (getattr(x, "_fields", ()) or type(x).__slots__)[0]
    if isinstance(x, MUTABLE):
        setattr(x, field, getattr(y, field))
        assert x == y
        return
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert x == y


def test_every_value_class_has_a_contract_case():
    pending = [Record]
    classes = set()
    while pending:
        for sub in pending.pop().__subclasses__():
            classes.add(sub)
            pending.append(sub)
    classes -= {Term, Node}
    assert classes | set(MUTABLE) == {type(build()) for build, _ in VALUES}


def test_value_classes_of_one_shape_are_not_equal():
    pairs = [
        (Var("a"), Const("a")),
        (Child("a"), AttrAccess("a")),
        (RuleNode("a"), TagNode("a")),
        (GroupCol("a"), Var("a")),
    ]
    for a, b in pairs:
        assert a != b and b != a and not a == b


def test_atom_and_rule_equality_ignores_the_span():
    other = SourceSpan("g.dl", 9, 9)
    a, b = Atom("p", (Const("a"),), None, _SPAN), Atom("p", (Const("a"),), None, other)
    assert a == b and hash(a) == hash(b) and a.span != b.span
    r, s = Rule("r1", a, (), _SPAN), Rule("r1", b, (), other)
    assert r == s and hash(r) == hash(s)
    assert Atom("p", (Const("a"),), "m") != a


@pytest.mark.parametrize("build", [_atom, _rule, lambda: Literal(_atom()), lambda: _SPAN,
                                   lambda: Var("X"), lambda: Const("a"), lambda: Num(-0.0),
                                   lambda: Compound("f", (Var("X"), Num(2))),
                                   lambda: Program((_rule(),))])
def test_kernel_values_pickle_and_deepcopy(build):
    x = build()
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        assert all(getattr(y, f) == getattr(x, f) for f in x._fields)  # span too
