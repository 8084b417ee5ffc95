"""Core term algebra: terms, atoms, literals, rules, substitutions.

Terms are immutable; a list is a chain of '.'/2 cons cells (mklist builds
one), and there is no other list form.  Ground compounds are interned:
equal ground terms are one object, so `==` on them is an identity test,
and substitution, unification and variable collection return at once on
them (Compound gives the details).  Substitutions are plain dicts mapping
variable names to terms, kept in triangular solved form so that applying
one twice equals applying it once.  mgu() performs syntactic unification
with the occurs check; match() is the one-way case of a pattern against
ground terms under a substitution whose values are all ground, which
binds with one store.  Failure is an ordinary None result, not an
exception.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from functools import lru_cache

TYPE_CHECKING = False  # typing is imported by type checkers alone
if TYPE_CHECKING:
    from typing import Iterable, Optional, Union

# ===========================================================================
# Value classes
# ===========================================================================

_set = object.__setattr__  # how __init__ fills the fields of a frozen object


class Record:
    """Base of the immutable value classes.

    A subclass lists its fields in order in `_fields` (usually also its
    `__slots__`), and the trailing fields a caller may omit in `_defaults`.
    It gets a positional-or-keyword __init__, `==` between instances of the
    same class and a hash, both over the tuple of field values, a
    `Name(field=value, ...)` repr, pickling, and AttributeError on setting
    or deleting an attribute.  The methods are written here rather than
    generated when the module loads, which keeps start-up cheap; classes
    built, hashed or compared per token, term, fact or node write out
    their own __init__, __eq__ and __hash__, which are faster than these.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(self._defaults)
            values.update(zip(fields, args))
            values.update(kwargs)
            if (
                len(args) > len(fields)
                or len(values) != len(fields)
                or values.keys() - fields
                or not kwargs.keys().isdisjoint(fields[: len(args)])
            ):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields {', '.join(fields)}"
                )
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ===========================================================================
# Source files and positions
# ===========================================================================


def read_text(path: str, newline: str | None = None) -> str:
    """The text of the UTF-8 file at path, less one leading byte-order
    mark, which is no part of the text.  Line ends read as open() with
    this newline reads them: None turns CR LF and a lone CR into LF, ""
    keeps them.  An undecodable byte is an OSError that names the path
    and the byte's offset, as an unreadable file is one."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            text = handle.read()  # decoded at once: offsets are the file's
        except UnicodeDecodeError as err:
            raise OSError(f"{path}: {err}") from None
    return text[1:] if text.startswith("\ufeff") else text


class SourceSpan(Record):
    """1-based position of a construct in its source text."""

    __slots__ = _fields = ("file", "line", "col")

    def __init__(self, file: str, line: int, col: int):
        _set(self, "file", file)
        _set(self, "line", line)
        _set(self, "col", col)

    @classmethod
    def at(cls, file: str, text: str, offset: int) -> "SourceSpan":
        """The position of offset in text; only '\n' ends a line."""
        line = text.count("\n", 0, offset) + 1
        return cls(file, line, offset - text.rfind("\n", 0, offset))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.file, self.line, self.col) == (other.file, other.line, other.col)

    def __hash__(self) -> int:
        return hash((self.file, self.line, self.col))

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# ===========================================================================
# Terms
# ===========================================================================


class Term(Record):
    """Abstract base for every term constructor."""

    __slots__ = ()


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Const(Term):
    """A symbolic constant ('KT', null, [] ...)."""

    __slots__ = _fields = ("symbol",)

    def __init__(self, symbol: str):
        _set(self, "symbol", symbol)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbol == other.symbol

    def __hash__(self) -> int:
        return hash(self.symbol)

    def __repr__(self) -> str:
        return f"Const({self.symbol!r})"


NIL = Const("[]")


class Num(Term):
    """A number.  Integers are exact; floats are 64-bit.

    An integer and a float never unify even when arithmetically equal
    (15 is not 15.0 as a term), so equality compares the concrete type
    alongside the value.  The hash is the value's own: 15 and 15.0 share
    it, and compare unequal.
    """

    __slots__ = _fields = ("value",)

    def __init__(self, value: Union[int, float]):
        _set(self, "value", value)

    def is_int(self) -> bool:
        return isinstance(self.value, int)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Num):
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Num({self.value!r})"


class Compound(Term):
    """functor(arg1, ..., argn) with n >= 1; zero-arity data is a Const.

    Whether the term is ground, and its hash, are computed once, when it
    is built, from its args (which are built already).  Ground compounds
    are hash-consed: building one that prints the same as a live ground
    compound returns that compound, so `==` on two of them is an identity
    test unless their hashes agree.  The intern table holds its terms
    weakly.  Its key holds a ground compound argument by identity (that
    argument is interned already, and outlives the entry, which goes when
    the compound holding it does) and a float by its text, so f(0.0) and
    f(-0.0) stay two terms, equal as 0.0 and -0.0 are.
    """

    __slots__ = (
        "functor", "args", "ground", "_hash", "_sort_key", "_key_height", "__weakref__"
    )

    def __new__(cls, functor: str, args: tuple[Term, ...]):
        if not args:
            raise ValueError("zero-arity compound; use Const instead")
        key: Optional[list] = [functor]
        for a in args:
            if isinstance(a, Compound):
                if not a.ground:
                    key = None
                    break
                key.append(id(a))
            elif isinstance(a, Var):
                key = None
                break
            elif isinstance(a, Num) and isinstance(a.value, float):
                key.append((float, repr(a.value)))
            else:
                key.append(a)
        if key is not None:
            key = tuple(key)
            t = _INTERNED.get(key)
            if t is not None:
                return t
        t = object.__new__(cls)
        init = object.__setattr__
        init(t, "functor", functor)
        init(t, "args", args)
        init(t, "ground", key is not None)
        init(t, "_hash", hash((functor, args)))
        init(t, "_sort_key", None)
        if key is not None:
            _INTERNED[key] = t
        return t

    __init__ = object.__init__  # __new__ has built or found the term

    def __reduce__(self):
        return Compound, (self.functor, self.args)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Compound):
            return NotImplemented
        if self._hash != other._hash:
            return False
        # equal hashes: walk both terms on an explicit stack, skipping
        # shared subterms, so depth is not bounded by the recursion limit
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if isinstance(x, Compound) and isinstance(y, Compound):
                if (
                    x._hash != y._hash
                    or x.functor != y.functor
                    or len(x.args) != len(y.args)
                ):
                    return False
                stack.extend(zip(x.args, y.args))
            elif x != y:
                return False
        return True

    def __repr__(self) -> str:
        return f"Compound({self.functor!r}, {self.args!r})"


# interned ground compounds, each kept only while in use elsewhere
_INTERNED: "weakref.WeakValueDictionary[tuple, Compound]" = weakref.WeakValueDictionary()


def mklist(elements: Iterable[Term], tail: Term = NIL) -> Term:
    """Build the cons-cell chain '.'(e1, '.'(e2, ... tail)), the one list form."""
    out = tail
    for el in reversed(list(elements)):
        out = Compound(".", (el, out))
    return out


_NUMBER = None  # compiled lazily to keep import cheap


def read_number(text: str) -> Optional[Num]:
    """Strict numeric reading of a text cell; None if it is not a number.

    A number is an optional sign, decimal digits with an optional '.' and
    fraction (a digit on at least one side), and an optional exponent.  A
    digit is any Unicode decimal digit, as int() and float() read them.
    Stricter than int()/float(): no surrounding whitespace, no underscores,
    no inf/nan.  The cell is checked against that shape first, so a text
    cell raises no exception in int() or float().  An integer with more
    digits than int() converts (4,300 by default) goes to float(), which
    reads it as a finite float only when it is mostly leading zeros.
    """
    global _NUMBER
    if _NUMBER is None:
        import re

        _NUMBER = re.compile(r"[+-]?(?=\.?\d)\d*(\.\d*)?([eE][+-]?\d+)?")
    m = _NUMBER.fullmatch(text)
    if m is None:
        return None
    if m.lastindex is None:  # no fraction and no exponent
        try:
            return Num(int(text))
        except ValueError:  # more digits than int() converts
            pass
    value = float(text)
    return Num(value) if math.isfinite(value) else None


# read_number, remembered: a query's atom_number calls read the same few
# texts many times over, and a Num is immutable, so one result can serve
# every caller.  A CSV file, which meets each text once, reads uncached
parse_number = lru_cache(maxsize=4096)(read_number)


def list_elements(t: Term) -> Optional[tuple[list[Term], Term]]:
    """Decompose a cons chain into (elements, tail); None if t is no chain.

    A proper list ends with tail == Const('[]').
    """
    elements: list[Term] = []
    while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
        elements.append(t.args[0])
        t = t.args[1]
    if not elements and t != NIL:
        return None
    return elements, t


# ===========================================================================
# Atoms, literals, rules, programs
# ===========================================================================


class PredKey(namedtuple("PredKey", ("module", "name", "arity"))):
    """Identity of a predicate: optional module prefix (a str or None),
    name, arity."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.module:
            return f"{self.module}:{self.name}/{self.arity}"
        return f"{self.name}/{self.arity}"


# one PredKey per predicate in use, shared by the atoms whose key it is
_pred_key = lru_cache(maxsize=4096)(PredKey)

# body atoms that are control noise, which hold, rather than relations
CONTROL = frozenset({PredKey(None, "!", 0), PredKey(None, "true", 0)})


class Atom(Record):
    """predicate(args) with an optional module prefix; span is not compared.
    key (the atom's PredKey) and ground are worked out when the atom is
    built, as Compound's are, and the hash once, when first asked for: an
    atom read from rule text is seldom hashed, a derived fact always."""

    __slots__ = ("predicate", "args", "module_prefix", "span", "key", "ground", "_hash")
    _fields = ("predicate", "args", "module_prefix", "span")

    def __init__(
        self,
        predicate: str,
        args: tuple[Term, ...] = (),
        module_prefix: Optional[str] = None,
        span: Optional[SourceSpan] = None,
    ):
        _set(self, "predicate", predicate)
        _set(self, "args", args)
        _set(self, "module_prefix", module_prefix)
        _set(self, "span", span)
        _set(self, "key", _pred_key(module_prefix, predicate, len(args)))
        ground = True
        for a in args:
            if a.__class__ is Var or a.__class__ is Compound and not a.ground:
                ground = False
                break
        _set(self, "ground", ground)
        _set(self, "_hash", None)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        return (self.predicate, self.args, self.module_prefix) == (
            other.predicate,
            other.args,
            other.module_prefix,
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.predicate, self.args, self.module_prefix))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Atom({self.key}, {self.args!r})"


POSITIVE = "positive"
NEGATED = "negated"  # default negation ("not")


class Literal(Record):
    __slots__ = _fields = ("atom", "polarity")

    def __init__(self, atom: Atom, polarity: str = POSITIVE):
        _set(self, "atom", atom)
        _set(self, "polarity", polarity)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.atom, self.polarity) == (other.atom, other.polarity)

    def __hash__(self) -> int:
        return hash((self.atom, self.polarity))

    def is_negated(self) -> bool:
        return self.polarity == NEGATED

    def is_builtin(self) -> bool:
        """A call into the builtin registry: the atom has a module prefix."""
        return self.atom.module_prefix is not None

    def reads_relation(self) -> bool:
        """True if the literal reads the facts of its predicate: it is
        neither a builtin call nor `true` or `!` (CONTROL)."""
        atom = self.atom
        return atom.module_prefix is None and atom.key not in CONTROL


class Rule(Record):
    """name: head :- body.  A fact is a rule with an empty body; span is
    not compared."""

    __slots__ = _fields = ("name", "head", "body", "span")

    def __init__(
        self,
        name: str,
        head: Atom,
        body: tuple[Literal, ...] = (),
        span: Optional[SourceSpan] = None,
    ):
        _set(self, "name", name)
        _set(self, "head", head)
        _set(self, "body", body)
        _set(self, "span", span)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.head, self.body) == (other.name, other.head, other.body)

    def __hash__(self) -> int:
        return hash((self.name, self.head, self.body))


class Program(Record):
    __slots__ = _fields = ("rules",)

    def __init__(self, rules: tuple[Rule, ...] = ()):
        seen = set()
        for r in rules:
            if r.name in seen:
                raise ValueError(f"duplicate rule name {r.name!r}")
            seen.add(r.name)
        _set(self, "rules", rules)

    def idb(self) -> frozenset[PredKey]:
        """Predicates appearing in some head."""
        return frozenset(r.head.key for r in self.rules)

    def pred_keys(self) -> frozenset[PredKey]:
        keys = set(self.idb())
        for r in self.rules:
            for lit in r.body:
                if lit.reads_relation():
                    keys.add(lit.atom.key)
        return frozenset(keys)


# ===========================================================================
# Substitutions
# ===========================================================================

Subst = dict  # Dict[str, Term], kept idempotent


def term_vars(t) -> set[str]:
    """Free variable names of a term, atom, literal, or rule.  Atoms and
    compounds wait on an explicit stack, so term depth is not bounded by
    the recursion limit; ground atoms and compounds are skipped whole."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Rule):
        stack = [t.head, *(lit.atom for lit in t.body)]
    elif isinstance(t, Literal):
        stack = [t.atom]
    elif isinstance(t, (Atom, Compound)) and not t.ground:
        stack = [t]
    else:
        return set()
    out: set[str] = set()
    while stack:
        for a in stack.pop().args:
            if isinstance(a, Var):
                out.add(a.name)
            elif isinstance(a, Compound) and not a.ground:
                stack.append(a)
    return out


def apply(s: Subst, t):
    """Apply substitution s to a Term, Atom, Literal, or Rule."""
    if isinstance(t, Term):
        return _apply_term(s, t)
    if isinstance(t, Atom):
        return Atom(
            t.predicate,
            tuple(_apply_term(s, a) for a in t.args),
            t.module_prefix,
            t.span,
        )
    if isinstance(t, Literal):
        return Literal(apply(s, t.atom), t.polarity)
    if isinstance(t, Rule):
        return Rule(t.name, apply(s, t.head), tuple(apply(s, l) for l in t.body), t.span)
    raise TypeError(f"cannot apply substitution to {type(t).__name__}")


def _apply_term(s: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return s.get(t.name, t)
    if isinstance(t, Compound) and not t.ground:
        return Compound(t.functor, tuple(_apply_term(s, a) for a in t.args))
    return t


def is_ground(t) -> bool:
    if isinstance(t, (Compound, Atom)):
        return t.ground
    return not term_vars(t)


def mgu(a, b, s: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier of two terms or two atoms; None on failure.

    The occurs check is on: mgu(X, f(X)) fails.  An optional starting
    substitution is extended rather than rebuilt.
    """
    s = dict(s) if s else {}
    if isinstance(a, Atom) and isinstance(b, Atom):
        if a.key != b.key:
            return None
        stack = list(zip(a.args, b.args))
    elif isinstance(a, Term) and isinstance(b, Term):
        stack = [(a, b)]
    else:
        return None
    while stack:
        x, y = stack.pop()
        x = _apply_term(s, x) if isinstance(x, Var) else x
        y = _apply_term(s, y) if isinstance(y, Var) else y
        if isinstance(x, Var):
            if isinstance(y, Var) and y.name == x.name:
                continue
            if not _bind(s, x.name, y):
                return None
            continue
        if isinstance(y, Var):
            if not _bind(s, y.name, x):
                return None
            continue
        if isinstance(x, Const) and isinstance(y, Const):
            if x.symbol != y.symbol:
                return None
            continue
        if isinstance(x, Num) and isinstance(y, Num):
            if x != y:
                return None
            continue
        if isinstance(x, Compound) and isinstance(y, Compound):
            if x.ground and y.ground:
                if x != y:
                    return None
                continue
            if x.functor != y.functor or len(x.args) != len(y.args):
                return None
            stack.extend(zip(x.args, y.args))
            continue
        # opaque leaf terms (e.g. document nodes) unify only with themselves
        if x == y:
            continue
        return None
    return s


def _bind(s: Subst, name: str, t: Term) -> bool:
    """Bind name to t, keeping s idempotent.  False if the occurs check trips."""
    t = _apply_term(s, t)
    # the occurs check; t is never the variable itself, as mgu skips X = X
    if isinstance(t, Compound) and name in term_vars(t):
        return False
    one = {name: t}
    for v in list(s):
        s[v] = _apply_term(one, s[v])
    s[name] = t
    return True


def match(patterns: tuple, values: tuple, s: Subst) -> Optional[Subst]:
    """Extension of s under which each pattern equals the ground term at
    the same position of values; None if there is none.

    The match runs one way: s must bind variables to ground terms only
    (mgu covers the rest), so binding a variable is one store into a
    copy of s, with no occurs check and no rewrite of other entries.  s
    itself comes back when nothing new is bound.  Pairs are visited in
    mgu's order, right to left and depth first, the pairs still to visit
    waiting on an explicit stack, so a repeated variable is bound where
    mgu binds it: p(X, X) against p(0.0, -0.0) binds X to -0.0."""
    out = s
    stack: Optional[list] = None  # (patterns, values, pairs left) to resume
    i = len(patterns)
    while True:
        while i:
            i -= 1
            p, v = patterns[i], values[i]
            kind = p.__class__
            if kind is Var:
                bound = out.get(p.name)
                if bound is None:
                    if out is s:
                        out = dict(s)
                    out[p.name] = v
                elif bound != v:
                    return None
            elif kind is Compound and not p.ground:
                if (
                    v.__class__ is not Compound
                    or v.functor != p.functor
                    or len(v.args) != len(p.args)
                ):
                    return None
                if stack is None:
                    stack = []
                stack.append((patterns, values, i))
                patterns, values, i = p.args, v.args, len(p.args)
            elif p != v:
                return None
        if not stack:
            return out
        patterns, values, i = stack.pop()


def bind_ground(s: Subst, t: Term, value: Term) -> Optional[Subst]:
    """Extension of s under which t equals the ground term value; None if
    there is none.  One-way match when every value in s is ground, mgu
    when some is not (then t's variables may occur inside s)."""
    for bound in s.values():
        if bound.__class__ is Var or bound.__class__ is Compound and not bound.ground:
            return mgu(t, value, s)
    return match((t,), (value,), s)


def rename_apart(r: Rule, suffix: str) -> Rule:
    """Rename every variable of r by appending suffix (injective)."""
    s = {v: Var(v + suffix) for v in term_vars(r)}
    return apply(s, r)


# ===========================================================================
# Term ordering and text
# ===========================================================================


def sort_key(t):
    """Total-order key over ground (and almost-ground) terms and atoms.

    Numbers sort before constants, constants before variables, variables
    before compounds; numbers compare arithmetically, by value (Python
    compares an int with a float exactly, however large the int), with
    ints before an arithmetically equal float.  A compound keeps its key
    once made.  Any other term, such as a document node, has no place in
    the order: its key, and that of a term holding it, raises TypeError.

    A compound's key is a nested tuple, compared by Python's tuple
    comparison, unless the compound nests more than _KEY_HEIGHT levels:
    then it is a _DeepKey, which compares in the same order on an explicit
    stack.  Tuple comparison recurses on the C stack, and at each level of
    a long shared prefix walks the rest of it again.
    """
    if isinstance(t, Atom):
        # a fact's arguments are mostly constants and numbers: their keys
        # are built here rather than by a call each
        keys = []
        for a in t.args:
            cls = a.__class__
            if cls is Const:
                keys.append((1, a.symbol))
            elif cls is Num:
                value = a.value
                keys.append((0, value, 0 if isinstance(value, int) else 1))
            else:
                keys.append(sort_key(a))
        return (t.module_prefix or "", t.predicate, len(keys), tuple(keys))
    if isinstance(t, Num):
        return (0, t.value, 0 if t.is_int() else 1)
    if isinstance(t, Const):
        return (1, t.symbol)
    if isinstance(t, Var):
        return (2, t.name)
    if not isinstance(t, Compound):
        raise TypeError(f"{term_text(t)} has no place in the term order")
    if t._sort_key is None:
        # keys are made children first, on an explicit stack
        stack = [t]
        while stack:
            c = stack[-1]
            todo = [
                a for a in c.args if isinstance(a, Compound) and a._sort_key is None
            ]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            keys, height = [], 1
            for a in c.args:
                if isinstance(a, Compound):
                    keys.append(a._sort_key)
                    if a._key_height >= height:
                        height = a._key_height + 1
                else:
                    keys.append(sort_key(a))
            key = (3, c.functor, len(keys), tuple(keys))
            if height > _KEY_HEIGHT:
                key = _DeepKey(key, c._hash)
            object.__setattr__(c, "_sort_key", key)
            object.__setattr__(c, "_key_height", height)
    return t._sort_key


# the most levels of compounds whose keys are plain tuples (sort_key)
_KEY_HEIGHT = 40


class _DeepKey:
    """The key of a deep compound: it orders as the tuple it holds would,
    comparing on an explicit stack (_compare_keys).  Two compounds with
    equal keys are equal terms, which nest alike, so a _DeepKey equals
    only a _DeepKey, and its hash is the compound's.  A plain key holds no
    _DeepKey, as its compound's arguments nest less deep than it."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple, hash_: int):
        self.key, self._hash = key, hash_

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            other.__class__ is _DeepKey
            and other._hash == self._hash
            and _compare_keys(self, other) == 0
        )

    def __lt__(self, other) -> bool:
        return _compare_keys(self, other) < 0

    def __gt__(self, other) -> bool:
        return _compare_keys(self, other) > 0


def _compare_keys(a, b) -> int:
    """-1, 0 or 1 as key a sorts before, with or after key b, as tuple
    comparison would have it.  Two plain keys are compared as tuples; a
    _DeepKey is read as the compound key (3, functor, arity, arguments)
    it holds, whose first arguments are compared next and the others
    pushed on a stack."""
    stack = [(a, b)]  # pairs still to compare, the next one last
    while stack:
        x, y = stack.pop()
        while x is not y:
            if x.__class__ is _DeepKey:
                x = x.key
            elif y.__class__ is not _DeepKey:
                if x != y:
                    return -1 if x < y else 1
                break
            if y.__class__ is _DeepKey:
                y = y.key
            # x or y is a compound's key; the first of its parts that
            # differs from y's decides, and only the arguments can nest
            if x[0] != y[0] or x[1] != y[1] or x[2] != y[2]:
                return -1 if x[:3] < y[:3] else 1
            xs, ys = x[3], y[3]
            if len(xs) > 1:
                stack.extend(zip(reversed(xs[1:]), reversed(ys[1:])))
            x, y = xs[0], ys[0]
    return 0


_PLAIN_ATOM = None  # compiled lazily to keep import cheap


def _needs_quotes(symbol: str) -> bool:
    global _PLAIN_ATOM
    if _PLAIN_ATOM is None:
        import re

        _PLAIN_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
    return not (_PLAIN_ATOM.match(symbol) or symbol in ("[]", "!", ";", "{}"))


# Operator table: symbol -> (priority, associativity).  The parser reads
# all of it.  The printer writes every operator but ',' infix, letting
# priority and associativity decide the parentheses of nested operands (the
# y side admits equal priority); a conjunction prints as ','(A, B).
OPERATORS = {
    ",": (1000, "xfy"),
    "is": (700, "xfx"), "<": (700, "xfx"), ">": (700, "xfx"),
    "=<": (700, "xfx"), ">=": (700, "xfx"), "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"), "=": (700, "xfx"),
    "+": (500, "yfx"), "-": (500, "yfx"), "*": (400, "yfx"), "/": (400, "yfx"),
}
_SPACED = {"is", "=:=", "=\\=", "=<", ">=", "<", ">", "="}


def _infix(functor: str, args: tuple) -> bool:
    return functor in OPERATORS and functor != "," and len(args) == 2


def term_text(t, quoted: bool = True) -> str:
    """Render a term or atom.

    quoted=True emits re-parseable text (constants quoted when needed);
    quoted=False is display style with quotes dropped.  The pieces still
    to print wait on an explicit stack, so nesting is not bounded by the
    recursion limit.  A piece is a string, a term or atom, or an (operand,
    priority) pair: an operand of an infix operator with the highest
    priority its slot admits.  A compound or atom writes its opening text
    where it is popped and pushes the rest, so each nesting level adds a
    constant number of pieces; one whose arguments are all constants and
    numbers, as most facts are, is written whole.  A leaf of no known kind
    prints as str() gives it.
    """
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
            continue
        max_prec = 0  # outside an operand slot an infix term is parenthesised
        if cls is tuple:
            t, max_prec = t
            cls = t.__class__
        if cls is Const:
            out.append(_const_text(t.symbol, quoted))
        elif cls is Var:
            out.append(t.name)
        elif cls is Num:
            out.append(repr(t.value))
        elif cls is Compound or cls is Atom:
            if cls is Atom:
                name, args = t.predicate, t.args
                prefix = f"{t.module_prefix}:" if t.module_prefix else ""
            else:
                name, args, prefix = t.functor, t.args, ""
            if not args:
                out.append(prefix + _const_text(name, quoted))
            elif cls is Compound and name == "." and len(args) == 2:
                elements, tail = list_elements(t)
                out.append("[")
                stack.append("]")
                if tail != NIL:
                    stack += (tail, "|")
                _push_args(stack, elements)
            elif _infix(name, args):
                if OPERATORS[name][0] > max_prec:
                    out.append(prefix + "(")
                    stack.append(")")
                _push_infix(stack, name, args)
            else:
                head = f"{prefix}{_functor_text(name, quoted)}("
                parts = []  # the arguments, if all are constants or numbers
                for a in args:
                    if a.__class__ is Const:
                        parts.append(_const_text(a.symbol, quoted))
                    elif a.__class__ is Num:
                        parts.append(repr(a.value))
                    else:
                        break
                else:
                    out.append(f"{head}{', '.join(parts)})")
                    continue
                out.append(head)
                stack.append(")")
                _push_args(stack, args)
        else:
            out.append(str(t))
    return "".join(out)


def _push_args(stack: list, args) -> None:
    """Push args, separated by ", ", to be popped first to last."""
    for a in args[:0:-1]:
        stack += (a, ", ")
    stack.append(args[0])


def _push_infix(stack: list, op: str, args: tuple) -> None:
    """Push an infix term's operands and operator, to be popped in order,
    each operand paired with the highest priority its slot admits (the y
    side of yfx admits the operator's own)."""
    prec, assoc = OPERATORS[op]
    stack += (
        (args[1], prec - 1),
        f" {op} " if op in _SPACED else op,
        (args[0], prec if assoc == "yfx" else prec - 1),
    )


@lru_cache(maxsize=4096)
def _const_text(symbol: str, quoted: bool) -> str:
    if quoted and _needs_quotes(symbol):
        body = symbol.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{body}'"
    return symbol


def _functor_text(functor: str, quoted: bool) -> str:
    if functor in OPERATORS:
        return f"'{functor}'" if quoted else functor
    return _const_text(functor, quoted)


def literal_text(lit: Literal, quoted: bool = True) -> str:
    inner = term_text(lit.atom, quoted)
    if lit.is_negated():
        return f"not({inner})"
    return inner


def rule_text(r: Rule, quoted: bool = True) -> str:
    head = term_text(r.head, quoted)
    if not r.body:
        return f"{head}."
    body = ", ".join(literal_text(l, quoted) for l in r.body)
    return f"{head} :- {body}."
