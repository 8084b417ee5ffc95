"""Readers and writers for the three input languages.

* Datalog rule text: Prolog-style clauses `H :- B1, ..., Bn.` with
  default negation (`not(A)` / `not A`), builtin calls behind a module
  prefix (`prolog:G`), quoted constants, lists, and infix arithmetic.
* SWRL rules in abstract syntax: `Implies(Antecedent(...) Consequent(...))`.
* A RuleML/XML serialization of the same rules (swrlx:Ontology subset).

parse/print round-trip: parse_program(print_program(p)) == p.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, TypeVar, Union

from .errors import (
    EmptyConsequent,
    ParseError,
    TranslationError,
    UnsupportedConstruct,
)
from .kernel import (
    NIL,
    Atom,
    Compound,
    Const,
    Literal,
    NEGATED,
    Num,
    OPERATORS,
    POSITIVE,
    Program,
    Record,
    Rule,
    SourceSpan,
    Term,
    Var,
    mklist,
    rule_text,
    term_text,
)
from .xmlterm import Text, XmlTerm, parse_xml

# ===========================================================================
# Lexers for rule text (shared with the goal language in hybrid) and SWRL
# ===========================================================================


class Token:
    """One lexed token: kind is atom, var, num, quoted, punct, directive,
    end or eof, or for SWRL name, str or bad; pos is its offset in the
    source text.  Mutable, so unhashable; equal field by field."""

    __slots__ = ("kind", "value", "line", "col", "pos")

    def __init__(self, kind: str, value: object, line: int, col: int, pos: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col
        self.pos = pos

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.value, self.line, self.col, self.pos) == (
            other.kind,
            other.value,
            other.line,
            other.col,
            other.pos,
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Token(kind={self.kind!r}, value={self.value!r}, line={self.line!r}, "
            f"col={self.col!r}, pos={self.pos!r})"
        )

    def span(self, filename: str) -> SourceSpan:
        return SourceSpan(filename, self.line, self.col)


# Rule text.  A word that starts with an ASCII letter or '_' is a var or
# an atom; any other word is sorted out by _word, where a first character
# that is no letter, such as '²', is unreadable.  A number is decimal
# digits with an optional fraction and exponent.  A quoted atom ends at a
# quote that no quote follows, so never inside a doubled one; a quote left
# over opens an atom that never closes.  That quote, and any other
# character that starts no token, is a bad token.
_RULE_TOKEN = re.compile(
    r"""\s*(?:
        (?P<var>[A-Z_]\w*)
      | (?P<atom>[a-z]\w*)
      | (?P<end>\.(?=\s|%|\Z))
      | (?P<punct>=:=|=\\=|:-|:=|::|=<|>=|[()\[\],|.:<>=+\-*/@!])
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<word>[^\W\d]\w*)
      | (?P<quoted>'[^'\\]*(?:(?:\\[\s\S]|'')[^'\\]*)*')(?!')
      | (?P<comment>%[^\n]*)
      | (?P<eof>\Z)
      | (?P<bad>[\s\S])
    )""",
    re.VERBOSE,
)
_DIRECTIVE = re.compile(r"%\s*name:\s*(\S+)\s*$")
_ESCAPE = re.compile(r"\\[\s\S]|''")
_ESCAPED = {"\\n": "\n", "\\t": "\t"}


def _unreadable(text: str) -> tuple[str, str]:
    if text == "'":
        return "bad", "unterminated quoted atom"
    return "bad", f"unexpected character {text!r}"


def _word(text: str) -> tuple[str, str]:
    if not text[0].isalpha():
        return _unreadable(text[0])
    return ("var" if text[0].isupper() else "atom"), text


def _quoted(text: str) -> tuple[str, str]:
    return "quoted", _ESCAPE.sub(lambda e: _ESCAPED.get(e[0], e[0][1]), text[1:-1])


def _comment(text: str) -> tuple[Optional[str], Optional[str]]:
    directive = _DIRECTIVE.match(text)
    return ("directive", directive[1]) if directive else (None, None)


def _number(text: str) -> tuple[str, object]:
    if not text.isdecimal():
        return "num", float(text)
    try:
        return "num", int(text)
    except ValueError:  # more digits than int() converts (4,300 by default)
        return "bad", f"integer of {len(text)} digits is too long"


_RULE_VALUES = {
    "word": _word,
    "num": _number,
    "quoted": _quoted,
    "comment": _comment,
    "eof": lambda text: ("eof", None),
    "bad": _unreadable,
}


# Flat argument lists of rule text: '(' and ')' around arguments that are
# each one variable, plain name or unsigned integer, split by ',' with
# whitespace, but no comment, between the tokens.  An integer here has at
# most 18 ASCII digits; a longer one (int() refuses one of more than 4,300)
# or one with other decimal digits is read token by token.  An argument
# ends where its token would, or the list is not flat.  Group 1 holds the
# arguments, which the second pattern finds one by one.
_RULE_ARG = r"(?:[A-Za-z_]\w*|[0-9]{1,18})"
_RULE_FLAT: Optional[tuple[re.Pattern, re.Pattern]] = None


def _rule_flat() -> tuple[re.Pattern, re.Pattern]:
    global _RULE_FLAT
    if _RULE_FLAT is None:  # compiled on first use, to keep import cheap
        _RULE_FLAT = (
            re.compile(rf"\s*\(\s*({_RULE_ARG}(?:\s*,\s*{_RULE_ARG})*)\s*\)"),
            re.compile(_RULE_ARG),
        )
    return _RULE_FLAT


class TokenCursor:
    """A position in rule text or SWRL that readers move through a token at
    a time; rule text, goals, templates, `--atom` and SWRL are all read
    through it.  The text is lexed on demand: a token is matched when a
    reader first asks for it, so a reader may pass over a stretch of text
    with one match of its own (a flat atom) that makes no tokens.  A cursor
    over a token list lexed already, such as tokenize's, reads it the same
    way.  A "bad" token holds a lexical error that is raised only when a
    reader reaches it, so an earlier syntax error is the one reported."""

    # The language: a token's kind is the named group of pattern that
    # matched, and it starts where that group does, so the pattern alone
    # places every token, eof and bad ones included.  values maps a kind
    # to a function of the matched text giving the token's (kind, value),
    # or (None, None) to drop it; other kinds keep the matched text.
    pattern = _RULE_TOKEN
    values = _RULE_VALUES

    def __init__(self, source: Union[str, list[Token]], filename: str = "<string>"):
        self.filename = filename
        self.i = 0  # the next token's index in tokens
        if isinstance(source, str):
            self.text, self.tokens, self.pos = source, [], 0
        else:  # ending in eof or bad
            self.text, self.tokens, self.pos = None, source, None
        # where lexing goes on (None once an eof or bad token ends it), and
        # its line: the number, the offset that starts it, and the last
        # token's offset, from which line breaks are counted
        self.line, self.line_start, self.seen = 1, 0, 0

    def lex(self, i: int) -> Token:
        """The token at index i, lexed up to it; the last one past the end."""
        tokens, pos = self.tokens, self.pos
        if pos is not None and len(tokens) <= i:
            text, values, match = self.text, self.values, self.pattern.match
            line, line_start, seen = self.line, self.line_start, self.seen
            while True:
                m = match(text, pos)
                kind = m.lastgroup
                value = m[kind]
                at = m.start(kind)
                pos = m.end()
                last_break = text.rfind("\n", seen, at)
                if last_break >= 0:  # only '\n' ends a line
                    line += text.count("\n", seen, last_break + 1)
                    line_start = last_break + 1
                seen = at
                if kind in values:
                    kind, value = values[kind](value)
                    if kind is None:
                        continue
                tokens.append(Token(kind, value, line, at - line_start + 1, at))
                if kind == "eof" or kind == "bad":
                    pos = None
                    break
                if len(tokens) > i:
                    break
            self.pos, self.line, self.line_start, self.seen = pos, line, line_start, seen
        return tokens[i] if i < len(tokens) else tokens[-1]

    def lex_all(self) -> list[Token]:
        """Every token of the text, ending in eof or bad."""
        if self.pos is not None:
            self.lex(len(self.text))  # no more tokens than characters, and eof
        return self.tokens

    def unlexed(self) -> bool:
        """Whether the text after the last token read is still unlexed, so
        that a reader may match it itself."""
        return self.i == len(self.tokens) and self.pos is not None

    def peek(self, k: int = 0) -> Token:
        """The token k places ahead; the last token (eof) past the end."""
        i = self.i + k
        tok = self.tokens[i] if i < len(self.tokens) else self.lex(i)
        if tok.kind == "bad":
            self.fail(tok.value, tok)
        return tok

    def next(self) -> Token:
        tok = self.peek()
        self.i += 1
        return tok

    def at_punct(self, *values: str, k: int = 0) -> bool:
        tok = self.peek(k)
        return tok.kind == "punct" and tok.value in values

    def expect(self, value: str, kind: str = "punct") -> Token:
        tok = self.next()
        if tok.kind != kind or tok.value != value:
            self.fail(f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    def expect_end(self, after_dot: Optional[str] = None):
        """An optional '.', then the end of input; after_dot replaces the
        message for input that follows the '.'."""
        tok = self.next()
        msg = None
        if tok.kind == "end":
            tok, msg = self.next(), after_dot
        if tok.kind != "eof":
            self.fail(msg or f"unexpected trailing {tok.value!r}", tok)

    def fail(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.span(self.filename))


def tokenize(text: str, filename: str = "<string>") -> list[Token]:
    """Rule text as tokens ending in eof.  Comments are dropped, except a
    `% name:` directive; unreadable input raises."""
    tokens = TokenCursor(text, filename).lex_all()
    if tokens[-1].kind == "bad":
        raise ParseError(tokens[-1].value, tokens[-1].span(filename))
    return tokens


_T = TypeVar("_T")


class TermParser(TokenCursor):
    """Recursive-descent / precedence-climbing parser of rule text.  Where
    an argument list may follow a name, it first tries one match for a
    flat list (_RULE_FLAT) and builds the arguments from it; anything
    else, and every term in a token list, is read token by token."""

    def __init__(self, source: Union[str, list[Token]], filename: str = "<string>"):
        super().__init__(source, filename)
        self._anon = 0
        self._clause_vars: set[str] = set()
        self._clause_start = 0  # the index of the clause's first token

    def read(self, reader: Callable[[], _T]) -> _T:
        """reader(), with its errors reported as if the whole text had been
        lexed first: a lexical error anywhere before a syntax error, and a
        term nested deeper than the recursion limit allows as a ParseError
        at the start of its clause or goal."""
        try:
            return reader()
        except ParseError:
            self.raise_lexical()
            raise
        except RecursionError:
            self.raise_lexical()
            self.fail("term nested too deeply", self.tokens[self._clause_start])

    def raise_lexical(self):
        """Raise the text's lexical error, if it has one."""
        last = self.lex_all()[-1]
        if last.kind == "bad":
            self.fail(last.value, last)

    def begin_clause(self):
        self._clause_vars = set()
        self._clause_start = self.i

    def fresh_anon(self) -> Var:
        while True:
            self._anon += 1
            name = f"_G{self._anon}"
            if name not in self._clause_vars:
                self._clause_vars.add(name)
                return Var(name)

    # -- terms ---------------------------------------------------------------

    def infix_op(self) -> Optional[str]:
        tok = self.peek()
        if tok.kind in ("punct", "atom") and tok.value in OPERATORS:
            return tok.value
        return None

    def term(self, max_prec: int = 999, left: Optional[Term] = None) -> Term:
        """A term of priority up to max_prec; left, if given, is its first
        operand, read already."""
        if left is None:
            left = self.primary()
        while True:
            op = self.infix_op()
            if op is None or OPERATORS[op][0] > max_prec:
                return left
            prec, assoc = OPERATORS[op]
            self.next()
            if assoc != "xfy":
                left = Compound(op, (left, self.term(prec - 1)))
                continue
            # read the whole chain, then fold it to the right, so a long
            # conjunction costs no recursion per operand; the same tree as
            # recursing with term(prec) while no other operator has the
            # priority of an xfy one
            operands = [left, self.term(prec - 1)]
            while self.infix_op() == op:
                self.next()
                operands.append(self.term(prec - 1))
            left = operands.pop()
            while operands:
                left = Compound(op, (operands.pop(), left))

    def primary(self) -> Term:
        tok = self.next()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "var":
            if tok.value == "_":
                return self.fresh_anon()
            self._clause_vars.add(tok.value)
            return Var(tok.value)
        if tok.kind in ("atom", "quoted"):
            args = self.flat_args()
            if args is None:
                if not self.at_punct("("):
                    return Const(tok.value)
                args = self.arg_list()
            return Compound(tok.value, args)
        if tok.kind == "punct":
            if tok.value == "(":
                inner = self.term(1200)
                self.expect(")")
                return inner
            if tok.value == "[":
                return self.list_term()
            if tok.value == "-":
                nxt = self.peek()
                if nxt.kind == "num":
                    self.next()
                    return Num(-nxt.value)
                return Compound("-", (self.term(200),))
            if tok.value == "!":
                return Const("!")
        self.fail(f"unexpected token {tok.value!r}", tok)

    def flat_args(self) -> Optional[tuple[Term, ...]]:
        """The arguments of a flat argument list right after the name just
        read, passed over in one match; None if none follows, or the text
        after the name is lexed already."""
        if not self.unlexed():
            return None
        flat, arg = _rule_flat()
        m = flat.match(self.text, self.pos)
        if m is None:
            return None
        args: list[Term] = []
        for word in arg.findall(m[1]):
            first = word[0]
            if first >= "a":
                args.append(Const(word))
            elif first <= "9":
                args.append(Num(int(word)))
            elif word == "_":
                args.append(self.fresh_anon())
            else:
                self._clause_vars.add(word)
                args.append(Var(word))
        self.pos = m.end()
        return tuple(args)

    def arg_list(self) -> tuple[Term, ...]:
        self.expect("(")
        args = [self.term(999)]
        while self.at_punct(","):
            self.next()
            args.append(self.term(999))
        self.expect(")")
        return tuple(args)

    def list_term(self) -> Term:
        if self.at_punct("]"):
            self.next()
            return NIL
        elements = [self.term(999)]
        while self.at_punct(","):
            self.next()
            elements.append(self.term(999))
        tail: Term = NIL
        if self.at_punct("|"):
            self.next()
            tail = self.term(999)
        self.expect("]")
        return mklist(elements, tail)

    # -- literals and clauses ------------------------------------------------

    def goal_atom(self, prefixed: bool = True) -> Atom:
        """One callable goal, with an optional module prefix unless prefixed
        is False (a rule head).  A plain name with flat arguments that no
        operator takes as its left operand is made an Atom at once."""
        tok = self.peek()
        if tok.kind == "atom":
            self.i += 1
            args = self.flat_args()
            if args is not None:
                op = self.infix_op()
                if op is None or OPERATORS[op][0] > 999:
                    return Atom(tok.value, args, None, tok.span(self.filename))
                left = self.term(999, Compound(tok.value, args))  # p(X) = q
                return self.to_atom(left, None, tok)
            if prefixed and self.at_punct(":"):
                self.next()
                # a parenthesized goal is a primary too: prolog:(L is N+M)
                return self.to_atom(self.primary(), tok.value, tok)
            self.i -= 1  # read the name again, as a term
        return self.to_atom(self.term(999), None, tok)

    def to_atom(self, t: Term, module: Optional[str], tok: Token) -> Atom:
        span = tok.span(self.filename)
        if isinstance(t, Const):
            return Atom(t.symbol, (), module, span)
        if isinstance(t, Compound) and not (t.functor == "." and len(t.args) == 2):
            return Atom(t.functor, t.args, module, span)
        self.fail(f"{term_text(t)} cannot be used as a goal", tok)

    def literal(self) -> Literal:
        tok = self.peek()
        if tok.kind == "atom" and tok.value == "not":
            nxt = self.peek(1)
            if nxt.kind == "punct" and nxt.value == "(":
                self.next()
                self.next()
                inner = self.goal_atom()
                if self.at_punct(","):
                    self.fail("not/1 takes a single goal")
                self.expect(")")
                return Literal(inner, NEGATED)
            starts_term = nxt.kind in ("atom", "var", "num", "quoted") or (
                nxt.kind == "punct" and nxt.value in ("(", "[", "-", "!")
            )
            if starts_term:
                self.next()
                inner = self.goal_atom()
                return Literal(inner, NEGATED)
        return Literal(self.goal_atom(), POSITIVE)

    def clauses(self) -> list[tuple[Optional[str], Rule]]:
        """The clauses up to the end of the text, each with the name its
        `% name:` directive gives, or None."""
        raw: list[tuple[Optional[str], Rule]] = []
        explicit: set[str] = set()
        while True:
            name = None
            tok = self.peek()
            while tok.kind == "directive":
                name = tok.value
                self.i += 1
                tok = self.peek()
            if tok.kind == "eof":
                if name is not None:
                    self.fail("name directive without a clause", tok)
                return raw
            self.begin_clause()
            head = self.goal_atom(prefixed=False)
            body: list[Literal] = []
            if self.at_punct(":-"):
                self.next()
                body.append(self.literal())
                while self.at_punct(","):
                    self.next()
                    body.append(self.literal())
            tok = self.next()
            if tok.kind != "end":
                self.fail(f"expected '.', found {tok.value!r}", tok)
            if name is not None:
                if name in explicit:
                    raise ParseError(f"duplicate rule name {name!r}", head.span)
                explicit.add(name)
            raw.append((name, Rule(name or "", head, tuple(body), head.span)))


def parse_program(text: str, filename: str = "<string>") -> Program:
    """Parse `.`-separated clauses into a Program.

    Unnamed rules receive names r1, r2, ... by source order; a comment
    directive `% name: foo` names the clause that follows it.  Duplicate
    explicit names are rejected.
    """
    parser = TermParser(text, filename)
    raw = parser.read(parser.clauses)
    taken = {name for name, _ in raw if name is not None}
    rules: list[Rule] = []
    k = 0
    for name, rule in raw:
        if name is None:
            k += 1
            while f"r{k}" in taken:
                k += 1
            name = f"r{k}"
            taken.add(name)
        rules.append(Rule(name, rule.head, rule.body, rule.span))
    return Program(tuple(rules))


def parse_atom(text: str, filename: str = "<atom>") -> Atom:
    """One goal atom, as `--atom` gives it, and nothing after it but an
    optional '.'."""
    parser = TermParser(text, filename)

    def whole_atom() -> Atom:
        atom = parser.goal_atom()
        parser.expect_end()
        return atom

    return parser.read(whole_atom)


def print_program(p: Program) -> str:
    """Render a program as parseable rule text (inverse of parse_program)."""
    lines = []
    for i, r in enumerate(p.rules):
        if r.name != f"r{i + 1}":
            lines.append(f"% name: {r.name}")
        lines.append(rule_text(r))
    return "\n".join(lines) + ("\n" if lines else "")


# ===========================================================================
# SWRL abstract syntax
# ===========================================================================


class SwrlRule(Record):
    """A SWRL rule whose antecedent and consequent are kernel atoms: a
    class atom is unary, a property atom binary, and sameAs,
    differentFrom and built-ins are prolog-prefixed calls.  Variables
    keep their source names until swrl_to_datalog."""

    __slots__ = _fields = ("annotations", "antecedent", "consequent")


class SwrlOntology(Record):
    """The rules of a swrlx:Ontology and its class assertions (atoms)."""

    __slots__ = _fields = ("name", "rules", "class_atoms")
    _defaults = {"class_atoms": ()}


def _call(name: str, args: tuple[Term, ...]) -> Atom:
    """sameAs, differentFrom or a built-in as a prolog call named by the
    part of name after its last ':'."""
    return Atom(name.rsplit(":", 1)[-1], args, "prolog")


# SWRL.  The end of input and unreadable input both sit right after the
# previous token, where the reader reports them.
_SWRL_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>\d+(?:\.\d+)?)
      | (?P<str>"[^"]*")
      | (?P<name>[A-Za-z_][A-Za-z0-9_:.\-]*)
      | (?P<punct>[()])
    )
    | (?P<eof>)(?=\s*\Z)
    | (?P<bad>)""",
    re.VERBOSE,
)
_SWRL_VALUES = {
    "str": lambda text: ("str", text[1:-1]),
    "bad": lambda text: ("bad", "unexpected input"),
}

# A flat SWRL atom: (1) a name, then '(' and ')' around (2) arguments that
# are each I-variable(v), D-variable(v), a number, a string or a name.  One
# argument is (1) the variable v, (2) a number, (3) a string's text or (4)
# a name other than I-variable and D-variable, which always start a
# variable.  A name or number ends where its token would, so that a match
# that fails does not try it again split in two.  The frame of a rule's
# atom lists is matched whole too: `( Antecedent (` after `Implies` with
# no annotation, and `Consequent (` after the antecedent.
_SWRL_END = r"(?![A-Za-z0-9_:.\-])"  # where a name token ends
_SWRL_NAME = rf"[A-Za-z_][A-Za-z0-9_:.\-]*{_SWRL_END}"
_SWRL_ARG = (
    rf"""\s*(?:[ID]-variable\s*\(\s*({_SWRL_NAME})\s*\)"""
    rf"""|(\d+(?:\.\d+)?)(?!\d)|"([^"]*)"|(?![ID]-variable{_SWRL_END})({_SWRL_NAME}))"""
)
_SWRL_FLAT: Optional[tuple[re.Pattern, ...]] = None


def _swrl_flat() -> tuple[re.Pattern, ...]:
    """The flat atom and argument patterns, then the two frame patterns."""
    global _SWRL_FLAT
    if _SWRL_FLAT is None:  # compiled on first use, to keep import cheap
        _SWRL_FLAT = (
            re.compile(rf"\s*({_SWRL_NAME})\s*\(((?:{_SWRL_ARG})*)\s*\)"),
            re.compile(_SWRL_ARG),
            re.compile(r"\s*\(\s*Antecedent\s*\("),
            re.compile(r"\s*Consequent\s*\("),
        )
    return _SWRL_FLAT


class _SwrlReader(TokenCursor):
    """The SWRL reader.  Where an atom list expects an atom, it first tries
    one match for a flat atom, and around the atom lists one match for
    their frame (_SWRL_FLAT); anything else is read token by token."""

    pattern = _SWRL_TOKEN
    values = _SWRL_VALUES

    def rules(self) -> list[SwrlRule]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.rule())
        return out

    def rule(self) -> SwrlRule:
        antecedent_frame, consequent_frame = _swrl_flat()[2:]
        self.expect("Implies", "name")
        annotations = []
        if not self.passed(antecedent_frame):
            self.expect("(")
            while self.peek().kind == "name" and self.peek().value == "annotation":
                self.next()
                annotations.append(self.balanced())
            self.expect("Antecedent", "name")
            self.expect("(")
        antecedent = self.atom_list()
        if not self.passed(consequent_frame):
            self.expect("Consequent", "name")
            self.expect("(")
        consequent = self.atom_list()
        self.expect(")")
        return SwrlRule(tuple(annotations), tuple(antecedent), tuple(consequent))

    def balanced(self) -> str:
        """Capture a balanced parenthesized chunk verbatim (annotations)."""
        start = self.expect("(")
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated annotation", tok)
            if tok.kind == "punct":
                depth += 1 if tok.value == "(" else -1
        return self.text[start.pos : tok.pos + 1]

    def passed(self, pattern: re.Pattern) -> bool:
        """Whether pattern matches the unlexed text at the cursor, which it
        then passes over."""
        m = pattern.match(self.text, self.pos) if self.unlexed() else None
        if m is not None:
            self.pos = m.end()
        return m is not None

    def atom_list(self) -> list[Atom]:
        """The atoms after an atom list's '(', up to its ')'."""
        atoms = []
        while True:
            atom = self.flat_atom()
            if atom is None:
                tok = self.peek()
                if tok.kind == "punct" and tok.value == ")":
                    break
                if tok.kind != "name":
                    self.fail(f"expected an atom, found {tok.value!r}", tok)
                atom = self.atom()
            atoms.append(atom)
        self.next()
        return atoms

    def flat_atom(self) -> Optional[Atom]:
        """The flat atom at the cursor, passed over in one match; None if
        none is there, or the text after the cursor is lexed already."""
        if not self.unlexed():
            return None
        flat, arg = _swrl_flat()[:2]
        m = flat.match(self.text, self.pos)
        if m is None:
            return None
        found = arg.findall(m[2])
        args: list[Term] = []
        for var, num, string, name in found:
            if var:
                args.append(Var(var))
            elif name:
                args.append(Const(name))
            elif num:
                kind, value = _number(num)
                if kind == "bad":
                    return None  # the token path reports it
                args.append(Num(value))
            else:
                args.append(Const(string))
        atom = self.classify(m[1], m.start(1), args, bool(found and found[0][3]))
        self.pos = m.end()
        return atom

    def atom(self) -> Atom:
        name = self.next()
        self.expect("(")
        first = self.peek()
        args = []
        while not self.at_punct(")"):
            args.append(self.obj())
        self.next()
        return self.classify(name.value, name.pos, args, first.kind == "name")

    def obj(self) -> Term:
        tok = self.next()
        if tok.kind == "num":
            kind, value = _number(tok.value)
            if kind == "bad":
                self.fail(value, tok)
            return Num(value)
        if tok.kind == "str":
            return Const(tok.value)
        if tok.kind == "name":
            if tok.value in ("I-variable", "D-variable"):
                self.expect("(")
                var = self.next()
                if var.kind != "name":
                    self.fail("expected a variable name", var)
                self.expect(")")
                return Var(var.value)
            return Const(tok.value)
        self.fail(f"unexpected {tok.value!r} in atom arguments", tok)

    def classify(self, name: str, at: int, args: list[Term], name_first: bool) -> Atom:
        """The atom named name at offset at; name_first tells whether the
        first argument is written as a name, as an individual and a string
        literal are both a Const."""
        if name in ("sameAs", "same_as"):
            if len(args) != 2:
                self.fail_at("sameAs takes two arguments", at)
            return _call("same_as", tuple(args))
        if name in ("differentFrom", "different_from"):
            if len(args) != 2:
                self.fail_at("differentFrom takes two arguments", at)
            return _call("different_from", tuple(args))
        if name == "builtin":
            if not name_first or not isinstance(args[0], Const):
                self.fail_at("builtin needs a builtin name first", at)
            return _call(args[0].symbol, tuple(args[1:]))
        if ":" in name:
            return _call(name, tuple(args))
        if len(args) in (1, 2):
            return Atom(name, tuple(args))
        self.fail_at(f"unknown atom form {name}/{len(args)}", at)

    def fail_at(self, msg: str, at: int):
        """Raise msg at offset at of the text."""
        raise ParseError(msg, SourceSpan.at(self.filename, self.text, at))


def parse_swrl(text: str, filename: str = "<string>") -> list[SwrlRule]:
    """Parse SWRL rules written in the Implies(...) abstract syntax."""
    return _SwrlReader(text, filename).rules()


# ===========================================================================
# RuleML / XML subset
# ===========================================================================


def parse_ruleml_xml(text: str, filename: str = "<xml>") -> SwrlOntology:
    """Read a swrlx:Ontology document into SWRL rules and class assertions."""
    root = parse_xml(text, filename)
    if root.tag != "swrlx:Ontology":
        raise UnsupportedConstruct(f"expected swrlx:Ontology, found <{root.tag}>")
    name = root.attributes.get("swrlx:name", "")
    rules: list[SwrlRule] = []
    class_atoms: list[Atom] = []
    for child in _elements(root):
        if child.tag == "ruleml:imp":
            rules.append(_imp_to_rule(child))
        elif child.tag == "swrlx:classAtom":
            class_atoms.append(_xml_atom(child))
        else:
            raise UnsupportedConstruct(f"unsupported element <{child.tag}>")
    return SwrlOntology(name, tuple(rules), tuple(class_atoms))


def _elements(node: XmlTerm) -> list[XmlTerm]:
    for c in node.children:
        if isinstance(c, Text) and c.value.strip():
            raise UnsupportedConstruct(
                f"unexpected text {c.value.strip()!r} inside <{node.tag}>"
            )
    return node.child_elements()


def _imp_to_rule(imp: XmlTerm) -> SwrlRule:
    body: tuple[Atom, ...] = ()
    head: tuple[Atom, ...] = ()
    seen = set()
    for part in _elements(imp):
        if part.tag == "ruleml:_body":
            body = tuple(_xml_atom(a) for a in _elements(part))
        elif part.tag == "ruleml:_head":
            head = tuple(_xml_atom(a) for a in _elements(part))
        else:
            raise UnsupportedConstruct(f"unsupported element <{part.tag}> in ruleml:imp")
        if part.tag in seen:
            raise UnsupportedConstruct(f"duplicate <{part.tag}> in ruleml:imp")
        seen.add(part.tag)
    return SwrlRule((), body, head)


def _xml_atom(node: XmlTerm) -> Atom:
    if node.tag == "swrlx:individualPropertyAtom":
        prop = node.attributes.get("swrlx:property")
        if prop is None:
            raise UnsupportedConstruct("individualPropertyAtom without swrlx:property")
        args = [_xml_obj(t) for t in _elements(node)]
        if len(args) != 2:
            raise UnsupportedConstruct(f"{prop} property atom needs two arguments")
        return Atom(prop, tuple(args))
    if node.tag == "swrlx:classAtom":
        parts = _elements(node)
        if len(parts) != 2:
            raise UnsupportedConstruct("classAtom needs a class and one argument")
        cls = _xml_class(parts[0])
        return Atom(cls, (_xml_obj(parts[1]),))
    if node.tag == "swrlx:sameIndividualAtom":
        args = [_xml_obj(t) for t in _elements(node)]
        if len(args) != 2:
            raise UnsupportedConstruct("sameIndividualAtom needs two arguments")
        return _call("same_as", tuple(args))
    if node.tag == "swrlx:differentIndividualsAtom":
        args = [_xml_obj(t) for t in _elements(node)]
        if len(args) != 2:
            raise UnsupportedConstruct("differentIndividualsAtom needs two arguments")
        return _call("different_from", tuple(args))
    if node.tag == "swrlx:builtinAtom":
        name = node.attributes.get("swrlx:builtin")
        if name is None:
            raise UnsupportedConstruct("builtinAtom without swrlx:builtin")
        return _call(name, tuple(_xml_obj(t) for t in _elements(node)))
    raise UnsupportedConstruct(f"unsupported atom element <{node.tag}>")


def _xml_obj(node: XmlTerm) -> Term:
    if node.tag == "ruleml:var":
        name = node.text().strip()
        if not name:
            raise UnsupportedConstruct("empty ruleml:var")
        return Var(name)
    if node.tag == "owlx:Individual":
        name = node.attributes.get("owlx:name")
        if name is None:
            raise UnsupportedConstruct("owlx:Individual without owlx:name")
        return Const(name)
    raise UnsupportedConstruct(f"unsupported term element <{node.tag}>")


def _xml_class(node: XmlTerm) -> str:
    """Flatten a class expression to a canonical opaque name."""
    if node.tag == "owlx:Class":
        name = node.attributes.get("owlx:name")
        if name is None:
            raise UnsupportedConstruct("owlx:Class without owlx:name")
        return name
    if node.tag == "owlx:IntersectionOf":
        inner = ",".join(_xml_class(c) for c in _elements(node))
        return f"and({inner})"
    if node.tag == "owlx:ObjectRestriction":
        prop = node.attributes.get("owlx:property")
        if prop is None:
            raise UnsupportedConstruct("ObjectRestriction without owlx:property")
        parts = _elements(node)
        if len(parts) == 1 and parts[0].tag == "owlx:someValuesFrom":
            sv = parts[0]
            cls = sv.attributes.get("owlx:class")
            if cls is None:
                sub = _elements(sv)
                if len(sub) != 1:
                    raise UnsupportedConstruct("someValuesFrom needs one class")
                cls = _xml_class(sub[0])
            return f"some({prop},{cls})"
        raise UnsupportedConstruct("unsupported restriction form")
    raise UnsupportedConstruct(f"unsupported class expression <{node.tag}>")


# ===========================================================================
# Transformations
# ===========================================================================


def lloyd_topor(rule: SwrlRule) -> list[SwrlRule]:
    """Split a conjunctive consequent into one rule per consequent atom."""
    if not rule.consequent:
        raise EmptyConsequent("rule has an empty consequent")
    return [
        SwrlRule(rule.annotations, rule.antecedent, (atom,))
        for atom in rule.consequent
    ]


def swrl_to_datalog(rules: list[SwrlRule]) -> Program:
    """Map normalized SWRL rules onto plain clauses.

    The atoms are kept as read; variable names are made names rule text
    reads back (_capitalize), head first, and two source names that
    collide as one are rejected.  Annotations are dropped.
    """
    out: list[Rule] = []
    for k, rule in enumerate(rules, start=1):
        if len(rule.consequent) != 1:
            raise TranslationError(
                "rule is not normalized: expected exactly one consequent atom"
            )
        varmap: dict[str, str] = {}
        head = _capitalize(rule.consequent[0], varmap)
        if head.module_prefix is not None:
            raise TranslationError(
                f"builtin atom {head.predicate!r} cannot be a rule head"
            )
        body = tuple(Literal(_capitalize(a, varmap)) for a in rule.antecedent)
        out.append(Rule(f"r{k}", head, body))
    return Program(tuple(out))


_NOT_IN_VAR = re.compile(r"[^A-Za-z0-9_]")


def _capitalize(atom: Atom, varmap: dict[str, str]) -> Atom:
    """atom with each variable renamed so that rule text reads it back:
    the first letter upper-cased, each character a rule variable may not
    hold made '_' (SWRL names may hold '-', '.' and ':', RuleML ones
    anything), '_' put before a leading digit, and a lone '_', the
    anonymous variable in rule text, made '_V'.  varmap maps a new name
    to the source name first seen for it."""
    args = []
    for arg in atom.args:
        if isinstance(arg, Var):
            name = arg.name
            cap = _NOT_IN_VAR.sub("_", name[0].upper() + name[1:])
            if cap[0].isdigit():
                cap = "_" + cap
            elif cap == "_":
                cap = "_V"
            prior = varmap.setdefault(cap, name)
            if prior != name:
                raise TranslationError(
                    f"variables {prior!r} and {name!r} collide as {cap!r}"
                )
            arg = Var(cap)
        args.append(arg)
    return Atom(atom.predicate, tuple(args), atom.module_prefix)
