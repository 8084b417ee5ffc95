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
from typing import Optional

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


def _lex(pattern: re.Pattern, text: str, values: dict) -> list[Token]:
    """Split text into the tokens of one language, ending with its eof or
    bad token.  A token's kind is the named group of pattern that matched,
    and it starts where that group does, so the pattern alone places every
    token, eof and bad ones included.  values maps a kind to a function of
    the matched text giving the token's (kind, value), or (None, None) to
    drop it; other kinds keep the matched text."""
    tokens: list[Token] = []
    # the current line, the offset where it starts, the last token's offset
    line, line_start, seen = 1, 0, 0
    for m in pattern.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        at = m.start(kind)
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
            return tokens


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


def tokenize(text: str, filename: str = "<string>") -> list[Token]:
    """Rule text as tokens ending in eof.  Comments are dropped, except a
    `% name:` directive; unreadable input raises at once."""
    tokens = _lex(_RULE_TOKEN, text, _RULE_VALUES)
    if tokens[-1].kind == "bad":
        raise ParseError(tokens[-1].value, tokens[-1].span(filename))
    return tokens


class TokenCursor:
    """A position in a token list; rule text, goals, templates, `--atom`
    and SWRL are all read through it.  A "bad" token holds a lexical error
    that is raised only when a reader reaches it, so an earlier syntax
    error is the one reported."""

    def __init__(self, tokens: list[Token], filename: str = "<string>"):
        self.tokens = tokens
        self.i = 0
        self.last = len(tokens) - 1
        self.filename = filename

    def peek(self, k: int = 0) -> Token:
        """The token k places ahead; the last token (eof) past the end."""
        i = self.i + k
        tok = self.tokens[i if i < self.last else self.last]
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


class TermParser(TokenCursor):
    """Recursive-descent / precedence-climbing parser over a token list."""

    def __init__(self, tokens: list[Token], filename: str = "<string>"):
        super().__init__(tokens, filename)
        self._anon = 0
        self._clause_vars: set[str] = set()

    def begin_clause(self):
        self._clause_vars = set()

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

    def term(self, max_prec: int = 999) -> Term:
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
            name = tok.value
            if self.at_punct("("):
                return Compound(name, self.arg_list())
            return Const(name)
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

    def goal_atom(self) -> Atom:
        """One callable goal, with an optional module prefix."""
        tok = self.peek()
        if tok.kind == "atom" and self.at_punct(":", k=1):
            self.next()
            self.next()
            # a parenthesized goal is a primary too: prolog:(L is N+M)
            return self.to_atom(self.primary(), tok.value, tok)
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


def parse_program(text: str, filename: str = "<string>") -> Program:
    """Parse `.`-separated clauses into a Program.

    Unnamed rules receive names r1, r2, ... by source order; a comment
    directive `% name: foo` names the clause that follows it.  Duplicate
    explicit names are rejected.
    """
    tokens = tokenize(text, filename)
    parser = TermParser(tokens, filename)
    raw: list[tuple[Optional[str], Rule]] = []
    explicit: dict[str, SourceSpan] = {}
    while parser.peek().kind != "eof":
        name = None
        while parser.peek().kind == "directive":
            tok = parser.next()
            name = tok.value
        if parser.peek().kind == "eof":
            if name is not None:
                parser.fail("name directive without a clause")
            break
        parser.begin_clause()
        head_tok = parser.peek()
        head = parser.to_atom(parser.term(999), None, head_tok)
        body: list[Literal] = []
        if parser.at_punct(":-"):
            parser.next()
            body.append(parser.literal())
            while parser.at_punct(","):
                parser.next()
                body.append(parser.literal())
        tok = parser.next()
        if tok.kind != "end":
            parser.fail(f"expected '.', found {tok.value!r}", tok)
        span = head_tok.span(filename)
        if name is not None:
            if name in explicit:
                raise ParseError(f"duplicate rule name {name!r}", span)
            explicit[name] = span
        raw.append((name, Rule(name or "", head, tuple(body), span)))
    taken = set(explicit)
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


def _swrl_tokens(text: str) -> list[Token]:
    """SWRL text as tokens, ending in an eof token valued '' or a bad one
    that holds its message."""
    return _lex(_SWRL_TOKEN, text, _SWRL_VALUES)


class _SwrlReader(TokenCursor):
    def __init__(self, text: str, filename: str):
        super().__init__(_swrl_tokens(text), filename)
        self.text = text

    def rules(self) -> list[SwrlRule]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.rule())
        return out

    def rule(self) -> SwrlRule:
        self.expect("Implies", "name")
        self.expect("(")
        annotations = []
        while self.peek().kind == "name" and self.peek().value == "annotation":
            self.next()
            annotations.append(self.balanced())
        self.expect("Antecedent", "name")
        antecedent = self.atom_list()
        self.expect("Consequent", "name")
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

    def atom_list(self) -> list[Atom]:
        self.expect("(")
        atoms = []
        while not self.at_punct(")"):
            tok = self.peek()
            if tok.kind != "name":
                self.fail(f"expected an atom, found {tok.value!r}", tok)
            atoms.append(self.atom())
        self.next()
        return atoms

    def atom(self) -> Atom:
        name = self.next()
        self.expect("(")
        first = self.tokens[self.i]  # a bad token fails in obj(), as peek would
        args = []
        while not self.at_punct(")"):
            args.append(self.obj())
        self.next()
        return self.classify(name, first, args)

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

    def classify(self, tok: Token, first: Token, args: list[Term]) -> Atom:
        """The atom named by tok; first is its first argument's token, as
        an individual and a string literal are both a Const."""
        name = tok.value
        if name in ("sameAs", "same_as"):
            if len(args) != 2:
                self.fail("sameAs takes two arguments", tok)
            return _call("same_as", tuple(args))
        if name in ("differentFrom", "different_from"):
            if len(args) != 2:
                self.fail("differentFrom takes two arguments", tok)
            return _call("different_from", tuple(args))
        if name == "builtin":
            if not args or first.kind != "name" or not isinstance(args[0], Const):
                self.fail("builtin needs a builtin name first", tok)
            return _call(args[0].symbol, tuple(args[1:]))
        if ":" in name:
            return _call(name, tuple(args))
        if len(args) in (1, 2):
            return Atom(name, tuple(args))
        self.fail(f"unknown atom form {name}/{len(args)}", tok)


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
