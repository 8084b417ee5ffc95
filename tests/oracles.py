"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: label-correcting stratification,
nested-loop joins over ground fact lists, compensated sums via math.fsum.
Slow but obviously correct on desk-scale inputs, and sharing no evaluation
machinery with the code under test.
"""

from __future__ import annotations

import csv
import math
import re
import xml.etree.ElementTree as ET

from ddlite.errors import EvalTypeError, GraphKindError, ParseError, XmlParseError
from ddlite.graphs import NOT, PDG, PLAIN, RPG, DepGraph, Edge, PredNode
from ddlite.hybrid import AttrAccess, Child, Filter
from ddlite.kernel import (
    NIL,
    OPERATORS,
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    Program,
    Rule,
    SourceSpan,
    Var,
    is_ground,
    mklist,
    term_text,
)
from ddlite.syntax import SwrlRule, Token
from ddlite.xmlterm import Text, XmlTerm


# ===========================================================================
# Ground-instantiation model oracle
# ===========================================================================


def _match(pattern, fact_args, env):
    """Extend env so the pattern args equal the ground fact args, or None."""
    out = dict(env)
    for p, f in zip(pattern, fact_args):
        if isinstance(p, Var):
            bound = out.get(p.name)
            if bound is None:
                out[p.name] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


def _ground(t, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_ground(a, env) for a in t.args))
    return t


def _strata(program):
    """Predicate -> stratum by label correction; None if negation is cyclic."""
    keys = set()
    for rule in program.rules:
        keys.add(rule.head.key)
        for lit in rule.body:
            if lit.atom.module_prefix is None:
                keys.add(lit.atom.key)
    level = {k: 0 for k in keys}
    for _ in range(len(keys) + 1):
        changed = False
        for rule in program.rules:
            h = rule.head.key
            for lit in rule.body:
                if lit.atom.module_prefix is not None:
                    continue
                need = level[lit.atom.key] + (1 if lit.is_negated() else 0)
                if level[h] < need:
                    level[h] = need
                    changed = True
        if not changed:
            return level
    return None


_COMPARE = {
    "<": lambda a, b: a < b,
    "=<": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
}


def _arith_value(t, env):
    t = _ground(t, env)
    if isinstance(t, Num):
        return t.value
    assert isinstance(t, Compound), "oracle: not an arithmetic expression"
    if t.functor == "-" and len(t.args) == 1:
        return -_arith_value(t.args[0], env)
    assert len(t.args) == 2, "oracle: not an arithmetic expression"
    a, b = (_arith_value(x, env) for x in t.args)
    if t.functor == "+":
        return a + b
    if t.functor == "-":
        return a - b
    if t.functor == "*":
        return a * b
    assert t.functor == "/", "oracle: not an arithmetic expression"
    assert b != 0, "oracle: division by zero"
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def ground_model(program):
    """Minimal model of a stratified program by exhaustive rule firing.

    Body literals are processed positives first, then builtin calls in
    their body order (create_owl_thing, is, comparisons, pt, same_as,
    different_from are understood), then negations; any other builtin is
    rejected.  Returns the model as a set of rendered fact strings.
    """
    level = _strata(program)
    assert level is not None, "oracle given a non-stratified program"
    facts: dict = {}

    def rows(key):
        return facts.get(key, [])

    def fire(rule):
        positives = []
        builtins = []
        negatives = []
        for lit in rule.body:
            if lit.atom.module_prefix is not None:
                builtins.append(lit)
            elif lit.atom.predicate in ("!", "true") and not lit.atom.args:
                if lit.is_negated():  # `not true` fails, as `\+ true` does
                    return []
            elif lit.is_negated():
                negatives.append(lit.atom)
            else:
                positives.append(lit.atom)

        def run_builtin(atom, env):
            """Extended env (or None for failure) after one builtin call."""
            name = atom.predicate
            if name == "create_owl_thing":
                b = atom.args[0]
                assert isinstance(b, Var)
                args = tuple(_ground(a, env) for a in atom.args[1:])
                out = dict(env)
                out[b.name] = Compound(
                    "skolem", (Const("create_owl_thing"),) + args
                )
                return out
            if name == "is":
                value = Num(_arith_value(atom.args[1], env))
                return _match((atom.args[0],), (value,), env)
            if name in _COMPARE:
                holds = _COMPARE[name](
                    _arith_value(atom.args[0], env),
                    _arith_value(atom.args[1], env),
                )
                return dict(env) if holds else None
            if name in ("pt", "same_as", "="):
                try:
                    return _match((atom.args[0],), (_ground(atom.args[1], env),), env)
                except KeyError:
                    return _match((atom.args[1],), (_ground(atom.args[0], env),), env)
            if name == "different_from":
                a, b = (_ground(x, env) for x in atom.args)
                return dict(env) if a != b else None
            raise AssertionError(f"oracle does not model builtin {name}")

        def walk(i, env):
            if i == len(positives):
                out = dict(env)
                for lit in builtins:
                    out = run_builtin(lit.atom, out)
                    if out is None:
                        return
                for neg in negatives:
                    args = tuple(_ground(a, out) for a in neg.args)
                    if args in set(map(tuple, rows(neg.key))):
                        return
                yield out
                return
            atom = positives[i]
            for stored in rows(atom.key):
                env2 = _match(atom.args, stored, env)
                if env2 is not None:
                    yield from walk(i + 1, env2)

        derived = []
        for env in walk(0, {}):
            derived.append(tuple(_ground(a, env) for a in rule.head.args))
        return derived

    for stratum in range(max(level.values(), default=0) + 1):
        layer = [r for r in program.rules if level[r.head.key] == stratum]
        changed = True
        while changed:
            changed = False
            for rule in layer:
                for args in fire(rule):
                    bucket = facts.setdefault(rule.head.key, [])
                    if args not in bucket:
                        bucket.append(args)
                        changed = True
    out = set()
    for key, tuples in facts.items():
        for args in tuples:
            out.add(term_text(Atom(key.name, tuple(args), key.module)))
    return out


def model_of_store(store):
    """The engine's fact store rendered the same way as ground_model output."""
    return {term_text(f) for f in store.sorted_facts()}


# ===========================================================================
# Hybrid aggregation oracle (stdlib csv + ElementTree, nested loops, fsum)
# ===========================================================================


def sum_hours_by_dept(employee_csv, works_on_xml):
    """Group key -> compensated sum over the employee/works_on join.

    Joins every employee row against every XML row (quadratic on purpose),
    keeps rows whose HOURS parses as a number, groups on the department
    column, and sums each group with math.fsum.
    """
    with open(employee_csv, newline="", encoding="utf-8") as fh:
        employees = [row for row in csv.reader(fh) if row]
    rows = ET.parse(works_on_xml).getroot().findall("row")
    groups: dict = {}
    for emp in employees:
        ssn, dno = emp[1], int(emp[6])
        for row in rows:
            if row.get("ESSN") != ssn:
                continue
            try:
                hours = float(row.get("HOURS"))
            except (TypeError, ValueError):
                continue
            groups.setdefault(dno, []).append(hours)
    return [[dno, math.fsum(groups[dno])] for dno in sorted(groups)]


# ===========================================================================
# Path expression oracle (every step scans every child of every item)
# ===========================================================================


def scan_path_eval(doc, expr, env=None):
    """path_eval by scanning: each step walks all children of all items.
    Filter values must be ground constants or numbers after env."""
    env = env or {}
    items = [doc]
    for step in expr.steps:
        if isinstance(step, Child):
            items = [
                child
                for it in items
                if isinstance(it, XmlTerm)
                for child in it.children
                if isinstance(child, XmlTerm) and child.tag == step.tag
            ]
        elif isinstance(step, Filter):
            value = env.get(step.value.name) if isinstance(step.value, Var) else step.value
            if isinstance(value, Num):
                wanted = str(value.value) if isinstance(value.value, int) else repr(value.value)
            else:
                wanted = value.symbol
            items = [
                it
                for it in items
                if isinstance(it, XmlTerm) and it.attributes.get(step.attr) == wanted
            ]
        else:
            assert isinstance(step, AttrAccess)
            items = [
                Const(it.attributes[step.name])
                for it in items
                if step.name in it.attributes
            ]
    return [(item, env) for item in items]


# ===========================================================================
# Rule-text lexer, one character at a time
# ===========================================================================

_PUNCT = ("=:=", "=\\=", ":-", ":=", "::", "=<", ">=") + tuple("()[],|.:<>=+-*/@!")


def char_tokens(text):
    """The (kind, value, line, col, offset) tokens of rule text, or the
    message "line:col: ..." of its first lexical error.  Positions are
    counted from the start for every token."""
    out, i, n = [], 0, len(text)

    def at(k):
        return text.count("\n", 0, k) + 1, k - text.rfind("\n", 0, k)

    def decimals(j):
        while j < n and text[j].isdecimal():
            j += 1
        return j

    while True:
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return out + [("eof", None, *at(n), n)]
        c = text[i]
        if c == "%":
            end = text.find("\n", i)
            end = n if end < 0 else end
            words = text[i + 1 : end].split()
            if len(words) == 2 and words[0] == "name:":
                out.append(("directive", words[1], *at(i), i))
            elif len(words) == 1 and words[0].startswith("name:") and len(words[0]) > 5:
                out.append(("directive", words[0][5:], *at(i), i))
            i = end
            continue
        if c.isdecimal():
            j = decimals(i)
            if text[j : j + 1] == "." and text[j + 1 : j + 2].isdecimal():
                j = decimals(j + 1)
            k = j + 1 + (text[j + 1 : j + 2] in ("+", "-"))
            if text[j : j + 1] in ("e", "E") and text[k : k + 1].isdecimal():
                j = decimals(k)
            lit = text[i:j]
            out.append(("num", int(lit) if lit.isdecimal() else float(lit), *at(i), i))
            i = j
            continue
        if c == "'":
            j, buf = i + 1, []
            while True:
                if j >= n or (text[j] == "\\" and j + 1 == n):
                    return "%d:%d: unterminated quoted atom" % at(i)
                if text[j] == "\\":
                    buf.append({"n": "\n", "t": "\t"}.get(text[j + 1], text[j + 1]))
                    j += 2
                elif text[j : j + 2] == "''":
                    buf.append("'")
                    j += 2
                elif text[j] == "'":
                    break
                else:
                    buf.append(text[j])
                    j += 1
            out.append(("quoted", "".join(buf), *at(i), i))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "var" if c == "_" or c.isupper() else "atom"
            out.append((kind, text[i:j], *at(i), i))
            i = j
            continue
        if c == "." and (i + 1 == n or text[i + 1].isspace() or text[i + 1] == "%"):
            out.append(("end", ".", *at(i), i))
            i += 1
            continue
        punct = next((p for p in _PUNCT if text.startswith(p, i)), None)
        if punct is None:
            return "%d:%d: unexpected character %r" % (*at(i), c)
        out.append(("punct", punct, *at(i), i))
        i += len(punct)


# ===========================================================================
# XML scanner, a character class at a time
# ===========================================================================

_XML_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
_XML_NAME = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_.:\-]*)?")
_XML_SPACE = re.compile(r"\s*")
_XML_CHARS = re.compile(r"[^<&]*")
_XML_ATTR_CHARS = {q: re.compile(f"[^{q}<&]*") for q in "'\""}


def reference_parse_xml(source, filename="<xml>"):
    """parse_xml as a cursor that peeks one step at a time: the same trees,
    and the same XmlParseError message and span for malformed input."""
    return _XmlStepper(source, filename).document()


class _XmlStepper:
    def __init__(self, source, filename):
        self.src, self.pos, self.filename = source, 0, filename

    def fail(self, msg):
        line = self.src.count("\n", 0, self.pos) + 1
        col = self.pos - self.src.rfind("\n", 0, self.pos)
        raise XmlParseError(msg, SourceSpan(self.filename, line, col))

    def peek(self, k=1):
        return self.src[self.pos : self.pos + k]

    def run(self, pattern):
        m = pattern.match(self.src, self.pos)
        self.pos = m.end()
        return m[0]

    def skip_markup(self):
        if self.peek(4) == "<!--":
            end = self.src.find("-->", self.pos + 4)
            if end < 0:
                self.fail("unterminated comment")
            self.pos = end + 3
        elif self.peek(2) == "<?":
            end = self.src.find("?>", self.pos + 2)
            if end < 0:
                self.fail("unterminated processing instruction")
            self.pos = end + 2
        elif self.peek(2) == "<!":
            self.fail("DTD declarations are not supported")
        else:
            return False
        return True

    def skip_misc(self):
        self.run(_XML_SPACE)
        while self.skip_markup():
            self.run(_XML_SPACE)

    def name(self):
        name = self.run(_XML_NAME)
        if not name:
            self.fail("expected a name")
        return name

    def expect(self, text):
        if self.peek(len(text)) != text:
            self.fail(f"expected {text!r}")
        self.pos += len(text)

    def entity(self):
        self.expect("&")
        end = self.src.find(";", self.pos)
        if end < 0 or end - self.pos > 6:
            self.fail("malformed entity reference")
        ref = self.src[self.pos : end]
        if ref not in _XML_ENTITIES:
            self.fail(f"unsupported entity &{ref};")
        self.pos = end + 1
        return _XML_ENTITIES[ref]

    def document(self):
        self.skip_misc()
        if self.peek() != "<":
            self.fail("expected a root element")
        root = self.element()
        self.skip_misc()
        if self.peek():
            self.fail("content after the root element")
        return root

    def element(self):
        root, has_content = self.start_tag()
        stack = [root] if has_content else []
        while stack:
            if self.content(stack[-1]):
                child, has_content = self.start_tag()
                stack[-1].children.append(child)
                if has_content:
                    stack.append(child)
            else:
                stack.pop()
        return root

    def start_tag(self):
        self.expect("<")
        tag = self.name()
        attributes = {}
        while True:
            self.run(_XML_SPACE)
            if self.peek(2) == "/>":
                self.pos += 2
                return XmlTerm(tag, attributes, []), False
            if self.peek() == ">":
                self.pos += 1
                return XmlTerm(tag, attributes, []), True
            key = self.name()
            self.run(_XML_SPACE)
            self.expect("=")
            self.run(_XML_SPACE)
            if key in attributes:
                self.fail(f"duplicate attribute {key!r}")
            attributes[key] = self.attr_value()

    def attr_value(self):
        quote = self.peek()
        if quote not in ("'", '"'):
            self.fail("expected a quoted attribute value")
        self.pos += 1
        out = []
        while True:
            out.append(self.run(_XML_ATTR_CHARS[quote]))
            c = self.peek()
            if c == quote:
                self.pos += 1
                return "".join(out)
            if c == "&":
                out.append(self.entity())
            elif c == "<":
                self.fail("'<' inside attribute value")
            else:
                self.fail("unterminated attribute value")

    def content(self, node):
        buf = []

        def flush():
            if buf:
                node.children.append(Text("".join(buf)))
                buf.clear()

        while True:
            text = self.run(_XML_CHARS)
            if text:
                buf.append(text)
            c = self.peek()
            if c == "<":
                if self.peek(2) == "</":
                    flush()
                    self.pos += 2
                    closing = self.name()
                    if closing != node.tag:
                        self.fail(f"mismatched closing tag </{closing}> for <{node.tag}>")
                    self.run(_XML_SPACE)
                    self.expect(">")
                    return False
                if self.skip_markup():
                    continue
                flush()
                return True
            elif c == "&":
                buf.append(self.entity())
            else:
                self.fail(f"unterminated element <{node.tag}>")


# ===========================================================================
# XML scanner, a part of a tag at a time
# ===========================================================================

_PART_NAME = r"[A-Za-z_][A-Za-z0-9_.:\-]*"
# `<tag` of a start tag, the '<' known present
_PART_START = re.compile(f"<({_PART_NAME})?")
# one attribute, or the tag's end: (1) `>` or `/>`, (2) name, (3) `=`,
# (4) or (5) value inside " or ', (6) closing quote
_PART_ATTR = re.compile(
    rf"""\s*(?:(/?>)|({_PART_NAME})\s*(?:(=\s*)(?:"([^"<]*)|'([^'<]*))?(["']?))?)?"""
)
# (1) character data up to the next '<', then (2) `</` with (3) a name and
# (4) `>`, or (5) the start, not passed, of a comment, processing
# instruction or DTD declaration
_PART_CONTENT = re.compile(rf"([^<]*)(?:(</)(?:({_PART_NAME})\s*(>)?)?|(?=(<[!?])))?")
# whitespace, comments and processing instructions
_PART_MISC = re.compile(r"\s*(?:(?:<!--.*?-->|<\?.*?\?>)\s*)*", re.DOTALL)


def reference_scan_xml(source, filename="<xml>"):
    """parse_xml as the package read it before a start tag was read in one
    match: one anchored match per start tag name, attribute and tag end,
    and one per run of character data with the closing tag after it.  The
    same trees, and the same XmlParseError message at the same offset."""
    return _XmlPartScanner(source, filename).document()


class _XmlPartScanner:
    def __init__(self, source, filename):
        self.src, self.pos, self.filename = source, 0, filename

    def fail(self, msg, at):
        raise XmlParseError(msg, SourceSpan.at(self.filename, self.src, at))

    def skip_markup(self):
        src, pos = self.src, self.pos
        if src.startswith("<!--", pos):
            end = src.find("-->", pos + 4)
            if end < 0:
                self.fail("unterminated comment", pos)
            self.pos = end + 3
        elif src.startswith("<?", pos):
            end = src.find("?>", pos + 2)
            if end < 0:
                self.fail("unterminated processing instruction", pos)
            self.pos = end + 2
        elif src.startswith("<!", pos):
            self.fail("DTD declarations are not supported", pos)
        else:
            return False
        return True

    def skip_misc(self):
        self.pos = _PART_MISC.match(self.src, self.pos).end()
        self.skip_markup()

    def decode(self, at, end):
        src = self.src
        out = []
        amp = src.find("&", at, end)
        while amp >= 0:
            semi = src.find(";", amp + 1)
            if semi < 0 or semi - amp > 7:
                self.fail("malformed entity reference", amp + 1)
            ref = src[amp + 1 : semi]
            if ref not in _XML_ENTITIES:
                self.fail(f"unsupported entity &{ref};", amp + 1)
            out += (src[at:amp], _XML_ENTITIES[ref])
            at = semi + 1
            amp = src.find("&", at, end)
        out.append(src[at:end])
        return "".join(out)

    def document(self):
        self.skip_misc()
        if not self.src.startswith("<", self.pos):
            self.fail("expected a root element", self.pos)
        root = self.element()
        self.skip_misc()
        if self.pos < len(self.src):
            self.fail("content after the root element", self.pos)
        return root

    def element(self):
        root, has_content = self.start_tag()
        stack = [root] if has_content else []
        while stack:
            if self.content(stack[-1]):
                child, has_content = self.start_tag()
                stack[-1].children.append(child)
                if has_content:
                    stack.append(child)
            else:
                stack.pop()
        return root

    def start_tag(self):
        src = self.src
        m = _PART_START.match(src, self.pos)
        tag = m[1]
        if tag is None:
            self.fail("expected a name", m.end())
        attributes = {}
        while True:
            m = _PART_ATTR.match(src, m.end())
            end, key, _, double, single, closed = m.groups()
            if end:
                self.pos = m.end()
                return XmlTerm(tag, attributes, []), end == ">"
            if not closed or key in attributes:
                self.attribute_error(m, attributes)
            value = double if double is not None else single
            if "&" in value:
                group = 4 if double is not None else 5
                value = self.decode(m.start(group), m.end(group))
            attributes[key] = value

    def attribute_error(self, m, attributes):
        at = m.end()
        key, eq, double, single = m[2], m[3], m[4], m[5]
        if key is None:
            self.fail("expected a name", at)
        if eq is None:
            self.fail("expected '='", at)
        if key in attributes:
            self.fail(f"duplicate attribute {key!r}", m.end(3))
        if double is None and single is None:
            self.fail("expected a quoted attribute value", at)
        group = 4 if double is not None else 5
        self.decode(m.start(group), m.end(group))
        if self.src.startswith("<", at):
            self.fail("'<' inside attribute value", at)
        self.fail("unterminated attribute value", at)

    def content(self, node):
        src = self.src
        text = []
        while True:
            m = _PART_CONTENT.match(src, self.pos)
            run, closing, name, gt, markup = m.groups()
            if run:
                text.append(self.decode(m.start(1), m.end(1)) if "&" in run else run)
            self.pos = m.end()
            if markup:
                self.skip_markup()
                continue
            if text:
                node.children.append(Text("".join(text)))
            if closing:
                if name is None:
                    self.fail("expected a name", self.pos)
                if name != node.tag:
                    self.fail(
                        f"mismatched closing tag </{name}> for <{node.tag}>", m.end(3)
                    )
                if gt is None:
                    self.fail("expected '>'", self.pos)
                return False
            if self.pos == len(src):
                self.fail(f"unterminated element <{node.tag}>", self.pos)
            return True


# ===========================================================================
# Numeric cells, by trying int() and float()
# ===========================================================================


def reference_parse_number(text):
    """parse_number by exceptions: strip, underscore and emptiness checks,
    then int(), then float() kept only when finite."""
    if text != text.strip() or "_" in text or not text:
        return None
    try:
        return Num(int(text))
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return Num(value)


# ===========================================================================
# Rule text and SWRL, lexed whole and read a token at a time
# ===========================================================================

# The lexers and readers of ddlite.syntax before they read flat atoms in
# one match: the whole text is lexed into a token list first, and every
# atom is read token by token, a rule-text atom as a Compound that
# _RefTermParser.to_atom converts.

_REF_RULE_TOKEN = re.compile(
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
_REF_DIRECTIVE = re.compile(r"%\s*name:\s*(\S+)\s*$")
_REF_ESCAPE = re.compile(r"\\[\s\S]|''")
_REF_ESCAPED = {"\\n": "\n", "\\t": "\t"}
_REF_SWRL_TOKEN = re.compile(
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


def _ref_lex(pattern, text, values):
    tokens = []
    line, line_start, seen = 1, 0, 0
    for m in pattern.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        at = m.start(kind)
        last_break = text.rfind("\n", seen, at)
        if last_break >= 0:
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


def _ref_unreadable(text):
    if text == "'":
        return "bad", "unterminated quoted atom"
    return "bad", f"unexpected character {text!r}"


def _ref_word(text):
    if not text[0].isalpha():
        return _ref_unreadable(text[0])
    return ("var" if text[0].isupper() else "atom"), text


def _ref_number(text):
    if not text.isdecimal():
        return "num", float(text)
    try:
        return "num", int(text)
    except ValueError:
        return "bad", f"integer of {len(text)} digits is too long"


def _ref_comment(text):
    directive = _REF_DIRECTIVE.match(text)
    return ("directive", directive[1]) if directive else (None, None)


_REF_RULE_VALUES = {
    "word": _ref_word,
    "num": _ref_number,
    "quoted": lambda text: (
        "quoted",
        _REF_ESCAPE.sub(lambda e: _REF_ESCAPED.get(e[0], e[0][1]), text[1:-1]),
    ),
    "comment": _ref_comment,
    "eof": lambda text: ("eof", None),
    "bad": _ref_unreadable,
}
_REF_SWRL_VALUES = {
    "str": lambda text: ("str", text[1:-1]),
    "bad": lambda text: ("bad", "unexpected input"),
}


def reference_tokenize(text, filename="<string>"):
    tokens = _ref_lex(_REF_RULE_TOKEN, text, _REF_RULE_VALUES)
    if tokens[-1].kind == "bad":
        raise ParseError(tokens[-1].value, tokens[-1].span(filename))
    return tokens


class _RefCursor:
    def __init__(self, tokens, filename="<string>"):
        self.tokens = tokens
        self.i = 0
        self.last = len(tokens) - 1
        self.filename = filename

    def peek(self, k=0):
        i = self.i + k
        tok = self.tokens[i if i < self.last else self.last]
        if tok.kind == "bad":
            self.fail(tok.value, tok)
        return tok

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def at_punct(self, *values, k=0):
        tok = self.peek(k)
        return tok.kind == "punct" and tok.value in values

    def expect(self, value, kind="punct"):
        tok = self.next()
        if tok.kind != kind or tok.value != value:
            self.fail(f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.span(self.filename))


class _RefTermParser(_RefCursor):
    def __init__(self, tokens, filename="<string>"):
        super().__init__(tokens, filename)
        self._anon = 0
        self._clause_vars = set()

    def fresh_anon(self):
        while True:
            self._anon += 1
            name = f"_G{self._anon}"
            if name not in self._clause_vars:
                self._clause_vars.add(name)
                return Var(name)

    def infix_op(self):
        tok = self.peek()
        if tok.kind in ("punct", "atom") and tok.value in OPERATORS:
            return tok.value
        return None

    def term(self, max_prec=999):
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
            operands = [left, self.term(prec - 1)]
            while self.infix_op() == op:
                self.next()
                operands.append(self.term(prec - 1))
            left = operands.pop()
            while operands:
                left = Compound(op, (operands.pop(), left))

    def primary(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "var":
            if tok.value == "_":
                return self.fresh_anon()
            self._clause_vars.add(tok.value)
            return Var(tok.value)
        if tok.kind in ("atom", "quoted"):
            if self.at_punct("("):
                return Compound(tok.value, self.arg_list())
            return Const(tok.value)
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

    def arg_list(self):
        self.expect("(")
        args = [self.term(999)]
        while self.at_punct(","):
            self.next()
            args.append(self.term(999))
        self.expect(")")
        return tuple(args)

    def list_term(self):
        if self.at_punct("]"):
            self.next()
            return NIL
        elements = [self.term(999)]
        while self.at_punct(","):
            self.next()
            elements.append(self.term(999))
        tail = NIL
        if self.at_punct("|"):
            self.next()
            tail = self.term(999)
        self.expect("]")
        return mklist(elements, tail)

    def goal_atom(self):
        tok = self.peek()
        if tok.kind == "atom" and self.at_punct(":", k=1):
            self.next()
            self.next()
            return self.to_atom(self.primary(), tok.value, tok)
        return self.to_atom(self.term(999), None, tok)

    def to_atom(self, t, module, tok):
        span = tok.span(self.filename)
        if isinstance(t, Const):
            return Atom(t.symbol, (), module, span)
        if isinstance(t, Compound) and not (t.functor == "." and len(t.args) == 2):
            return Atom(t.functor, t.args, module, span)
        self.fail(f"{term_text(t)} cannot be used as a goal", tok)

    def literal(self):
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
                return Literal(inner, "negated")
            starts_term = nxt.kind in ("atom", "var", "num", "quoted") or (
                nxt.kind == "punct" and nxt.value in ("(", "[", "-", "!")
            )
            if starts_term:
                self.next()
                return Literal(self.goal_atom(), "negated")
        return Literal(self.goal_atom(), "positive")


def reference_parse_program(text, filename="<string>"):
    """parse_program over a token list lexed first: a lexical error
    anywhere in the text is the one reported."""
    parser = _RefTermParser(reference_tokenize(text, filename), filename)
    raw, explicit = [], {}
    while parser.peek().kind != "eof":
        name = None
        while parser.peek().kind == "directive":
            name = parser.next().value
        if parser.peek().kind == "eof":
            if name is not None:
                parser.fail("name directive without a clause")
            break
        parser._clause_vars = set()
        head_tok = parser.peek()
        head = parser.to_atom(parser.term(999), None, head_tok)
        body = []
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
    rules, k = [], 0
    for name, rule in raw:
        if name is None:
            k += 1
            while f"r{k}" in taken:
                k += 1
            name = f"r{k}"
            taken.add(name)
        rules.append(Rule(name, rule.head, rule.body, rule.span))
    return Program(tuple(rules))


def reference_parse_atom(text, filename="<atom>"):
    """parse_atom over a token list lexed first: one goal, then an optional
    '.' and the end of the text."""
    parser = _RefTermParser(reference_tokenize(text, filename), filename)
    atom = parser.goal_atom()
    tok = parser.next()
    if tok.kind == "end":
        tok = parser.next()
    if tok.kind != "eof":
        parser.fail(f"unexpected trailing {tok.value!r}", tok)
    return atom


def _ref_call(name, args):
    return Atom(name.rsplit(":", 1)[-1], args, "prolog")


class _RefSwrlReader(_RefCursor):
    def __init__(self, text, filename):
        super().__init__(_ref_lex(_REF_SWRL_TOKEN, text, _REF_SWRL_VALUES), filename)
        self.text = text

    def rules(self):
        out = []
        while self.peek().kind != "eof":
            out.append(self.rule())
        return out

    def rule(self):
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

    def balanced(self):
        start = self.expect("(")
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated annotation", tok)
            if tok.kind == "punct":
                depth += 1 if tok.value == "(" else -1
        return self.text[start.pos : tok.pos + 1]

    def atom_list(self):
        self.expect("(")
        atoms = []
        while not self.at_punct(")"):
            tok = self.peek()
            if tok.kind != "name":
                self.fail(f"expected an atom, found {tok.value!r}", tok)
            atoms.append(self.atom())
        self.next()
        return atoms

    def atom(self):
        name = self.next()
        self.expect("(")
        first = self.tokens[self.i]
        args = []
        while not self.at_punct(")"):
            args.append(self.obj())
        self.next()
        return self.classify(name, first, args)

    def obj(self):
        tok = self.next()
        if tok.kind == "num":
            kind, value = _ref_number(tok.value)
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

    def classify(self, tok, first, args):
        name = tok.value
        if name in ("sameAs", "same_as"):
            if len(args) != 2:
                self.fail("sameAs takes two arguments", tok)
            return _ref_call("same_as", tuple(args))
        if name in ("differentFrom", "different_from"):
            if len(args) != 2:
                self.fail("differentFrom takes two arguments", tok)
            return _ref_call("different_from", tuple(args))
        if name == "builtin":
            if not args or first.kind != "name" or not isinstance(args[0], Const):
                self.fail("builtin needs a builtin name first", tok)
            return _ref_call(args[0].symbol, tuple(args[1:]))
        if ":" in name:
            return _ref_call(name, tuple(args))
        if len(args) in (1, 2):
            return Atom(name, tuple(args))
        self.fail(f"unknown atom form {name}/{len(args)}", tok)


def reference_parse_swrl(text, filename="<string>"):
    """parse_swrl over a token list lexed first; a bad token is raised
    only when the reader reaches it."""
    return _RefSwrlReader(text, filename).rules()


# ===========================================================================
# Reference printer
# ===========================================================================


def reference_text(t, quoted=True):
    """term_text as plain recursion over kernel.OPERATORS.

    A '.'/2 compound prints as a list, an infix compound or atom in
    parentheses, and an operand of an infix operator in parentheses only
    when its operator's priority exceeds what its slot admits: the
    operator's own on the y side of yfx, one less elsewhere.  Operators of
    priority 700 are written with spaces around them.  Any other term
    prints as str() gives it.
    """

    def const(symbol):
        plain = re.fullmatch(r"[a-z][a-zA-Z0-9_]*", symbol) or symbol in (
            "[]", "!", ";", "{}",
        )
        if not quoted or plain:
            return symbol
        return "'" + symbol.replace("\\", "\\\\").replace("'", "\\'") + "'"

    def functor(name):
        if name in OPERATORS:
            return f"'{name}'" if quoted else name
        return const(name)

    def is_infix(name, args):
        return name in OPERATORS and name != "," and len(args) == 2

    def infix(op, args):
        prec, assoc = OPERATORS[op]
        left_max = prec if assoc == "yfx" else prec - 1
        sep = f" {op} " if prec == 700 else op
        return operand(args[0], left_max) + sep + operand(args[1], prec - 1)

    def operand(t, max_prec):
        if isinstance(t, Compound) and is_infix(t.functor, t.args):
            inner = infix(t.functor, t.args)
            return f"({inner})" if OPERATORS[t.functor][0] > max_prec else inner
        return text(t)

    def call(name, args):
        return functor(name) + "(" + ", ".join(text(a) for a in args) + ")"

    def text(t):
        if isinstance(t, Const):
            return const(t.symbol)
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Num):
            return repr(t.value)
        if isinstance(t, Atom):
            prefix = f"{t.module_prefix}:" if t.module_prefix else ""
            if not t.args:
                return prefix + const(t.predicate)
            if is_infix(t.predicate, t.args):
                return prefix + "(" + infix(t.predicate, t.args) + ")"
            return prefix + call(t.predicate, t.args)
        if not isinstance(t, Compound):
            return str(t)
        if t.functor == "." and len(t.args) == 2:
            elements = []
            while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
                elements.append(text(t.args[0]))
                t = t.args[1]
            inner = ", ".join(elements)
            if t == Const("[]"):
                return f"[{inner}]"
            return f"[{inner}|{text(t)}]"
        if is_infix(t.functor, t.args):
            return "(" + infix(t.functor, t.args) + ")"
        return call(t.functor, t.args)

    return text(t)


# ===========================================================================
# Proof trees through a typed view
# ===========================================================================

# ddlite.engine once converted a tree term into a typed tree (_RefProofTree
# here, with from_term and to_term) and rendered that; the package now reads
# the term itself.  The code is as it was, but for names and for the plain
# class in place of a kernel.Record.


def _ref_atom_term(a):
    return Compound(a.predicate, a.args) if a.args else Const(a.predicate)


def _ref_is_tree_term(t):
    return (
        isinstance(t, Compound)
        and t.functor == "t"
        and len(t.args) >= 2
        and isinstance(t.args[1], Const)
    )


def _ref_conclusion_atom(t):
    if isinstance(t, Compound):
        atom = Atom(t.functor, t.args)
    elif isinstance(t, Const):
        atom = Atom(t.symbol)
    else:
        raise EvalTypeError(f"proof tree conclusion {term_text(t)} is not an atom")
    if not is_ground(atom):
        raise EvalTypeError(
            f"proof tree conclusion {term_text(t)} is not ground"
        )
    return atom


class _RefProofTree:
    """Typed view of the t(Conclusion, Tag, Children..., SideConds...) shape."""

    __slots__ = ("conclusion", "tag", "children", "side_conditions")

    def __init__(self, conclusion, tag, children=(), side_conditions=()):
        self.conclusion = conclusion
        self.tag = tag
        self.children = children
        self.side_conditions = side_conditions

    @staticmethod
    def from_term(t):
        """The typed tree of a tree term.  Nodes wait on an explicit stack,
        so depth is not bounded by the recursion limit; conclusions are
        checked parents first, and a subterm shared by several parents
        (one object, as ground terms are interned) is converted once."""
        if not _ref_is_tree_term(t):
            raise EvalTypeError(f"not a proof tree term: {term_text(t)}")
        built = {}
        # (term, None) is a node to enter, (term, conclusion) one to build
        stack = [(t, None)]
        while stack:
            term, conclusion = stack.pop()
            if conclusion is None:
                if id(term) not in built:
                    stack.append((term, _ref_conclusion_atom(term.args[0])))
                    stack.extend(
                        (c, None) for c in reversed(term.args[2:])
                        if _ref_is_tree_term(c)
                    )
                continue
            children = []
            side = []
            for rest in term.args[2:]:
                if _ref_is_tree_term(rest):
                    children.append(built[id(rest)])
                else:
                    side.append(rest)
            built[id(term)] = _RefProofTree(
                conclusion, term.args[1].symbol, tuple(children), tuple(side)
            )
        return built[id(t)]

    def to_term(self, side_conditions=True):
        """The tree term; without side conditions, the shape shown in
        listings.  Built children first, on an explicit stack."""
        built = {}
        stack = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if not ready:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if id(c) not in built)
                continue
            built[id(node)] = Compound(
                "t",
                (_ref_atom_term(node.conclusion), Const(node.tag))
                + tuple(built[id(c)] for c in node.children)
                + (node.side_conditions if side_conditions else ()),
            )
        return built[id(self)]


def reference_render_proof_tree(term, format="term"):
    """The tree term as text, through the typed view.  ascii and dot walk
    nodes parents first, children in order, on an explicit stack."""
    t = _RefProofTree.from_term(term)
    if format == "term":
        return term_text(t.to_term(side_conditions=False), quoted=False)
    if format == "ascii":
        lines = []
        stack = [(t, 0)]
        while stack:
            node, depth = stack.pop()
            pad = "  " * depth
            lines.append(
                f"{pad}{term_text(_ref_atom_term(node.conclusion), quoted=False)}"
                f" [{node.tag}]"
            )
            for sc in node.side_conditions:
                lines.append(f"{pad}  where {term_text(sc, quoted=False)}")
            stack.extend((c, depth + 1) for c in reversed(node.children))
        return "\n".join(lines) + "\n"
    if format == "dot":
        lines = ["digraph G {", "  node [shape=box];"]
        # the stack holds (tree, parent id) pairs and edge lines; a
        # node's edge from its parent is written after the node's subtree
        todo = [(t, None)]
        count = 0
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            node, parent = item
            nid = f"n{count}"
            count += 1
            label = term_text(_ref_atom_term(node.conclusion), quoted=False)
            label += f"\\n[{node.tag}]"
            for sc in node.side_conditions:
                label += f"\\nwhere {term_text(sc, quoted=False)}"
            label = label.replace('"', '\\"')
            lines.append(f'  "{nid}" [label="{label}"];')
            if parent is not None:
                todo.append(f'  "{parent}" -> "{nid}";')
            todo.extend((c, nid) for c in reversed(node.children))
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown proof tree format {format!r}")


# ===========================================================================
# Graph walks, one edge list scan per step
# ===========================================================================


def pdg_from_rpg(g):
    """The PDG an RPG contracts to: an edge from each predicate to every
    predicate it reaches through rule and meta-call nodes alone, marked
    not if some such path carries a not mark.  build_pdg must give it."""
    if g.kind != RPG:
        raise GraphKindError(f"expected an rpg, got {g.kind}")
    preds = [n for n in g.nodes if isinstance(n, PredNode)]
    edges = set()
    for start in preds:
        todo = [(e.dst, e.mark == NOT) for e in g.edges if e.src == start]
        seen = set()
        while todo:
            node, marked = todo.pop()
            if isinstance(node, PredNode):
                edges.add(Edge(start, node, NOT if marked else PLAIN))
            elif (node, marked) not in seen:
                seen.add((node, marked))
                todo += [
                    (e.dst, marked or e.mark == NOT) for e in g.edges if e.src == node
                ]
    return DepGraph(PDG, tuple(preds), tuple(edges))


def on_cycle(g, node):
    """Whether node reaches itself through at least one edge."""
    seen = set()
    todo = [node]
    while todo:
        cur = todo.pop()
        for e in g.edges:
            if e.src == cur and e.dst not in seen:
                seen.add(e.dst)
                todo.append(e.dst)
    return node in seen


# ===========================================================================
# Random instance generators (deterministic given the caller's rng)
# ===========================================================================

CONSTANTS = ("a", "b", "c", "d", "e")


def random_term(rng, depth=0):
    """A random term over a small signature; depth limits nesting."""
    roll = rng.random()
    if roll < 0.30:
        return Var(rng.choice(("X", "Y", "Z", "W")))
    if roll < 0.55:
        return Const(rng.choice(CONSTANTS))
    if roll < 0.70:
        return Num(rng.randint(0, 9))
    if depth >= 2:
        return Const(rng.choice(CONSTANTS))
    functor = rng.choice(("f", "g", "h"))
    n = rng.randint(1, 3)
    return Compound(functor, tuple(random_term(rng, depth + 1) for _ in range(n)))


def random_program(rng, allow_negation=False):
    """A small safe program: ground facts plus range-restricted rules.

    Predicates are layered so that negated calls always target a strictly
    lower layer, keeping every generated program stratified.
    """
    preds = []
    for i in range(rng.randint(3, 5)):
        preds.append((f"p{i}", rng.randint(1, 2), i))
    rules = []
    k = 0
    for name, arity, layer in preds:
        for _ in range(rng.randint(1, 2)):
            if len(rules) >= 8:
                break
            k += 1
            if layer == 0 or rng.random() < 0.4:
                args = tuple(
                    Const(rng.choice(CONSTANTS)) for _ in range(arity)
                )
                rules.append(Rule(f"r{k}", Atom(name, args), ()))
                continue
            lower = [p for p in preds if p[2] < layer]
            body = []
            bound = []
            for _ in range(rng.randint(1, 3)):
                bname, barity, _ = rng.choice(lower)
                bargs = []
                for _ in range(barity):
                    if bound and rng.random() < 0.5:
                        bargs.append(Var(rng.choice(bound)))
                    else:
                        v = f"V{len(bound)}"
                        bound.append(v)
                        bargs.append(Var(v))
                body.append(Literal(Atom(bname, tuple(bargs))))
            if allow_negation and bound and rng.random() < 0.5:
                bname, barity, _ = rng.choice(lower)
                nargs = tuple(
                    Var(rng.choice(bound)) for _ in range(barity)
                )
                body.append(Literal(Atom(bname, nargs), "negated"))
            head_args = tuple(
                Var(rng.choice(bound))
                if bound and rng.random() < 0.7
                else Const(rng.choice(CONSTANTS))
                for _ in range(arity)
            )
            rules.append(Rule(f"r{k}", Atom(name, head_args), tuple(body)))
    return Program(tuple(rules))


def random_recursive_program(rng):
    """Rule text of a small safe, stratified program with recursion.

    Layer 0 holds v0/1 facts and e0/2 facts over the five CONSTANTS,
    each edge from a constant to a later one.  Every recursive rule steps
    along such an edge, so no fact depends on itself and the program's
    auto_pt version has a finite model too, of a few thousand trees at
    most.  Replay reads such a store in proportion to its size, as a
    literal whose proof-tree argument is bound probes that tree's bucket.
    Each layer i above defines p{i}/2 and q{i}/1 from lower layers and
    from layer i itself: p{i} left-, right- or doubly recursive, or
    through q{i}, which may read p{i} back, and now and then a constant
    in a recursive literal.  A negated literal reads only a lower layer,
    so the layers are strata.  One layer also defines a counter c{i}/2
    bounded by prolog:(J < k), prolog:(K is J+1): a builtin that can raise
    keeps the rule in its written order, where the recursive literal
    comes first or after the literal that binds its first argument.
    """
    names = CONSTANTS
    pairs = [tuple(sorted(rng.sample(names, 2))) for _ in range(rng.randint(3, 6))]
    lines = [f"e0({x}, {y})." for x, y in dict.fromkeys(pairs)]
    marked = [rng.choice(names) for _ in range(rng.randint(1, 3))]
    lines += [f"v0({x})." for x in dict.fromkeys(marked)]
    binary, unary = ["e0"], ["v0"]
    top = rng.randint(1, 3)
    counted = rng.randint(1, top)
    for i in range(1, top + 1):
        p, q = f"p{i}", f"q{i}"
        b, u, c = rng.choice(binary), rng.choice(unary), rng.choice(names)
        negation = f", not {rng.choice(unary)}(Y)" if rng.random() < 0.5 else ""
        lines.append(f"{p}(X, Y) :- {b}(X, Y){negation}.")
        lines += rng.sample(
            [
                f"{p}(X, Z) :- {p}(X, Y), {b}(Y, Z).",
                f"{p}(X, Z) :- {b}(X, Y), {p}(Y, Z).",
                f"{p}(X, Z) :- {p}(X, Y), {p}(Y, Z).",
                f"{p}(X, {c}) :- {b}(X, Y), {p}(Y, {c}).",
                f"{p}(X, Y) :- {q}(X), {b}(X, Y).",
            ],
            rng.randint(1, 2),
        )
        lines.append(f"{q}(X) :- {u}(X).")
        lines.append(
            rng.choice(
                [
                    f"{q}(Y) :- {p}(X, Y).",
                    f"{q}(Y) :- {q}(X), {p}(X, Y).",
                    f"{q}(Y) :- {p}({c}, Y), not {u}(Y).",
                ]
            )
        )
        if i == counted:
            join = rng.choice([f"c{i}(X, J), {p}(X, Y)", f"{p}(X, Y), c{i}(X, J)"])
            lines.append(f"c{i}(X, 0) :- {u}(X).")
            lines.append(
                f"c{i}(Y, K) :- {join}, prolog:(J < {rng.randint(1, 3)}), prolog:(K is J+1)."
            )
        binary.append(p)
        unary.append(q)
    return "\n".join(lines) + "\n"
