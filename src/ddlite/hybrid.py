"""Hybrid queries: XML documents, CSV relations, grouped aggregation.

A goal is a conjunction of ordinary literals plus path bindings of the
form `V := doc('file.xml')/tag::[@'Attr'=Value]` or `V := Node@'Attr'`.
Path bindings walk a document loaded as a term; the rest of the goal
joins derived facts and builtin calls exactly as rule bodies do.
ddbase_aggregate groups the goal's answers by the plain variables of a
template like [DNO, sum(HOURS)] and folds the tagged columns.
"""

from __future__ import annotations

import csv
import io
import math
import os

from .errors import (
    EvalTypeError,
    NonNumericAggregate,
    NumericParseError,
    ParseError,
    PathError,
    RaggedRowError,
    TemplateVarUnbound,
    UnboundFilterError,
    UnorderedAggregate,
)
from .engine import FactStore, solve_body, too_long
from .kernel import (
    BUILTIN_NAMES,
    CONTROL,
    NUMBER,
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    Program,
    Record,
    Subst,
    Term,
    Var,
    apply,
    bind_ground,
    check_calls,
    is_ground,
    list_elements,
    matched_number,
    pattern,
    read_text,
    sort_key,
    term_text,
    term_vars,
)
from .syntax import TermParser
from .xmlterm import XmlTerm, parse_xml

TYPE_CHECKING = False  # typing is imported by type checkers alone
if TYPE_CHECKING:
    from typing import Callable, Optional, Sequence, Union

# ===========================================================================
# Documents as terms
# ===========================================================================


class XmlNode(Term):
    """A document element as an opaque term; two nodes are equal only if
    they are the same element of the same loaded document."""

    __slots__ = _fields = ("node",)

    def __init__(self, node: XmlTerm):
        object.__setattr__(self, "node", node)

    def __eq__(self, other) -> bool:
        return isinstance(other, XmlNode) and self.node is other.node

    def __hash__(self) -> int:
        return id(self.node)

    def __repr__(self) -> str:
        return f"XmlNode(<{self.node.tag}>)"

    def __str__(self) -> str:
        return f"<{self.node.tag}>"


def load_xml(path: str) -> XmlTerm:
    return parse_xml(read_text(path), filename=path)


# ===========================================================================
# Path expressions
# ===========================================================================


class Child(Record):
    __slots__ = _fields = ("tag",)


class Filter(Record):
    __slots__ = _fields = ("attr", "value")  # value: a constant, or a variable


class AttrAccess(Record):
    __slots__ = _fields = ("name",)


if TYPE_CHECKING:
    Step = Union[Child, Filter, AttrAccess]


class PathExpr(Record):
    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[Step, ...]):
        for before, step in zip((None,) + steps, steps):
            if isinstance(before, AttrAccess):
                raise PathError("attribute access must be the final step")
            if isinstance(step, Filter) and not isinstance(before, Child):
                raise PathError("a filter must follow a child step")
        super().__init__(steps)


class PathBinding(Record):
    """Goal item `var := <source><steps>`; source is a named document
    (doc) or a previously bound node variable (from_var)."""

    __slots__ = _fields = ("var", "doc", "from_var", "expr")


def _attr_text(t: Term) -> str:
    """Canonical string form of a bound term for attribute comparison."""
    if isinstance(t, Num):
        return str(t.value) if t.is_int() else repr(t.value)
    if isinstance(t, Const):
        return t.symbol
    return term_text(t, quoted=False)


class _ChildIndex:
    """The children of each probed element, grouped by tag and, per (tag,
    attribute), by attribute value; every group keeps document order.  An
    element's groups are built the first time it is probed, so a filter
    step is one dict lookup per parent.  Keyed by element identity, like
    XmlNode, so the index must not outlive the documents it indexes."""

    def __init__(self):
        self._tags: dict[int, dict[str, list[XmlTerm]]] = {}
        self._values: dict[tuple[int, str, str], dict[str, list[XmlTerm]]] = {}

    def children(self, parent: XmlTerm, tag: str) -> list[XmlTerm]:
        by_tag = self._tags.get(id(parent))
        if by_tag is None:
            by_tag = self._tags[id(parent)] = {}
            for child in parent.child_elements():
                by_tag.setdefault(child.tag, []).append(child)
        return by_tag.get(tag, [])

    def with_value(
        self, parent: XmlTerm, tag: str, attr: str, wanted: str
    ) -> list[XmlTerm]:
        key = (id(parent), tag, attr)
        by_value = self._values.get(key)
        if by_value is None:
            by_value = self._values[key] = {}
            for child in self.children(parent, tag):
                if attr in child.attributes:
                    by_value.setdefault(child.attributes[attr], []).append(child)
        return by_value.get(wanted, [])

    def compile(
        self, expr: PathExpr
    ) -> Callable[[XmlTerm, Subst], list[Union[XmlTerm, Term]]]:
        """walk(root, s): the hits of the steps from root under s, in
        document order: elements, or Consts for a final attribute access.
        Each child step is paired here, once, with the filter that follows
        it, and a filter's text is fixed here if its value is ground, else
        read from s once per walk (_filter_reader)."""
        children, with_value = self.children, self.with_value
        moves = []  # per child step: (tag, filter attribute or None, its text)
        final: Optional[str] = None  # the attribute a final access reads
        steps = expr.steps
        for step, after in zip(steps, steps[1:] + (None,)):
            if isinstance(step, Child):
                if isinstance(after, Filter):
                    moves.append((step.tag, after.attr, _filter_reader(after.value)))
                else:
                    moves.append((step.tag, None, None))
            elif isinstance(step, AttrAccess):
                final = step.name

        def walk(root: XmlTerm, s: Subst) -> list:
            items: list = [root]
            for tag, attr, text in moves:
                if attr is None:
                    items = [hit for it in items for hit in children(it, tag)]
                else:
                    wanted = text(s)
                    items = [
                        hit for it in items for hit in with_value(it, tag, attr, wanted)
                    ]
            if final is None:
                return items
            return [Const(it.attributes[final]) for it in items if final in it.attributes]

        return walk


def _filter_reader(value: Term) -> Callable[[Subst], str]:
    """text(s): the attribute text a filter on value wants under s.  Fixed
    once for a ground value; a variable bound to a constant or a number is
    read with one lookup.  UnboundFilterError if value is open under s."""
    if is_ground(value):
        fixed = _attr_text(value)
        return lambda s: fixed
    name = value.name if value.__class__ is Var else None

    def text(s: Subst) -> str:
        bound = s.get(name)
        if bound.__class__ is Const or bound.__class__ is Num:
            return _attr_text(bound)
        bound = apply(s, value)
        if not is_ground(bound):
            names = ", ".join(sorted(term_vars(bound)))
            raise UnboundFilterError(f"filter variable {names} is unbound")
        return _attr_text(bound)

    return text


def path_eval(
    doc: XmlTerm, expr: PathExpr, env: Optional[Subst] = None
) -> list[tuple[Union[XmlTerm, Term], Subst]]:
    """Walk the steps from the document root through a fresh child index;
    the result pairs each hit (an element, or a Const for attribute
    access) with the unchanged env."""
    env = env or {}
    return [(hit, env) for hit in _ChildIndex().compile(expr)(doc, env)]


# ===========================================================================
# Goal and template parsing
# ===========================================================================

if TYPE_CHECKING:
    GoalItem = Union[Literal, PathBinding]

AGG_FNS = ("sum", "count", "min", "max", "avg")


class GroupCol(Record):
    __slots__ = _fields = ("var",)


class AggCol(Record):
    __slots__ = _fields = ("fn", "var")


class AggTemplate(Record):
    __slots__ = _fields = ("columns",)  # GroupCol and AggCol, in order

    def __init__(self, columns: tuple[Union[GroupCol, AggCol], ...]):
        if not columns:
            raise ParseError("aggregation template must have at least one column")
        super().__init__(columns)

    def vars(self) -> list[str]:
        return [c.var for c in self.columns]


def _name_token(parser: TermParser) -> str:
    """A tag or attribute name: an atom, a quoted atom, or prefix:local,
    whose local part may lex as a variable (owlx:Class, ruleml:_body)."""
    tok = parser.next()
    if tok.kind not in ("atom", "quoted"):
        parser.fail(f"expected a name, found {tok.value!r}", tok)
    if tok.kind == "atom" and parser.at_punct(":"):
        parser.next()
        local = parser.next()
        if local.kind not in ("atom", "var"):
            parser.fail(f"expected a name, found {local.value!r}", local)
        return f"{tok.value}:{local.value}"
    return tok.value


def _path_steps(parser: TermParser) -> list[Step]:
    steps: list[Step] = []
    while parser.at_punct("/"):
        parser.next()
        steps.append(Child(_name_token(parser)))
        if parser.at_punct("::"):
            parser.next()
            parser.expect("[")
            parser.expect("@")
            attr = _name_token(parser)
            parser.expect("=")
            steps.append(Filter(attr, parser.primary()))
            parser.expect("]")
    if parser.at_punct("@"):
        parser.next()
        steps.append(AttrAccess(_name_token(parser)))
    return steps


def _path_binding(parser: TermParser) -> PathBinding:
    var_tok = parser.next()
    parser.expect(":=")
    src = parser.peek()
    doc_name = None
    from_var = None
    if src.kind == "var":
        parser.next()
        from_var = src.value
    elif src.kind == "atom" and src.value == "doc":
        parser.next()
        parser.expect("(")
        doc_name = _name_token(parser)
        parser.expect(")")
    else:
        parser.fail("path source must be doc('...') or a bound variable", src)
    steps = _path_steps(parser)
    if not steps:
        parser.fail("path expression has no steps", src)
    return PathBinding(var_tok.value, doc_name, from_var, PathExpr(tuple(steps)))


def _as_builtin(lit: Literal) -> Literal:
    """Bare builtin names act as builtins inside queries."""
    atom = lit.atom
    if atom.module_prefix is None and (atom.predicate, len(atom.args)) in BUILTIN_NAMES:
        return Literal(
            Atom(atom.predicate, atom.args, "prolog", atom.span), lit.polarity
        )
    return lit


def _goal_items(parser: TermParser) -> list[GoalItem]:
    wrapped = parser.at_punct("(")
    if wrapped:
        parser.next()
    items: list[GoalItem] = []
    while True:
        if parser.peek().kind == "var" and parser.at_punct(":=", k=1):
            items.append(_path_binding(parser))
        else:
            items.append(_as_builtin(parser.literal()))
        if not parser.at_punct(","):
            break
        parser.next()
    if wrapped:
        parser.expect(")")
    parser.expect_end("goal must be a single conjunction")
    return items


def parse_goal(text: str, filename: str = "<goal>") -> list[GoalItem]:
    """Parse a conjunctive goal; `V := path` items mix with literals."""
    parser = TermParser(text, filename)
    items = parser.read(lambda: _goal_items(parser))
    # `true` alone is the empty conjunction; `not true` stays, and fails
    return [
        item
        for item in items
        if not (
            isinstance(item, Literal)
            and item.atom.key in CONTROL
            and not item.is_negated()
        )
    ]


def parse_template(text: str, filename: str = "<template>") -> AggTemplate:
    parser = TermParser(text, filename)
    tok = parser.peek()

    def whole_term() -> Term:
        term = parser.term(999)
        parser.expect_end()
        return term

    term = parser.read(whole_term)
    decomposed = list_elements(term)
    if decomposed is None or decomposed[1] != Const("[]"):
        raise ParseError("template must be a list", tok.span(filename))
    columns: list[Union[GroupCol, AggCol]] = []
    for el in decomposed[0]:
        if isinstance(el, Var):
            columns.append(GroupCol(el.name))
        elif (
            isinstance(el, Compound)
            and el.functor in AGG_FNS
            and len(el.args) == 1
            and isinstance(el.args[0], Var)
        ):
            columns.append(AggCol(el.functor, el.args[0].name))
        else:
            raise ParseError(
                f"template column must be a variable or fn(Var) with fn in "
                f"{'/'.join(AGG_FNS)}: {term_text(el)}",
                tok.span(filename),
            )
    return AggTemplate(tuple(columns))


# ===========================================================================
# Goal solving
# ===========================================================================


class _DocRegistry:
    """The documents and the child index of one query."""

    def __init__(self, docs: Optional[dict[str, XmlTerm]], base_dir: str):
        self.docs = dict(docs or {})
        self.base_dir = base_dir
        self.index = _ChildIndex()

    def get(self, name: str) -> XmlTerm:
        if name not in self.docs:
            self.docs[name] = load_xml(os.path.join(self.base_dir, name))
        return self.docs[name]

    def compile(self, item: PathBinding, ground: set[str], open_: bool) -> Callable:
        """The plan step of a path binding (engine._Plan's compile_item):
        it extends s by item.var bound to each hit, in document order.
        Fixed here, once: the source, the paired steps (_ChildIndex.compile),
        whether a hit is an element to wrap as an XmlNode, and how a hit is
        bound: by one match, or by bind_ground where s may hold open terms.
        item.var joins ground."""
        walk = self.index.compile(item.expr)
        wrap = not isinstance(item.expr.steps[-1], AttrAccess)
        name = item.var
        target = Var(name)
        ground.add(name)
        if item.doc is not None:
            doc = item.doc

            def root(s: Subst) -> XmlTerm:
                return self.get(doc)
        else:
            source = item.from_var

            def root(s: Subst) -> XmlTerm:
                bound = s.get(source)
                if bound is None or bound.__class__ is Var:
                    raise PathError(f"path source variable {source} is unbound")
                if not isinstance(bound, XmlNode):
                    raise PathError(
                        f"path source variable {source} is not a document node"
                    )
                return bound.node

        def step(nxt):
            if open_:
                def run(s):
                    for hit in walk(root(s), s):
                        s2 = bind_ground(s, target, XmlNode(hit) if wrap else hit)
                        if s2 is not None and nxt(s2):
                            return True
                    return False
            else:
                # every value in s is ground: kernel.match of one variable
                def run(s):
                    bound = s.get(name)
                    for hit in walk(root(s), s):
                        value = XmlNode(hit) if wrap else hit
                        if bound is None:
                            s2 = dict(s)
                            s2[name] = value
                            if nxt(s2):
                                return True
                        elif bound == value and nxt(s):
                            return True
                    return False
            return run

        return step


def _item_vars(item: GoalItem) -> set[str]:
    if isinstance(item, Literal):
        return term_vars(item.atom)
    names = {item.var}
    if item.from_var:
        names.add(item.from_var)
    for step in item.expr.steps:
        if isinstance(step, Filter):
            names |= term_vars(step.value)
    return names


def solve_goal(
    goal: Sequence[GoalItem],
    program: Optional[Program],
    store: FactStore,
    docs: Optional[dict[str, XmlTerm]] = None,
    base_dir: str = ".",
) -> list[Subst]:
    """All answers of the goal against the store and the named documents,
    left to right, solved as a rule body is; fact matches come sorted,
    path hits in document order.  A call that names no builtin raises
    UnknownBuiltin before anything is solved, and so does a literal named
    by an operator, such as `X = a`, unless program defines its predicate
    (check_calls)."""
    check_calls(program, goal)
    registry = _DocRegistry(docs, base_dir)
    return solve_body(
        goal, store, probe=store.sorted_candidates, compile_item=registry.compile
    )


# ===========================================================================
# Aggregation
# ===========================================================================


def _numeric_values(fn: str, values: list[Term]) -> list:
    out = []
    for v in values:
        if not isinstance(v, Num):
            raise NonNumericAggregate(
                f"{fn} over non-numeric value {term_text(v)}"
            )
        out.append(v.value)
    return out


def _order_key(value: Term, name: str):
    """sort_key of the value of template variable name, which the template
    groups by or takes the min or max of."""
    try:
        return sort_key(value)
    except TypeError as err:
        raise UnorderedAggregate(
            f"cannot group or order by template variable {name}: {err}"
        ) from None


def _fold(col: AggCol, values: list[Term]) -> Term:
    fn = col.fn
    if fn == "count":
        return Num(len(values))
    if fn == "sum" or fn == "avg":
        nums = _numeric_values(fn, values)
        try:
            value = sum(nums) if fn == "sum" else float(sum(nums)) / len(nums)
        except OverflowError:  # an int beyond float range met a float
            value = math.inf
        if value in (math.inf, -math.inf):  # or a float sum overflowed
            raise EvalTypeError(f"{fn}({col.var}) is beyond float range")
        if too_long(value):
            raise EvalTypeError(f"{fn}({col.var}) is an integer with too many digits")
        return Num(value)
    ordered = sorted(values, key=lambda v: _order_key(v, col.var))
    return ordered[0] if fn == "min" else ordered[-1]


def ddbase_aggregate(
    template: AggTemplate,
    goal: Sequence[GoalItem],
    program: Optional[Program],
    store: FactStore,
    docs: Optional[dict[str, XmlTerm]] = None,
    base_dir: str = ".",
) -> list[list[Term]]:
    """Group the goal's answers by the template's plain variables and fold
    the tagged columns; rows come back sorted by group key."""
    goal_vars: set[str] = set()
    for item in goal:
        goal_vars |= _item_vars(item)
    for name in template.vars():
        if name not in goal_vars:
            raise TemplateVarUnbound(
                f"template variable {name} does not occur in the goal"
            )
    answers = solve_goal(goal, program, store, docs, base_dir)
    columns = template.columns
    names = template.vars()
    grouped = [i for i, col in enumerate(columns) if isinstance(col, GroupCol)]
    folded = [i for i, col in enumerate(columns) if isinstance(col, AggCol)]
    # group key -> the first answer's column values, and the values of
    # each folded column over the group's answers
    groups: dict[tuple, tuple[list[Term], dict[int, list[Term]]]] = {}
    for s in answers:
        values = []
        for name in names:
            value = s.get(name)
            if (
                value.__class__ is not Num
                and value.__class__ is not Const
                and (value is None or not is_ground(value))
            ):
                raise TemplateVarUnbound(
                    f"template variable {name} is unbound in an answer"
                )
            values.append(value)
        key = tuple([_order_key(values[i], names[i]) for i in grouped])
        group = groups.get(key)
        if group is None:
            group = groups[key] = (values, {i: [] for i in folded})
        for i, members in group[1].items():
            members.append(values[i])
    rows: list[list[Term]] = []
    for key in sorted(groups):
        first, members = groups[key]
        rows.append([
            _fold(col, members[i]) if i in members else first[i]
            for i, col in enumerate(columns)
        ])
    return rows


def render_rows(rows: list[list[Term]]) -> str:
    """Nested-list text, e.g. [[1, 12.5], [4, 30.0]]."""
    inner = ", ".join(
        "[" + ", ".join(term_text(v, quoted=False) for v in row) + "]" for row in rows
    )
    return "[" + inner + "]"


def rows_to_json(rows: list[list[Term]]) -> list[list]:
    out: list[list] = []
    for row in rows:
        line: list = []
        for v in row:
            if isinstance(v, Num):
                line.append(v.value)
            elif isinstance(v, Const):
                line.append(v.symbol)
            else:
                line.append(term_text(v, quoted=False))
        out.append(line)
    return out


# ===========================================================================
# CSV relations
# ===========================================================================


def load_facts_csv(
    path: str,
    pred: str,
    header: bool = False,
    numeric_cols: Optional[set] = None,
) -> list[Atom]:
    """Each CSV row becomes one ground fact pred(c1, ..., cn).

    Cells named in numeric_cols (0-based) must parse as numbers; without
    numeric_cols every cell that reads as a number becomes one.  The cell
    "null" (any case) becomes the constant null either way.
    """
    facts: list[Atom] = []
    width: Optional[int] = None
    null = Const("null")
    # cell text -> its term where no column is declared numeric: null, a
    # number, or a constant; each distinct text is classified once
    terms: dict[str, Term] = {}
    number = pattern(NUMBER).fullmatch  # fetched once for every cell
    # newline="": the csv module splits rows at line ends itself
    reader = csv.reader(io.StringIO(read_text(path, newline=""), newline=""))
    for row_i, row in enumerate(reader):
        if header and row_i == 0:
            continue
        if not row:
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise RaggedRowError(
                f"{path}: line {reader.line_num}: expected {width} "
                f"columns, got {len(row)}"
            )
        args: list[Term] = []
        for col_i, cell in enumerate(row):
            term = terms.get(cell)
            if term is None:
                term = terms[cell] = _cell_term(cell, null, number)
            if numeric_cols is not None and term is not null:
                if col_i in numeric_cols:
                    if term.__class__ is not Num:
                        raise NumericParseError(
                            f"{path}: line {reader.line_num}, column "
                            f"{col_i + 1}: {cell!r} is not numeric"
                        )
                elif term.__class__ is Num:
                    term = Const(cell)
            args.append(term)
        facts.append(Atom(pred, tuple(args)))
    return facts


def _cell_term(cell: str, null: Const, number) -> Term:
    if cell.lower() == "null":
        return null
    num = matched_number(cell, number(cell))
    return Const(cell) if num is None else num
