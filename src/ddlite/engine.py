"""Bottom-up evaluation with embedded builtin calls.

The pipeline is: check_safety -> stratify -> per-stratum semi-naive
fixpoint.  Rules run as compiled plans (_Plan): each body is compiled
once for the variables bound on entry (none in evaluate and in hybrid
goals, the head's in replay), and the plan solves its literals left to
right, in the written order, against the fact store.  solve_body runs one
for hybrid goals too (hybrid.solve_goal).  A positive literal matches
ground facts one way (kernel.match); mgu, with its occurs check, runs only
where both sides may hold variables: a unifying builtin (pt, same_as)
with open terms on both sides, and the literals after one.  A ground
literal is a lookup, and a head is built from a template.  Goals with a
`prolog:` prefix call into a small builtin registry instead of matching
facts.  Negated literals are checked against the store, which by
stratification is already complete for the negated predicate; a negated
literal still carrying variables is deferred to the end of the body and
then read as "no stored fact unifies".

Joins take facts in insertion order; sort_key order is imposed only where
users see it, by FactStore.facts, sorted_facts and sorted_candidates.

Proof trees are ordinary terms built by the programs themselves through
the pt/2 builtin (or mechanically by auto_pt, through proof_tree); tree_of
finds one in a fact, and render_proof_tree reads it as it is.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    CycleError,
    DdliteError,
    EvalTypeError,
    InstantiationError,
    ResourceLimitExceeded,
    SafetyError,
    UnknownBuiltin,
)
from .graphs import NOT, Edge, Node, PredNode, build_pdg
from .kernel import (
    CONTROL,
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
    Subst,
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
    sort_key,
    term_text,
    term_vars,
)

# ===========================================================================
# Builtin registry
# ===========================================================================

# Each builtin declares which argument positions it reads (inputs: must be
# bound for the call to be well-formed) and which it can bind (outputs:
# treated as bound afterwards by the safety check).


class Builtin(Record):
    """fn(args, s) returns the extensions of s that satisfy the call."""

    __slots__ = _fields = ("name", "arity", "inputs", "outputs", "fn")


def _arith(t: Term) -> float:
    """Evaluate an arithmetic expression term to a Python number.

    Operands are evaluated left to right on an explicit stack, each
    operator after its operands, so a long chain such as 1+1+...+1 is not
    bounded by the recursion limit."""
    values: list = []
    # a term to evaluate, or an operator, as (functor, arity), to apply
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            functor, arity = item
            if arity == 1:
                values.append(-values.pop())
                continue
            b, a = values.pop(), values.pop()
            if functor == "+":
                values.append(a + b)
            elif functor == "-":
                values.append(a - b)
            elif functor == "*":
                values.append(a * b)
            elif b == 0:
                raise EvalTypeError("division by zero")
            elif isinstance(a, int) and isinstance(b, int) and a % b == 0:
                values.append(a // b)
            else:
                values.append(a / b)
        elif isinstance(item, Num):
            values.append(item.value)
        elif isinstance(item, Var):
            raise InstantiationError(f"arithmetic on unbound variable {item.name}")
        elif isinstance(item, Compound) and (
            item.functor in ("+", "-", "*", "/") and len(item.args) == 2
            or item.functor == "-" and len(item.args) == 1
        ):
            stack.append((item.functor, len(item.args)))
            stack.extend(reversed(item.args))
        else:
            raise EvalTypeError(f"not an arithmetic expression: {term_text(item)}")
    return values[0]


def _bi_is(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    out = bind_ground(s, args[0], Num(_arith(args[1])))
    return [out] if out is not None else []


def _compare(op: str) -> Callable[[tuple[Term, ...], Subst], list[Subst]]:
    tests = {
        "<": lambda a, b: a < b,
        "=<": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=:=": lambda a, b: a == b,
        "=\\=": lambda a, b: a != b,
    }
    test = tests[op]

    def fn(args: tuple[Term, ...], s: Subst) -> list[Subst]:
        return [dict(s)] if test(_arith(args[0]), _arith(args[1])) else []

    return fn


def _bi_atom_number(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    text = args[0]
    if isinstance(text, Var):
        raise InstantiationError("atom_number: first argument unbound")
    if not isinstance(text, Const):
        raise EvalTypeError("atom_number: first argument must be a constant")
    num = parse_number(text.symbol)
    if num is None:
        return []
    out = bind_ground(s, args[1], num)
    return [out] if out is not None else []


def _bi_unify(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    a, b = args
    if is_ground(b):
        out = bind_ground(s, a, b)
    elif is_ground(a):
        out = bind_ground(s, b, a)
    else:
        out = mgu(a, b, s)
    return [out] if out is not None else []


def _bi_different_from(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    a, b = args
    if not (is_ground(a) and is_ground(b)):
        raise InstantiationError("different_from: both arguments must be ground")
    return [dict(s)] if a != b else []


def _bi_create_owl_thing(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    for t in args[1:]:
        if not is_ground(t):
            raise InstantiationError(
                "create_owl_thing: arguments 2..4 must be ground"
            )
    skolem = Compound("skolem", (Const("create_owl_thing"),) + tuple(args[1:]))
    out = bind_ground(s, args[0], skolem)
    return [out] if out is not None else []


def _bi_append(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    outer = list_elements(args[0])
    if outer is None or not is_ground(args[0]):
        raise InstantiationError("append/2: first argument must be a ground list")
    elements, tail = outer
    if tail != Const("[]"):
        raise EvalTypeError("append/2: first argument must be a proper list")
    flat: list[Term] = []
    for el in elements:
        inner = list_elements(el)
        if inner is None or inner[1] != Const("[]"):
            raise EvalTypeError("append/2: expected a list of lists")
        flat.extend(inner[0])
    out = bind_ground(s, args[1], mklist(flat))
    return [out] if out is not None else []


BUILTINS: dict[tuple[str, int], Builtin] = {}


def _register(name: str, arity: int, inputs, outputs, fn):
    BUILTINS[(name, arity)] = Builtin(name, arity, tuple(inputs), tuple(outputs), fn)


_register("is", 2, (1,), (0,), _bi_is)
for _op in ("<", "=<", ">", ">=", "=:=", "=\\="):
    _register(_op, 2, (0, 1), (), _compare(_op))
_register("atom_number", 2, (0,), (1,), _bi_atom_number)
_register("pt", 2, (1,), (0,), _bi_unify)
_register("same_as", 2, (0, 1), (), _bi_unify)
_register("different_from", 2, (0, 1), (), _bi_different_from)
_register("create_owl_thing", 4, (1, 2, 3), (0,), _bi_create_owl_thing)
_register("append", 2, (0,), (1,), _bi_append)


def call_builtin(goal: Atom, s: Optional[Subst] = None) -> list[Subst]:
    """Run one builtin goal under s; answers extend s.

    Failure is an empty list; errors are raised for unbound required
    arguments, type mismatches, and unknown builtin names.
    """
    s = s or {}
    spec = BUILTINS.get((goal.predicate, len(goal.args)))
    if spec is None:
        raise UnknownBuiltin(
            f"unknown builtin {goal.predicate}/{len(goal.args)}", goal.span
        )
    args = apply(s, goal).args
    return spec.fn(args, s)


def check_operator_literals(items: Sequence, defined: frozenset[PredKey]) -> None:
    """Raise UnknownBuiltin at the first literal among items (a rule body
    or a goal) that an operator names with no module prefix, such as
    `X = a`, unless defined, the predicates of a program's facts and rule
    heads, holds its predicate.  Such a literal reads as a call, and
    `prolog:(X = a)` names no builtin; a program that defines `=`/2 keeps
    it as a relation."""
    for item in items:
        if isinstance(item, Literal):
            atom = item.atom
            if (
                atom.module_prefix is None
                and atom.predicate in OPERATORS
                and atom.key not in defined
            ):
                raise UnknownBuiltin(
                    f"unknown builtin {atom.predicate}/{len(atom.args)}", atom.span
                )


def check_operators(p: Program) -> None:
    """check_operator_literals on each rule body of the program in turn,
    the error naming the rule."""
    defined = p.idb()
    for rule in p.rules:
        try:
            check_operator_literals(rule.body, defined)
        except UnknownBuiltin as err:
            raise _wrap_rule_errors(rule, err) from err


# ===========================================================================
# Safety
# ===========================================================================


class Violation(Record):
    __slots__ = _fields = ("rule_name", "variable", "reason")

    def __str__(self) -> str:
        return f"rule {self.rule_name}: variable {self.variable} {self.reason}"


def _bound_vars(rule: Rule) -> set[str]:
    """Variables certainly ground after the body: positive literal vars
    plus builtin outputs, closed under repeated builtin application."""
    bound: set[str] = set()
    for lit in rule.body:
        if not lit.is_negated() and not lit.is_builtin():
            bound |= term_vars(lit.atom)
    changed = True
    while changed:
        changed = False
        for lit in rule.body:
            if lit.is_negated() or not lit.is_builtin():
                continue
            spec = BUILTINS.get((lit.atom.predicate, len(lit.atom.args)))
            if spec is None:
                continue
            inputs = set()
            for i in spec.inputs:
                inputs |= term_vars(lit.atom.args[i])
            if inputs <= bound:
                for i in spec.outputs:
                    outs = term_vars(lit.atom.args[i])
                    if not outs <= bound:
                        bound |= outs
                        changed = True
    return bound


def check_safety(p: Program) -> list[Violation]:
    """Range-restriction check; an empty list means the program is safe."""
    violations: list[Violation] = []
    for rule in p.rules:
        bound = _bound_vars(rule)
        for v in sorted(term_vars(rule.head) - bound):
            violations.append(
                Violation(rule.name, v, "in the head is not bound by the body")
            )
        for lit in rule.body:
            if lit.is_negated():
                for v in sorted(term_vars(lit.atom) - bound):
                    violations.append(
                        Violation(rule.name, v, "occurs only under negation")
                    )
            elif lit.is_builtin():
                spec = BUILTINS.get((lit.atom.predicate, len(lit.atom.args)))
                positions = (
                    spec.inputs if spec is not None else range(len(lit.atom.args))
                )
                for i in positions:
                    for v in sorted(term_vars(lit.atom.args[i]) - bound):
                        violations.append(
                            Violation(
                                rule.name,
                                v,
                                f"is an unbound input of "
                                f"{lit.atom.predicate}/{len(lit.atom.args)}",
                            )
                        )
    return violations


# ===========================================================================
# Stratification
# ===========================================================================


class Strata(Record):
    __slots__ = _fields = ("assignment",)  # PredKey -> stratum

    @property
    def max_stratum(self) -> int:
        return max(self.assignment.values(), default=0)

    def of(self, key: PredKey) -> int:
        return self.assignment.get(key, 0)


def _sccs(nodes: list[Node], out: dict[Node, list[Edge]]) -> list[list[Node]]:
    """Tarjan's algorithm, iterative; components are emitted callees-first."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    result: list[list[Node]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = out.get(node, ())
            for k in range(child_i, len(successors)):
                succ = successors[k].dst
                if succ not in index:
                    work[-1] = (node, k + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return result


def stratify(p: Program) -> Strata:
    """Least stratification from the predicate dependency graph.

    Raises CycleError (with the offending predicate sequence) when a
    negated dependency lies on a cycle.
    """
    g = build_pdg(p)
    out = g.adjacency.out
    nodes = sorted(
        set(g.nodes) | {PredNode(k) for k in p.pred_keys()},
        key=lambda n: (n.key.module or "", n.key.name, n.key.arity),
    )

    comp_of: dict[Node, int] = {}
    comps = _sccs(nodes, out)
    for i, comp in enumerate(comps):
        for n in comp:
            comp_of[n] = i

    bad = [e for e in g.edges if e.mark == NOT and comp_of[e.src] == comp_of[e.dst]]
    if bad:
        first = min(bad, key=lambda e: (e.src.key, e.dst.key))
        raise CycleError(_cycle_path(first.src, first.dst, out, comp_of))

    # components come out callees-first, so dependencies are already ranked
    stratum_of_comp: list[int] = [0] * len(comps)
    assignment: dict[PredKey, int] = {}
    for i, comp in enumerate(comps):
        level = 0
        for src in comp:
            for e in out.get(src, ()):
                if comp_of[e.dst] == i:
                    continue
                step = 1 if e.mark == NOT else 0
                level = max(level, stratum_of_comp[comp_of[e.dst]] + step)
        stratum_of_comp[i] = level
        for n in comp:
            assignment[n.key] = level
    return Strata(assignment)


def _cycle_path(src, dst, out, comp_of) -> list[PredKey]:
    """A dst -> ... -> src walk inside one component, closing the bad edge."""
    target_comp = comp_of[src]
    prev: dict[Node, Node] = {}
    queue = deque([dst])
    seen = {dst}
    while queue:
        cur = queue.popleft()
        if cur == src:
            break
        for e in out[cur]:
            if comp_of[e.dst] == target_comp and e.dst not in seen:
                seen.add(e.dst)
                prev[e.dst] = cur
                queue.append(e.dst)
    path = [src]
    cur = src
    while cur != dst and cur in prev:
        cur = prev[cur]
        path.append(cur)
    if path[-1] != dst:
        path.append(dst)
    path.reverse()  # dst ... src
    return [n.key for n in [src] + path]  # src, dst, ..., src


# ===========================================================================
# Fact store
# ===========================================================================


def _principal(t: Term):
    """Index key of a term's outermost symbol: a constant's name, a
    number's value or a compound's functor and arity; None for a variable
    or an opaque leaf.  1 and 1.0 share a key, and match tells them apart."""
    kind = t.__class__
    if kind is Const:
        return t.symbol
    if kind is Num:
        return t.value
    if kind is Compound:
        return (t.functor, len(t.args))
    return None


class FactIndex:
    """Ground atoms grouped by predicate, each group in insertion order,
    and indexed by (predicate, position, principal symbol).  A position's
    index is built the first time a probe selects it and kept up to date
    after, so positions no probe reads cost nothing.

    Probes yield facts in insertion order, which is all a join needs; a
    semi-naive delta is one of these holding a single iteration's facts.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        """facts: ground atoms, none repeated."""
        self._by_pred: dict[PredKey, list[Atom]] = {}
        # predicate -> per position, None or principal symbol -> facts
        self._index: dict[PredKey, list[Optional[dict]]] = {}
        for fact in facts:
            self._file(fact)

    def _file(self, fact: Atom) -> None:
        key = fact.key
        group = self._by_pred.get(key)
        if group is None:
            self._by_pred[key] = [fact]
        else:
            group.append(fact)
        columns = self._index.get(key)
        if columns is not None:
            for column, arg in zip(columns, fact.args):
                if column is not None:
                    pk = _principal(arg)
                    if pk is not None:
                        column.setdefault(pk, []).append(fact)

    def _column(self, key: PredKey, i: int) -> dict:
        columns = self._index.get(key)
        if columns is None:
            columns = self._index[key] = [None] * key.arity
        column = columns[i]
        if column is None:
            column = columns[i] = {}
            for fact in self._by_pred.get(key, ()):
                pk = _principal(fact.args[i])
                if pk is not None:
                    column.setdefault(pk, []).append(fact)
        return column

    def has_predicate(self, key: PredKey) -> bool:
        return key in self._by_pred

    def candidates(self, query: Atom, s: Subst) -> Sequence[Atom]:
        """The facts that may match query under s, in insertion order: the
        index bucket of query's first argument that has a principal symbol
        under s, or all of the predicate's facts when there is none."""
        for i, arg in enumerate(query.args):
            if arg.__class__ is Var:
                arg = s.get(arg.name, arg)
            pk = _principal(arg)
            if pk is not None:
                return self._column(query.key, i).get(pk, ())
        return self._by_pred.get(query.key, ())


class FactStore(FactIndex):
    """The model: a FactIndex without duplicates, with each fact's origin.

    Order is imposed here and only here, for what users see: facts(),
    sorted_facts() and sorted_candidates() yield in sort_key order.
    """

    def __init__(self):
        super().__init__()
        self._all: set[Atom] = set()
        self._sorted_cache: dict[PredKey, list[Atom]] = {}
        self._origin: dict[Atom, str] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._all)

    def freeze(self) -> "FactStore":
        self._frozen = True
        return self

    def add(self, fact: Atom, origin: Optional[str] = None) -> bool:
        """Insert one ground atom; False if it was already present."""
        if self._frozen:
            raise EvalTypeError("fact store is frozen")
        if not fact.ground:
            raise EvalTypeError(f"non-ground fact {term_text(_atom_term(fact))}")
        if fact in self._all:
            return False
        self._all.add(fact)
        self._file(fact)
        self._sorted_cache.pop(fact.key, None)
        if origin is not None:
            self._origin[fact] = origin
        return True

    def facts(self, key) -> list[Atom]:
        if not isinstance(key, PredKey) and len(key) == 2:
            key = PredKey(None, key[0], key[1])
        cached = self._sorted_cache.get(key)
        if cached is None:
            cached = sorted(self._by_pred.get(key, []), key=sort_key)
            self._sorted_cache[key] = cached
        return cached

    def has(self, fact: Atom) -> bool:
        return fact in self._all

    def origin(self, fact: Atom) -> Optional[str]:
        return self._origin.get(fact)

    def sorted_candidates(self, query: Atom, s: Subst) -> list[Atom]:
        """Like candidates, but in sort_key order."""
        found = self.candidates(query, s)
        if found is self._by_pred.get(query.key):
            return self.facts(query.key)  # the whole group, sorted once
        return sorted(found, key=sort_key)

    def unifies_any(self, query: Atom) -> bool:
        args = query.args
        return any(match(args, f.args, {}) is not None for f in self.candidates(query, {}))

    def sorted_facts(self) -> list[Atom]:
        out: list[Atom] = []
        for key in sorted(self._by_pred, key=lambda k: (k.module or "", k.name, k.arity)):
            out.extend(self.facts(key))
        return out


def _atom_term(a: Atom) -> Term:
    return Compound(a.predicate, a.args) if a.args else Const(a.predicate)


# ===========================================================================
# Body solving: compiled plans
# ===========================================================================


def deferred_negation_ok(pending: list[Atom], s: Subst, store: FactStore) -> bool:
    """Deferred negated literals: ground -> stored-fact lookup; still
    non-ground -> no stored fact may unify."""
    for atom in pending:
        bound = apply(s, atom)
        if bound.ground:
            if store.has(bound):
                return False
        elif store.unifies_any(bound):
            return False
    return True


def _template(args: tuple) -> Callable[[Subst], tuple]:
    """A function giving args under s: a variable is looked up, a ground
    argument kept as it is, and only an open compound substituted."""
    if any(a.__class__ is Compound and not a.ground for a in args):
        return lambda s: tuple([apply(s, a) for a in args])
    parts = [(a.name if a.__class__ is Var else None, a) for a in args]
    return lambda s: tuple([a if n is None else s.get(n, a) for n, a in parts])


class _Plan:
    """A body compiled once for one binding pattern; run(s) yields its
    answers for an entry substitution s, in order, as emit(s).

    The pattern is the set of variables bound to ground terms on entry:
    none in evaluate and query, the head's in replay.  Each body item
    becomes one step, in the written order, which runs the next step once
    per answer.  What a step does is settled here, once:

    - a positive literal takes its candidate facts from probe (from the
      delta at delta_pos) and matches each one way (kernel.match).  Only
      after a builtin that may bind a variable to an open term, such as
      `pt(X, f(Y))` with Y unbound, does it unify them with mgu;
    - a ground positive literal is one store.has lookup;
    - a negated literal whose variables the pattern binds is one lookup.
      Any other is looked up where it stands if it is ground there, and
      checked again at the end by deferred_negation_ok;
    - a builtin runs on its arguments under s; an unknown one raises when
      it is reached, as the literals before it may fail first;
    - an item that is not a Literal is answered by solve_item, whose
      answers bind variables to ground terms.
    """

    def __init__(
        self,
        body: Sequence,
        store: FactStore,
        bound: Iterable[str] = (),
        open_: bool = False,
        probe: Optional[Callable[[Atom, Subst], Iterable[Atom]]] = None,
        solve_item: Optional[Callable[[object, Subst], Iterable[Subst]]] = None,
        delta_pos: Optional[int] = None,
        emit: Callable[[Subst], object] = lambda s: s,
    ):
        self.delta: Optional[FactIndex] = None  # what the delta_pos literal reads
        probe = probe or store.candidates
        ground = set(bound)  # variables bound to ground terms here
        steps: list[tuple] = []  # (step function, its arguments but the next step)
        late: list[Atom] = []
        for i, item in enumerate(body):
            if not isinstance(item, Literal):
                steps.append((_item_step, item, solve_item))
                continue
            atom = item.atom
            if item.is_negated():
                if atom.module_prefix is not None:
                    steps.append((_negated_builtin_step, atom))
                    continue
                if not term_vars(atom) <= ground:
                    late.append(atom)
                steps.append((_negated_step, atom, store))
            elif item.is_builtin():
                steps.append((_builtin_step, atom))
                open_ = _builtin_binds(atom, ground) or open_
            elif atom.key in CONTROL:
                continue
            elif atom.ground and i != delta_pos:
                steps.append((_has_step, atom, store))
            else:
                source = self._delta_candidates if i == delta_pos else probe
                steps.append((_positive_step, atom, source, open_))
                ground |= term_vars(atom)

        def finish(s: Subst) -> Iterator:
            if not late or deferred_negation_ok(late, s, store):
                yield emit(s)

        run = finish
        for step, *args in reversed(steps):
            run = step(*args, run)
        self.run: Callable[[Subst], Iterator] = run

    def _delta_candidates(self, query: Atom, s: Subst) -> Sequence[Atom]:
        return self.delta.candidates(query, s)


def _builtin_binds(atom: Atom, ground: set[str]) -> bool:
    """Add the variables the builtin call binds to ground terms to ground;
    True if it may bind one to an open term instead."""
    spec = BUILTINS.get((atom.predicate, len(atom.args)))
    if spec is None:
        return False
    if spec.fn is _bi_unify:
        left, right = (term_vars(a) for a in atom.args)
        if not (left <= ground or right <= ground):
            return True
        ground |= left | right
        return False
    for k in spec.outputs:
        ground |= term_vars(atom.args[k])
    return False


# Each step function below builds one step of a plan: a generator function
# of s that runs nxt, the rest of the plan, once per answer of its item.


def _positive_step(atom: Atom, candidates, open_: bool, nxt):
    args = atom.args
    if open_:
        def run(s):
            for fact in candidates(atom, s):
                s2 = mgu(atom, fact, s)
                if s2 is not None:
                    yield from nxt(s2)
    else:
        def run(s):
            for fact in candidates(atom, s):
                s2 = match(args, fact.args, s)
                if s2 is not None:
                    yield from nxt(s2)
    return run


def _has_step(atom: Atom, store: FactStore, nxt):
    def run(s):
        if store.has(atom):
            yield from nxt(s)
    return run


def _negated_step(atom: Atom, store: FactStore, nxt):
    build = _template(atom.args)
    predicate, module = atom.predicate, atom.module_prefix

    def run(s):
        bound = Atom(predicate, build(s), module)
        if not (bound.ground and store.has(bound)):
            yield from nxt(s)
    return run


def _negated_builtin_step(atom: Atom, nxt):
    def run(s):
        if not call_builtin(atom, s):
            yield from nxt(s)
    return run


def _builtin_step(atom: Atom, nxt):
    spec = BUILTINS.get((atom.predicate, len(atom.args)))
    build = _template(atom.args)

    def run(s):
        if spec is None:
            raise UnknownBuiltin(
                f"unknown builtin {atom.predicate}/{len(atom.args)}", atom.span
            )
        for s2 in spec.fn(build(s), s):
            yield from nxt(s2)
    return run


def _item_step(item, solve_item, nxt):
    def run(s):
        for s2 in solve_item(item, s):
            yield from nxt(s2)
    return run


def solve_body(
    body: Sequence,
    store: FactStore,
    s: Optional[Subst] = None,
    probe: Optional[Callable[[Atom, Subst], Iterable[Atom]]] = None,
    solve_item: Optional[Callable[[object, Subst], Iterable[Subst]]] = None,
) -> Iterator[Subst]:
    """All substitutions solving the body (a rule body or a goal) left to
    right against store, through a plan compiled for s's bound variables.

    A positive literal is matched against the facts probe gives for it,
    store.candidates (in insertion order) unless given; answers come in
    that order.  Body items that are not Literals are answered by
    solve_item.
    """
    s = s or {}
    bound = [name for name, value in s.items() if is_ground(value)]
    return _Plan(body, store, bound, len(bound) < len(s), probe, solve_item).run(s)


# ===========================================================================
# T_P and the fixpoint
# ===========================================================================


class EvalOptions(Record):
    __slots__ = _fields = ("max_iterations", "max_facts")
    _defaults = {"max_iterations": 10000, "max_facts": 1_000_000}


def _wrap_rule_errors(rule: Rule, err: DdliteError) -> DdliteError:
    if isinstance(err, (InstantiationError, EvalTypeError, UnknownBuiltin)):
        return type(err)(f"in rule {rule.name}: {err.message}", err.span or rule.span)
    return err


def _rule_plan(
    rule: Rule, store: FactStore, delta_pos: Optional[int] = None
) -> _Plan:
    """The rule compiled for evaluation: nothing bound on entry, and each
    answer emitted as the head built from its template."""
    head = rule.head
    build = _template(head.args)

    def emit(s: Subst) -> Atom:
        fact = Atom(head.predicate, build(s), head.module_prefix, head.span)
        if not fact.ground:
            raise EvalTypeError(
                f"derived a non-ground fact {term_text(_atom_term(fact))}"
            )
        return fact

    return _Plan(rule.body, store, delta_pos=delta_pos, emit=emit)


def _rule_heads(
    rule: Rule,
    store: FactStore,
    delta: Optional[FactIndex] = None,
    delta_pos: Optional[int] = None,
    plan: Optional[_Plan] = None,
) -> Iterator[Atom]:
    """The heads the rule derives; plan, if given, is the rule's _rule_plan
    for store and delta_pos."""
    plan = plan or _rule_plan(rule, store, delta_pos)
    plan.delta = delta
    try:
        yield from plan.run({})
    except DdliteError as err:
        raise _wrap_rule_errors(rule, err) from err


def _positive_positions(rule: Rule) -> list[int]:
    return [
        i
        for i, lit in enumerate(rule.body)
        if not lit.is_negated()
        and not lit.is_builtin()
        and lit.atom.key not in CONTROL
    ]


def evaluate(p: Program, opts: Optional[EvalOptions] = None) -> FactStore:
    """Stratified semi-naive fixpoint of the program.

    Raises UnknownBuiltin (check_operators), SafetyError and CycleError
    up front, ResourceLimitExceeded when the iteration or fact ceiling is
    hit mid-run.
    """
    opts = opts or EvalOptions()
    check_operators(p)
    violations = check_safety(p)
    if violations:
        raise SafetyError(violations)
    strata = stratify(p)
    by_stratum: dict[int, list[Rule]] = {}
    for rule in p.rules:
        by_stratum.setdefault(strata.of(rule.head.key), []).append(rule)

    store = FactStore()

    def limit_check(stratum: int, batch: Iterable[Atom]):
        if len(store) > opts.max_facts:
            sample = sorted(batch, key=sort_key)[:5]
            raise ResourceLimitExceeded(
                f"fact limit {opts.max_facts} exceeded in stratum {stratum}",
                stratum=stratum,
                delta_sample=sample,
            )

    for stratum in range(strata.max_stratum + 1):
        rules = by_stratum.get(stratum, [])
        if not rules:
            continue
        positions = [_positive_positions(rule) for rule in rules]
        read = {
            rule.body[j].atom.key
            for rule, rule_positions in zip(rules, positions)
            for j in rule_positions
        }
        # each rule compiled once per delta position it runs with
        plans: dict[tuple[int, Optional[int]], _Plan] = {}
        # the first pass is plain T_P over everything derived so far; after
        # it a rule runs once per positive literal whose predicate gained
        # facts in the previous pass, that literal matching only those
        # facts, so the delta holds only predicates some literal reads
        delta: Optional[FactIndex] = None
        iteration = 1
        while True:
            # derivation order, kept so that join order (and which fact an
            # error names) never depends on hashing
            new: dict[Atom, str] = {}
            for k, (rule, rule_positions) in enumerate(zip(rules, positions)):
                if delta is None:
                    runs: list[Optional[int]] = [None]
                else:
                    runs = [
                        j
                        for j in rule_positions
                        if delta.has_predicate(rule.body[j].atom.key)
                    ]
                for j in runs:
                    if not rule.body and rule.head.ground:
                        heads: Iterable[Atom] = (rule.head,)  # needs no plan
                    else:
                        plan = plans.get((k, j))
                        if plan is None:
                            plan = plans[k, j] = _rule_plan(rule, store, j)
                        heads = _rule_heads(rule, store, delta, j, plan)
                    for head in heads:
                        if head not in new and not store.has(head):
                            new[head] = rule.name
            for head, origin in new.items():
                store.add(head, origin)
            limit_check(stratum, new)
            if not new:
                break
            iteration += 1
            if iteration > opts.max_iterations:
                sample = sorted(new, key=sort_key)[:5]
                raise ResourceLimitExceeded(
                    f"iteration limit {opts.max_iterations} exceeded "
                    f"in stratum {stratum}",
                    stratum=stratum,
                    delta_sample=sample,
                )
            delta = FactIndex(head for head in new if head.key in read)
    return store.freeze()


def facts_as_rules(
    facts: Iterable[Atom], taken: Iterable[str] = ()
) -> tuple[Rule, ...]:
    """Wrap ground atoms as bodyless rules named f1, f2, ... (skipping
    names already in use)."""
    used = set(taken)
    rules: list[Rule] = []
    k = 0
    for fact in facts:
        k += 1
        while f"f{k}" in used:
            k += 1
        used.add(f"f{k}")
        rules.append(Rule(f"f{k}", fact))
    return tuple(rules)


# ===========================================================================
# Proof trees
# ===========================================================================


def proof_tree(
    conclusion: Atom,
    tag: str,
    children: Sequence[Term] = (),
    side_conditions: Sequence[Term] = (),
) -> Compound:
    """The tree term t(Conclusion, Tag, Children..., SideConditions...)."""
    return Compound(
        "t",
        (_atom_term(conclusion), Const(tag)) + tuple(children) + tuple(side_conditions),
    )


# the name of the typed tree class that proof_tree replaced, kept because
# the benchmark's traced replay (perfbench/traced.py) builds leaf trees by it
ProofTree = proof_tree


def _is_tree_term(t: Term) -> bool:
    return (
        isinstance(t, Compound)
        and t.functor == "t"
        and len(t.args) >= 2
        and isinstance(t.args[1], Const)
    )


def _check_conclusion(t: Term) -> None:
    """Raise unless t reads as a ground atom: a constant or a ground
    compound."""
    if isinstance(t, Compound):
        if not t.ground:
            raise EvalTypeError(f"proof tree conclusion {term_text(t)} is not ground")
    elif not isinstance(t, Const):
        raise EvalTypeError(f"proof tree conclusion {term_text(t)} is not an atom")


def _conclusion_atom(t: Term) -> Atom:
    _check_conclusion(t)
    return Atom(t.functor, t.args) if isinstance(t, Compound) else Atom(t.symbol)


def _node_parts(node: Compound) -> tuple[list[Term], list[Term]]:
    """A tree node's children and its side conditions, each in order,
    once its conclusion is checked."""
    _check_conclusion(node.args[0])
    children: list[Term] = []
    side: list[Term] = []
    for rest in node.args[2:]:
        (children if _is_tree_term(rest) else side).append(rest)
    return children, side


def tree_of(fact: Atom) -> Optional[Compound]:
    """The proof tree term carried in the fact's last argument, if any."""
    if fact.args and _is_tree_term(fact.args[-1]):
        return fact.args[-1]
    return None


def render_proof_tree(tree: Term, format: str = "term") -> str:
    """The tree term as text: term (the tree without its side
    conditions), ascii or dot.  Nodes wait on an explicit stack, so depth
    is not bounded by the recursion limit; each node's conclusion is
    checked when the walk reaches it, parents first and children in
    order."""
    if not _is_tree_term(tree):
        raise EvalTypeError(f"not a proof tree term: {term_text(tree)}")
    if format == "term":
        # a subtree shared by several parents (one object, as ground
        # terms are interned) is rebuilt once
        built: dict[int, Term] = {}
        # (node, None) is a node to enter, (node, children) one to build
        stack: list[tuple[Compound, Optional[list[Term]]]] = [(tree, None)]
        while stack:
            node, children = stack.pop()
            if children is not None:
                built[id(node)] = Compound(
                    "t", node.args[:2] + tuple(built[id(c)] for c in children)
                )
            elif id(node) not in built:
                children = _node_parts(node)[0]
                stack.append((node, children))
                stack.extend((c, None) for c in reversed(children))
        return term_text(built[id(tree)], quoted=False)
    if format == "ascii":
        lines: list[str] = []
        nodes: list[tuple[Compound, int]] = [(tree, 0)]
        while nodes:
            node, depth = nodes.pop()
            children, side = _node_parts(node)
            pad = "  " * depth
            lines.append(
                f"{pad}{term_text(node.args[0], quoted=False)} [{node.args[1].symbol}]"
            )
            lines.extend(f"{pad}  where {term_text(sc, quoted=False)}" for sc in side)
            nodes.extend((c, depth + 1) for c in reversed(children))
        return "\n".join(lines) + "\n"
    if format == "dot":
        lines = ["digraph G {", "  node [shape=box];"]
        # the stack holds (node, parent id) pairs and edge lines; a node's
        # edge from its parent is written after the node's subtree
        todo: list = [(tree, None)]
        count = 0
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            node, parent = item
            children, side = _node_parts(node)
            nid = f"n{count}"
            count += 1
            label = "\\n".join(
                [term_text(node.args[0], quoted=False), f"[{node.args[1].symbol}]"]
                + [f"where {term_text(sc, quoted=False)}" for sc in side]
            ).replace('"', '\\"')
            lines.append(f'  "{nid}" [label="{label}"];')
            if parent is not None:
                todo.append(f'  "{parent}" -> "{nid}";')
            todo.extend((c, nid) for c in reversed(children))
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown proof tree format {format!r}")


# ===========================================================================
# Mechanical proof-tree instrumentation
# ===========================================================================


def auto_pt(p: Program) -> Program:
    """Rewrite a plain program so every derived fact carries its proof tree.

    Every predicate defined in the program gets one extra argument; each
    rule gets a pt/2 call that assembles t(OriginalHead, RuleName,
    ChildTrees..., BuiltinGoals...).  Body literals over predicates not
    defined here (externally loaded relations) are left alone, as are
    negated literals; neither contributes a child.
    """
    defined = p.idb()
    out: list[Rule] = []
    for rule in p.rules:
        used = set(term_vars(rule))

        def fresh(base: str, k: Optional[int] = None) -> str:
            name = base if k is None else f"{base}{k}"
            i = k or 0
            while name in used:
                i += 1
                name = f"{base}{i}"
            used.add(name)
            return name

        head_var = Var(fresh("T"))
        new_body: list[Literal] = []
        child_vars: list[Term] = []
        side_terms: list[Term] = []
        n_child = 0
        for lit in rule.body:
            if lit.is_negated():
                new_body.append(lit)
            elif lit.is_builtin():
                new_body.append(lit)
                if (lit.atom.predicate, len(lit.atom.args)) != ("pt", 2):
                    side_terms.append(_atom_term(lit.atom))
            elif lit.atom.key in defined:
                n_child += 1
                tv = Var(fresh("T", n_child))
                new_body.append(
                    Literal(
                        Atom(
                            lit.atom.predicate,
                            lit.atom.args + (tv,),
                            None,
                            lit.atom.span,
                        )
                    )
                )
                child_vars.append(tv)
            else:
                new_body.append(lit)
        tree = proof_tree(rule.head, rule.name, child_vars, side_terms)
        pt_lit = Literal(Atom("pt", (head_var, tree), "prolog"))
        new_head = Atom(
            rule.head.predicate, rule.head.args + (head_var,), None, rule.head.span
        )
        out.append(Rule(rule.name, new_head, tuple(new_body) + (pt_lit,), rule.span))
    return Program(tuple(out))


# ===========================================================================
# Replay validation
# ===========================================================================


def _replay(p: Program, store: FactStore) -> Callable[[Atom], bool]:
    """validate_fact against store, with each rule compiled once for the
    pattern with its head bound: a stored fact is ground, so matching the
    head binds the head's variables to ground terms."""
    by_key: dict[PredKey, list[tuple[tuple, _Plan]]] = {}
    for rule in p.rules:
        plan = _Plan(rule.body, store, term_vars(rule.head))
        by_key.setdefault(rule.head.key, []).append((rule.head.args, plan))

    def derivable(fact: Atom) -> bool:
        for head_args, plan in by_key.get(fact.key, ()):
            s0 = match(head_args, fact.args, {})
            if s0 is not None:
                for _ in plan.run(s0):
                    return True
        return False

    return derivable


def validate_fact(p: Program, store: FactStore, fact: Atom) -> bool:
    """True iff some rule re-derives exactly this fact from the store.
    fact is ground, as every stored fact is, so no rule variable can
    clash with it and the rules are used as written."""
    return _replay(p, store)(fact)


def validate_store(p: Program, store: FactStore) -> list[Atom]:
    """Facts that no rule can re-derive, or whose embedded proof tree
    contradicts them; empty list means the store replays cleanly.  Only
    a tree's root conclusion is read: it is what the fact asserts."""
    derivable = _replay(p, store)
    bad: list[Atom] = []
    for fact in store.sorted_facts():
        ok = derivable(fact)
        if ok and fact.args and _is_tree_term(fact.args[-1]):
            conclusion = _conclusion_atom(fact.args[-1].args[0])
            if (
                conclusion.predicate == fact.predicate
                and len(conclusion.args) == len(fact.args) - 1
                and conclusion.args != fact.args[:-1]
            ):
                ok = False
        if not ok:
            bad.append(fact)
    return bad


# ===========================================================================
# Dumps
# ===========================================================================


def dump_facts(store: FactStore) -> str:
    """Sorted, re-parseable fact listing, one atom per line."""
    lines = [term_text(_atom_term(f), quoted=True) + "." for f in store.sorted_facts()]
    return "\n".join(lines) + ("\n" if lines else "")


def facts_to_json(store: FactStore) -> list[dict]:
    return [
        {
            "pred": str(f.key),
            "args": [term_text(a, quoted=True) for a in f.args],
        }
        for f in store.sorted_facts()
    ]
