"""Bottom-up evaluation with embedded builtin calls.

The pipeline is: check_safety -> stratify -> per-stratum semi-naive
fixpoint.  Body literals are solved left to right against the fact store
by solve_body, which also answers hybrid goals (hybrid.solve_goal);
goals with a `prolog:` prefix call into a small builtin registry instead
of matching facts.  Negated literals are checked against the store, which
by stratification is already complete for the negated predicate; a negated
literal still carrying variables is deferred to the end of the body and
then read as "no stored fact unifies".

Joins take facts in insertion order; sort_key order is imposed only where
users see it, by FactStore.facts, sorted_facts and matching.

Proof trees are ordinary terms built by the programs themselves through
the pt/2 builtin (or mechanically via auto_pt); the ProofTree class only
converts between that term shape and a typed tree for rendering.
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
    is_ground,
    list_elements,
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
    value = _arith(args[1])
    out = mgu(args[0], Num(value), s)
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
    out = mgu(args[1], num, s)
    return [out] if out is not None else []


def _bi_unify(args: tuple[Term, ...], s: Subst) -> list[Subst]:
    out = mgu(args[0], args[1], s)
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
    out = mgu(args[0], skolem, s)
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
    out = mgu(args[1], mklist(flat), s)
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
    """Hashable index key for a term's outermost symbol; None for variables."""
    if isinstance(t, Const):
        return ("c", t.symbol)
    if isinstance(t, Num):
        return ("n", type(t.value).__name__, t.value)
    if isinstance(t, Compound):
        return ("f", t.functor, len(t.args))
    return None


def _unifiers(query: Atom, facts: Iterable[Atom], s: Subst) -> Iterator[Subst]:
    """Extensions of s unifying query with each of the facts, in turn."""
    for fact in facts:
        out = mgu(query, fact, s)
        if out is not None:
            yield out


class FactIndex:
    """Ground atoms grouped by predicate and indexed by (predicate,
    position, principal functor), each group in insertion order.

    Probes yield facts in that order, which is all a join needs; a
    semi-naive delta is one of these holding a single iteration's facts.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        """facts: ground atoms, none repeated."""
        self._by_pred: dict[PredKey, list[Atom]] = {}
        self._index: dict[tuple[PredKey, int, tuple], list[Atom]] = {}
        for fact in facts:
            self._file(fact)

    def _file(self, fact: Atom) -> None:
        key = fact.key
        self._by_pred.setdefault(key, []).append(fact)
        for i, arg in enumerate(fact.args):
            pk = _principal(arg)
            if pk is not None:
                self._index.setdefault((key, i, pk), []).append(fact)

    def has_predicate(self, key: PredKey) -> bool:
        return key in self._by_pred

    def _bucket(self, query: Atom, s: Subst) -> Optional[tuple]:
        """Index key of query's first argument that has a principal symbol
        under s; None when every argument is an unbound variable."""
        for i, arg in enumerate(query.args):
            if isinstance(arg, Var):
                arg = s.get(arg.name, arg)
            pk = _principal(arg)
            if pk is not None:
                return (query.key, i, pk)
        return None

    def probe(self, query: Atom, s: Optional[Subst] = None) -> Iterator[Subst]:
        """Extensions of s unifying query with a fact, in insertion order."""
        s = s or {}
        bucket = self._bucket(query, s)
        if bucket is None:
            candidates = self._by_pred.get(query.key, [])
        else:
            candidates = self._index.get(bucket, [])
        return _unifiers(query, candidates, s)


class FactStore(FactIndex):
    """The model: a FactIndex without duplicates, with each fact's origin.

    Order is imposed here and only here, for what users see: facts(),
    sorted_facts() and matching() yield in sort_key order.
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
        if not is_ground(fact):
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

    def matching(self, query: Atom, s: Optional[Subst] = None) -> Iterator[Subst]:
        """Like probe, but the facts are tried in sort_key order."""
        s = s or {}
        bucket = self._bucket(query, s)
        if bucket is None:
            candidates = self.facts(query.key)
        else:
            candidates = sorted(self._index.get(bucket, []), key=sort_key)
        return _unifiers(query, candidates, s)

    def unifies_any(self, query: Atom, s: Optional[Subst] = None) -> bool:
        for _ in self.probe(query, s):
            return True
        return False

    def sorted_facts(self) -> list[Atom]:
        out: list[Atom] = []
        for key in sorted(self._by_pred, key=lambda k: (k.module or "", k.name, k.arity)):
            out.extend(self.facts(key))
        return out


def _atom_term(a: Atom) -> Term:
    return Compound(a.predicate, a.args) if a.args else Const(a.predicate)


# ===========================================================================
# Body solving
# ===========================================================================


def deferred_negation_ok(pending: list[Atom], s: Subst, store: FactStore) -> bool:
    """Deferred negated literals: ground -> stored-fact lookup; still
    non-ground -> no stored fact may unify."""
    for atom in pending:
        bound = apply(s, atom)
        if is_ground(bound):
            if store.has(bound):
                return False
        elif store.unifies_any(bound):
            return False
    return True


def solve_body(
    body: Sequence,
    store: FactStore,
    s: Optional[Subst] = None,
    delta: Optional[FactIndex] = None,
    delta_pos: Optional[int] = None,
    probe: Optional[Callable[[Atom, Subst], Iterable[Subst]]] = None,
    solve_item: Optional[Callable[[object, Subst], Iterable[Subst]]] = None,
) -> Iterator[Subst]:
    """All substitutions solving the body (a rule body or a goal) left to
    right against store.

    A positive literal reads the store through probe, store.probe (in
    insertion order) unless given; answers come in the order it yields
    facts.  With delta/delta_pos set, the literal at delta_pos only
    matches facts in delta (the semi-naive restriction).  Body items
    that are not Literals are answered by solve_item.
    """
    probe = probe or store.probe

    def step(i: int, s: Subst, pending: list[Atom]) -> Iterator[Subst]:
        if i == len(body):
            if deferred_negation_ok(pending, s, store):
                yield s
            return
        lit = body[i]
        if not isinstance(lit, Literal):
            for s2 in solve_item(lit, s):
                yield from step(i + 1, s2, pending)
            return
        atom = lit.atom
        if lit.is_negated():
            if atom.module_prefix is not None:
                if not call_builtin(atom, s):
                    yield from step(i + 1, s, pending)
                return
            bound = apply(s, atom)
            if is_ground(bound):
                if not store.has(bound):
                    yield from step(i + 1, s, pending)
            else:
                yield from step(i + 1, s, pending + [atom])
            return
        if lit.is_builtin():
            for s2 in call_builtin(atom, s):
                yield from step(i + 1, s2, pending)
            return
        if atom.key in CONTROL:
            yield from step(i + 1, s, pending)
            return
        source = delta.probe if i == delta_pos else probe
        for s2 in source(atom, s):
            yield from step(i + 1, s2, pending)

    yield from step(0, s or {}, [])


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


def _rule_heads(
    rule: Rule,
    store: FactStore,
    delta: Optional[FactIndex] = None,
    delta_pos: Optional[int] = None,
) -> Iterator[Atom]:
    try:
        for s in solve_body(rule.body, store, None, delta, delta_pos):
            head = apply(s, rule.head)
            if not is_ground(head):
                raise EvalTypeError(
                    f"derived a non-ground fact {term_text(_atom_term(head))}"
                )
            yield head
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

    Raises SafetyError / CycleError up front, ResourceLimitExceeded when
    the iteration or fact ceiling is hit mid-run.
    """
    opts = opts or EvalOptions()
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
            for rule, rule_positions in zip(rules, positions):
                if delta is None:
                    runs: list[Optional[int]] = [None]
                else:
                    runs = [
                        j
                        for j in rule_positions
                        if delta.has_predicate(rule.body[j].atom.key)
                    ]
                for j in runs:
                    for head in _rule_heads(rule, store, delta, j):
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


class ProofTree(Record):
    """Typed view of the t(Conclusion, Tag, Children..., SideConds...) shape."""

    __slots__ = _fields = ("conclusion", "tag", "children", "side_conditions")

    def __init__(
        self,
        conclusion: Atom,
        tag: str,
        children: tuple["ProofTree", ...] = (),
        side_conditions: tuple[Term, ...] = (),
    ):
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "side_conditions", side_conditions)

    @staticmethod
    def from_term(t: Term) -> "ProofTree":
        """The typed tree of a tree term.  Nodes wait on an explicit stack,
        so depth is not bounded by the recursion limit; conclusions are
        checked parents first, and a subterm shared by several parents
        (one object, as ground terms are interned) is converted once."""
        if not _is_tree_term(t):
            raise EvalTypeError(f"not a proof tree term: {term_text(t)}")
        built: dict[int, ProofTree] = {}
        # (term, None) is a node to enter, (term, conclusion) one to build
        stack: list[tuple[Term, Optional[Atom]]] = [(t, None)]
        while stack:
            term, conclusion = stack.pop()
            if conclusion is None:
                if id(term) not in built:
                    stack.append((term, _conclusion_atom(term.args[0])))
                    stack.extend(
                        (c, None) for c in reversed(term.args[2:]) if _is_tree_term(c)
                    )
                continue
            children: list[ProofTree] = []
            side: list[Term] = []
            for rest in term.args[2:]:
                if _is_tree_term(rest):
                    children.append(built[id(rest)])
                else:
                    side.append(rest)
            built[id(term)] = ProofTree(
                conclusion, term.args[1].symbol, tuple(children), tuple(side)
            )
        return built[id(t)]

    def to_term(self, side_conditions: bool = True) -> Term:
        """The tree term; without side conditions, the shape shown in
        listings.  Built children first, on an explicit stack."""
        built: dict[int, Term] = {}
        stack: list[tuple[ProofTree, bool]] = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if not ready:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if id(c) not in built)
                continue
            built[id(node)] = Compound(
                "t",
                (_atom_term(node.conclusion), Const(node.tag))
                + tuple(built[id(c)] for c in node.children)
                + (node.side_conditions if side_conditions else ()),
            )
        return built[id(self)]


def _is_tree_term(t: Term) -> bool:
    return (
        isinstance(t, Compound)
        and t.functor == "t"
        and len(t.args) >= 2
        and isinstance(t.args[1], Const)
    )


def _conclusion_atom(t: Term) -> Atom:
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


def tree_of(fact: Atom) -> Optional[ProofTree]:
    """The proof tree carried in the fact's last argument, if any."""
    if fact.args and _is_tree_term(fact.args[-1]):
        return ProofTree.from_term(fact.args[-1])
    return None


def render_proof_tree(t: ProofTree, format: str = "term") -> str:
    """The tree as text.  ascii and dot walk nodes parents first, children
    in order, on an explicit stack."""
    if format == "term":
        return term_text(t.to_term(side_conditions=False), quoted=False)
    if format == "ascii":
        lines: list[str] = []
        stack: list[tuple[ProofTree, int]] = [(t, 0)]
        while stack:
            node, depth = stack.pop()
            pad = "  " * depth
            lines.append(
                f"{pad}{term_text(_atom_term(node.conclusion), quoted=False)}"
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
        todo: list = [(t, None)]
        count = 0
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            node, parent = item
            nid = f"n{count}"
            count += 1
            label = term_text(_atom_term(node.conclusion), quoted=False)
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
        tree = Compound(
            "t",
            (_atom_term(rule.head), Const(rule.name))
            + tuple(child_vars)
            + tuple(side_terms),
        )
        pt_lit = Literal(Atom("pt", (head_var, tree), "prolog"))
        new_head = Atom(
            rule.head.predicate, rule.head.args + (head_var,), None, rule.head.span
        )
        out.append(Rule(rule.name, new_head, tuple(new_body) + (pt_lit,), rule.span))
    return Program(tuple(out))


# ===========================================================================
# Replay validation
# ===========================================================================


def validate_fact(p: Program, store: FactStore, fact: Atom) -> bool:
    """True iff some rule re-derives exactly this fact from the store.
    fact is ground, as every stored fact is, so no rule variable can
    clash with it and the rules are used as written."""
    for rule in p.rules:
        if rule.head.key != fact.key:
            continue
        s0 = mgu(rule.head, fact)
        if s0 is None:
            continue
        for _ in solve_body(rule.body, store, s0):
            return True
    return False


def validate_store(p: Program, store: FactStore) -> list[Atom]:
    """Facts that no rule can re-derive, or whose embedded proof tree
    contradicts them; empty list means the store replays cleanly."""
    bad: list[Atom] = []
    for fact in store.sorted_facts():
        ok = validate_fact(p, store, fact)
        if ok:
            tree = tree_of(fact)
            if (
                tree is not None
                and tree.conclusion.predicate == fact.predicate
                and len(tree.conclusion.args) == len(fact.args) - 1
                and tuple(tree.conclusion.args) != tuple(fact.args[:-1])
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
