"""Bottom-up evaluation with embedded builtin calls.

The pipeline is: check_calls -> check_safety -> stratify -> per-stratum
semi-naive fixpoint, a stratum's facts stored before its first pass.
FactStore is the one fact index, keyed by each argument itself: a probe
reads the smallest bucket of the positions ground where its literal
runs, and as no fact is added during a pass,
the delta a pass reads, the facts the previous pass added, is the tail
of every probe.  Rules run as compiled plans (_Plan): each body is
compiled once for the variables bound on entry (none in evaluate and in
hybrid goals, the head's in replay), which fixes each literal's probe
positions.  In evaluate and in replay a plan solves its literals bound
first: the delta literal, then whatever is a lookup, and a pt/2 call as
soon as one side is bound.  A body with a builtin that can raise, or
with a negated builtin, whose answer depends on what is bound where it
runs, keeps its written order, and so does a goal (solve_body, as run by
hybrid.solve_goal), whose answer order users see.
A positive literal matches ground facts one way (kernel.match); mgu, with
its occurs check, runs only where both sides may hold variables: a
unifying builtin (pt, same_as) with open terms on both sides, and the
literals after one.  A literal whose variables are bound is a lookup,
and a head is built from a template.  A literal with a `prolog:` (or
any) prefix calls the builtin lookup_builtin finds in a small registry
instead of matching facts; check_calls, which evaluate, solve_goal and
every command run first, reports one that names no builtin.  Negated
literals are checked against the store, which by stratification is
already complete for the negated predicate; a negated literal still
carrying variables is deferred to the end of the body and then read as
"no stored fact unifies".

Joins take facts in insertion order; sort_key order is imposed only where
users see it, by FactStore.facts, sorted_facts and sorted_candidates.

Proof trees are ordinary terms built by the programs themselves through
the pt/2 builtin (or mechanically by auto_pt, through proof_tree); tree_of
finds one in a fact, and render_proof_tree reads it as it is.
"""

from __future__ import annotations

from collections import deque

from .errors import (
    CycleError,
    DdliteError,
    EvalTypeError,
    InstantiationError,
    ResourceLimitExceeded,
    SafetyError,
    UnknownBuiltin,
)
from .graphs import NOT, build_pdg
from .kernel import (
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

TYPE_CHECKING = False  # typing is imported by type checkers alone
if TYPE_CHECKING:
    from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

# ===========================================================================
# Builtin registry
# ===========================================================================

# Each builtin declares which argument positions it reads (inputs: must be
# bound for the call to be well-formed) and which it can bind (outputs:
# treated as bound afterwards by the safety check).


class Builtin(Record):
    """fn(args) answers a call whose arguments are args under the current
    bindings.  A test (no outputs) returns whether it holds; a builtin
    with one output returns the ground term to bind there, or None if the
    call fails.  pt and same_as unify their two arguments instead
    (_bi_unify), and take the bindings too.  The plan step, or
    call_builtin, binds what a call returns (_answer)."""

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
            try:
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
            except OverflowError:  # a float met an int, or a quotient, beyond its range
                raise EvalTypeError(
                    f"arithmetic beyond float range: {term_text(t)}"
                ) from None
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
    if values[0] != values[0]:
        # NaN, as from inf - inf: kernel.match finds it unequal to itself
        # and a store lookup finds it, so its joins would hang on the order
        # a plan takes
        raise EvalTypeError(f"arithmetic result is not a number: {term_text(t)}")
    return values[0]


def too_long(value) -> bool:
    """Whether value is an int with more digits than str() prints and
    int() reads (sys.get_int_max_str_digits(): 4,300 by default, 640 at
    the least, 0 for no limit), so that no reader could read it back."""
    if not isinstance(value, int) or value.bit_length() <= 2000:  # 603 digits at most
        return False
    try:
        str(value)
    except ValueError:
        return True
    return False


def _bi_is(args: tuple[Term, ...]) -> Term:
    value = _arith(args[1])
    if too_long(value):
        raise EvalTypeError(
            f"arithmetic result is an integer with too many digits: {term_text(args[1])}"
        )
    return Num(value)


def _compare(op: str) -> Callable[[tuple[Term, ...]], bool]:
    tests = {
        "<": lambda a, b: a < b,
        "=<": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=:=": lambda a, b: a == b,
        "=\\=": lambda a, b: a != b,
    }
    test = tests[op]

    def fn(args: tuple[Term, ...]) -> bool:
        return test(_arith(args[0]), _arith(args[1]))

    return fn


def _bi_atom_number(args: tuple[Term, ...]) -> Optional[Term]:
    text = args[0]
    if isinstance(text, Var):
        raise InstantiationError("atom_number: first argument unbound")
    if not isinstance(text, Const):
        raise EvalTypeError("atom_number: first argument must be a constant")
    return parse_number(text.symbol)


def _bi_unify(args: tuple[Term, ...], s: Subst, bind) -> Optional[Subst]:
    """s extended to unify the two arguments: by bind when one side is
    ground, by mgu when neither is."""
    a, b = args
    if is_ground(b):
        return bind(s, a, b)
    if is_ground(a):
        return bind(s, b, a)
    return mgu(a, b, s)


def _bi_different_from(args: tuple[Term, ...]) -> bool:
    a, b = args
    if not (is_ground(a) and is_ground(b)):
        raise InstantiationError("different_from: both arguments must be ground")
    return a != b


def _bi_create_owl_thing(args: tuple[Term, ...]) -> Term:
    for t in args[1:]:
        if not is_ground(t):
            raise InstantiationError(
                "create_owl_thing: arguments 2..4 must be ground"
            )
    return Compound("skolem", (Const("create_owl_thing"),) + tuple(args[1:]))


def _bi_append(args: tuple[Term, ...]) -> Term:
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
    return mklist(flat)


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


def lookup_builtin(atom: Atom) -> Builtin:
    """The Builtin a call names, by its predicate and arity whatever its
    module prefix; UnknownBuiltin if it names none."""
    spec = BUILTINS.get((atom.predicate, len(atom.args)))
    if spec is not None:
        return spec
    raise UnknownBuiltin(f"unknown builtin {atom.predicate}/{len(atom.args)}", atom.span)


def _match_one(s: Subst, t: Term, value: Term) -> Optional[Subst]:
    """bind_ground where every value in s is ground, and t is an argument
    under s: a variable there is unbound, so binding it is one dict copy."""
    if t.__class__ is Var:
        s2 = dict(s)
        s2[t.name] = value
        return s2
    return match((t,), (value,), s)


def _answer(spec: Builtin, bind) -> Callable[[tuple, Subst], Optional[Subst]]:
    """answer(args, s): s extended by a call of spec on args, or None if
    the call fails.  An output is bound by bind: bind_ground where s may
    hold open terms, else _match_one."""
    fn = spec.fn
    if fn is _bi_unify:
        return lambda args, s: _bi_unify(args, s, bind)
    if not spec.outputs:
        return lambda args, s: s if fn(args) else None
    k = spec.outputs[0]

    def answer(args: tuple, s: Subst) -> Optional[Subst]:
        value = fn(args)
        return None if value is None else bind(s, args[k], value)

    return answer


def call_builtin(goal: Atom, s: Optional[Subst] = None) -> list[Subst]:
    """Run one builtin goal under s; answers extend s.

    Failure is an empty list; errors are raised for unbound required
    arguments, type mismatches, and unknown builtin names.
    """
    s = s or {}
    out = _answer(lookup_builtin(goal), bind_ground)(apply(s, goal).args, s)
    return [] if out is None else [out]


def check_calls(p: Optional[Program], goal: Optional[Sequence] = None) -> None:
    """Raise UnknownBuiltin at the first literal, of goal if given, else of
    p's rule bodies (the error then naming the rule), that is a call naming
    no builtin, negated or not, or that an operator names with no prefix,
    such as `X = a`, and no fact or rule head of p defines.  Every command
    runs this before it prints anything, so all report the same error."""
    defined = p.idb() if p is not None else frozenset()
    if goal is not None:
        bodies = [(goal, None)]
    else:
        bodies = [(r.body, r) for r in p.rules if r.body]
    for body, rule in bodies:
        for item in body:
            if not isinstance(item, Literal):
                continue
            atom = item.atom
            try:
                if item.is_builtin():
                    lookup_builtin(atom)
                elif atom.predicate in OPERATORS and atom.key not in defined:
                    raise UnknownBuiltin(
                        f"unknown builtin {atom.predicate}/{len(atom.args)}", atom.span
                    )
            except UnknownBuiltin as err:
                if rule is None:
                    raise
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
            spec = lookup_builtin(lit.atom)
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


def _is_fact(rule: Rule) -> bool:
    """A bodyless rule with a ground head, such as a `.dl` fact or a --csv
    row: evaluate stores its head before its stratum's first pass, no
    check can fault it, and it depends on nothing."""
    return not rule.body and rule.head.ground


def check_safety(p: Program) -> list[Violation]:
    """Range-restriction check; an empty list means the program is safe.
    A call naming no builtin raises UnknownBuiltin (check_calls first)."""
    violations: list[Violation] = []
    for rule in p.rules:
        if _is_fact(rule):
            continue
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
                for i in lookup_builtin(lit.atom).inputs:
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


def _sccs(succ: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, over the nodes 0, 1, ... of succ,
    which lists each node's (successor, step) pairs; components are
    emitted callees-first."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    result: list[list[int]] = []
    counter = 0

    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = succ[node]
            for k in range(child_i, len(successors)):
                w = successors[k][0]
                if index[w] < 0:
                    work[-1] = (node, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
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
    negated dependency lies on a cycle.  Facts (_is_fact) depend on
    nothing, so the walk leaves them out; a predicate they alone define
    is in stratum 0.  The walk runs over integers, one per predicate in
    key order: the graph's nodes, and the predicates of the walked rules
    that no edge joins (meta-predicates such as findall/3).
    """
    rules: list[Rule] = []
    fact_keys: list[PredKey] = []
    for rule in p.rules:
        if _is_fact(rule):
            fact_keys.append(rule.head.key)
        else:
            rules.append(rule)
    walked = Program(tuple(rules))
    g = build_pdg(walked)
    keys = sorted(
        {*walked.pred_keys(), *(n.key for n in g.nodes)},
        key=lambda k: (k.module or "", k.name, k.arity),
    )
    number = {key: i for i, key in enumerate(keys)}
    # each predicate's (callee, step) pairs in edge order: step 1 across
    # a negated edge, 0 across a plain one
    succ: list[list[tuple[int, int]]] = [[] for _ in keys]
    for e in g.edges:
        succ[number[e.src.key]].append((number[e.dst.key], 1 if e.mark == NOT else 0))

    comps = _sccs(succ)
    comp_of = [0] * len(keys)
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i

    bad = [
        (src, dst)
        for src, edges in enumerate(succ)
        for dst, step in edges
        if step and comp_of[src] == comp_of[dst]
    ]
    if bad:
        src, dst = min(bad, key=lambda e: (keys[e[0]], keys[e[1]]))
        raise CycleError([keys[v] for v in _cycle_path(src, dst, succ, comp_of)])

    # components come out callees-first, so dependencies are already ranked
    stratum_of_comp: list[int] = [0] * len(comps)
    assignment: dict[PredKey, int] = {}
    for i, comp in enumerate(comps):
        level = 0
        for src in comp:
            for dst, step in succ[src]:
                if comp_of[dst] != i:
                    level = max(level, stratum_of_comp[comp_of[dst]] + step)
        stratum_of_comp[i] = level
        for v in comp:
            assignment[keys[v]] = level
    for key in fact_keys:
        assignment.setdefault(key, 0)
    return Strata(assignment)


def _cycle_path(src: int, dst: int, succ, comp_of: list[int]) -> list[int]:
    """A dst -> ... -> src walk inside one component, closing the bad edge."""
    target_comp = comp_of[src]
    prev: dict[int, int] = {}
    queue = deque([dst])
    seen = {dst}
    while queue:
        cur = queue.popleft()
        if cur == src:
            break
        for w, _ in succ[cur]:
            if comp_of[w] == target_comp and w not in seen:
                seen.add(w)
                prev[w] = cur
                queue.append(w)
    path = [src]
    cur = src
    while cur != dst and cur in prev:
        cur = prev[cur]
        path.append(cur)
    if path[-1] != dst:
        path.append(dst)
    path.reverse()  # dst ... src
    return [src] + path  # src, dst, ..., src


# ===========================================================================
# Fact store
# ===========================================================================


def probe_positions(args: tuple, bound: Container[str]) -> tuple[int, ...]:
    """The positions of args a probe may key on: a ground argument, or a
    variable in bound; an open compound is none."""
    return tuple(
        i for i, a in enumerate(args)
        if (a.name in bound if a.__class__ is Var else is_ground(a))
    )


class FactStore:
    """The model: ground atoms without duplicates, each with its origin,
    grouped by predicate, each group in insertion order, and indexed by
    (predicate, position, argument): facts are ground, so an argument is
    its own key, and equal arguments share a bucket as kernel.match finds
    them equal (0.0 and -0.0, not 1 and 1.0).  A position's index is
    built the first time a probe reads it and kept up to date after.

    A probe takes the smallest bucket of the positions its caller found
    ground (probe_positions), in insertion order, which is all a join
    needs.  No fact is added during a semi-naive pass, so the facts the
    previous pass added, its delta, are the tail of every probe.  Order
    is imposed here and only here, for what users see: facts(),
    sorted_facts() and sorted_candidates() yield in sort_key order.
    """

    def __init__(self):
        self._by_pred: dict[PredKey, list[Atom]] = {}
        # predicate -> per position, None or argument -> facts
        self._index: dict[PredKey, list[Optional[dict]]] = {}
        # every fact, in insertion order -> the rule that derived it, or None
        self._origin: dict[Atom, Optional[str]] = {}
        self._sorted_cache: dict[PredKey, list[Atom]] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._origin)

    def freeze(self) -> "FactStore":
        self._frozen = True
        return self

    def add(self, fact: Atom, origin: Optional[str] = None) -> bool:
        """Insert one ground atom; False if it was already present."""
        if self._frozen:
            raise EvalTypeError("fact store is frozen")
        if not fact.ground:
            raise EvalTypeError(f"non-ground fact {term_text(_atom_term(fact))}")
        if fact in self._origin:
            return False
        self._origin[fact] = origin
        key = fact.key
        group = self._by_pred.get(key)
        if group is None:
            self._by_pred[key] = [fact]
        else:
            group.append(fact)
        self._sorted_cache.pop(key, None)
        columns = self._index.get(key)
        if columns is not None:
            for column, arg in zip(columns, fact.args):
                if column is not None:
                    column.setdefault(arg, []).append(fact)
        return True

    def _column(self, key: PredKey, i: int) -> dict:
        columns = self._index.get(key)
        if columns is None:
            columns = self._index[key] = [None] * key.arity
        column = columns[i]
        if column is None:
            column = columns[i] = {}
            for fact in self._by_pred.get(key, ()):
                column.setdefault(fact.args[i], []).append(fact)
        return column

    def candidates(self, query: Atom, s: Subst, positions: tuple) -> Sequence[Atom]:
        """The facts that may match query under s, in insertion order: the
        smallest bucket of query's arguments at positions, each ground
        under s, or all of the predicate's facts if positions is empty."""
        found = self._by_pred.get(query.key, ())
        for i in positions:
            arg = query.args[i]
            if arg.__class__ is Var:
                arg = s[arg.name]
            bucket = self._column(query.key, i).get(arg, ())
            if not bucket:
                return bucket
            if len(bucket) < len(found):
                found = bucket
        return found

    def facts(self, key: PredKey) -> list[Atom]:
        cached = self._sorted_cache.get(key)
        if cached is None:
            cached = sorted(self._by_pred.get(key, []), key=sort_key)
            self._sorted_cache[key] = cached
        return cached

    def has(self, fact: Atom) -> bool:
        return fact in self._origin

    def origin(self, fact: Atom) -> Optional[str]:
        return self._origin.get(fact)

    def sorted_candidates(self, query: Atom, s: Subst, positions: tuple) -> list[Atom]:
        """Like candidates, but in sort_key order."""
        if not positions:
            return self.facts(query.key)  # the whole group, sorted once
        return sorted(self.candidates(query, s, positions), key=sort_key)

    def unifies_any(self, query: Atom) -> bool:
        args = query.args
        found = self.candidates(query, {}, probe_positions(args, ()))
        return any(match(args, f.args, {}) is not None for f in found)

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
        if store.has(bound) if bound.ground else store.unifies_any(bound):
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
    becomes one step, which runs the next step once per answer.  The
    steps come in the written order, or with reorder (evaluate and
    replay) in bound-first order (_bound_first), unless a builtin of the
    body can raise, or is negated (_may_raise): then the written order
    decides which error comes first, and what is bound when the negation
    runs.  What a step does is settled here, once:

    - a positive literal takes its candidate facts from probe, or the
      store (at delta_pos only their tail that is in delta), by the
      positions ground where it runs (probe_positions of ground), and
      matches each one way (kernel.match).  Only after a builtin that may
      bind a variable to an open term, such as `pt(X, f(Y))` with Y
      unbound, does it unify them with mgu;
    - a positive literal whose variables are all bound is one store.has
      lookup, unless it reads the delta or a probe;
    - a negated literal whose variables the pattern binds is one lookup.
      Any other is looked up where it stands if it is ground there, and
      checked again at the end by deferred_negation_ok;
    - a builtin call, negated or not, runs the Builtin it names
      (lookup_builtin) on its arguments under s, and binds what it
      returns by one match, or, where s may hold open terms, by
      bind_ground; `true` and `!` hold, and `not true` and `not !` fail,
      as Prolog's `\\+ true` does;
    - an item that is not a Literal is compiled by compile_item(item,
      ground, open_), called here once with the variables bound to ground
      terms at that point and whether s may hold open terms there.  It
      adds the variables its answers bind to ground terms to ground, and
      returns the step: a function of nxt, as the step functions below.
    """

    def __init__(
        self,
        body: Sequence,
        store: FactStore,
        bound: Iterable[str] = (),
        open_: bool = False,
        probe: Optional[Callable[[Atom, Subst, tuple], Iterable[Atom]]] = None,
        compile_item: Optional[Callable[[object, set[str], bool], Callable]] = None,
        delta_pos: Optional[int] = None,
        emit: Callable[[Subst], object] = lambda s: s,
        reorder: bool = False,
    ):
        # reads the delta_pos literal's candidates; its caller sets
        # delta.facts before each run
        self.delta = _DeltaTail(store)
        ground = set(bound)  # variables bound to ground terms here
        candidates = probe or store.candidates
        order: Iterable[int] = range(len(body))
        if reorder and len(body) > 1 and not any(_may_raise(i) for i in body):
            order = _bound_first(body, ground, delta_pos)
        steps: list[tuple] = []  # (step function, its arguments but the next step)
        late: list[Atom] = []
        for i in order:
            item = body[i]
            if not isinstance(item, Literal):
                steps.append((compile_item(item, ground, open_),))
                continue
            atom = item.atom
            if item.is_builtin():
                steps.append((_builtin_step, atom, item.is_negated(), open_))
                if not item.is_negated():
                    open_ = _builtin_binds(atom, ground) or open_
            elif not item.reads_relation():
                if item.is_negated():
                    steps.append((_fail_step,))
                continue
            elif item.is_negated():
                if not term_vars(atom) <= ground:
                    late.append(atom)
                steps.append((_negated_step, atom, store))
            else:
                names = term_vars(atom)
                positions = probe_positions(atom.args, ground)
                if i == delta_pos:
                    steps.append((_positive_step, atom, positions, self.delta, open_))
                elif atom.ground or probe is None and not open_ and names <= ground:
                    steps.append((_has_step, atom, store))
                else:
                    steps.append((_positive_step, atom, positions, candidates, open_))
                ground |= names

        if late:
            def finish(s: Subst) -> Iterable:
                return (emit(s),) if deferred_negation_ok(late, s, store) else ()
        else:
            def finish(s: Subst) -> Iterable:
                return (emit(s),)

        first = finish
        for step, *args in reversed(steps):
            first = step(*args, first)

        def run(s: Subst) -> Iterator:
            yield from first(s)

        self.run: Callable[[Subst], Iterator] = run


class _DeltaTail:
    """The candidates of a delta literal: the tail of
    store.candidates(query, s, positions) that is in facts, the store's
    newest facts, held in any collection that answers `in`.

    A plan's steps hold it and not the plan, which holds them: so no
    cycle keeps a dropped plan, and with it the store, alive until the
    cyclic collector runs, which the command line turns off."""

    __slots__ = ("store", "facts")

    def __init__(self, store: FactStore):
        self.store = store
        self.facts: Container[Atom] = ()

    def __call__(self, query: Atom, s: Subst, positions: tuple) -> Sequence[Atom]:
        found, delta = self.store.candidates(query, s, positions), self.facts
        start = len(found)
        while start and found[start - 1] in delta:
            start -= 1
        return found[start:]


def _may_raise(item) -> bool:
    """True unless item is a literal that raises no error wherever it
    stands: a relation, or a positive call of pt or same_as, which only
    unify.  A negated call is answered for what is bound where it runs:
    `not pt(X, a)` fails with X unbound and may hold once X is bound."""
    if not isinstance(item, Literal):
        return True
    if not item.is_builtin():
        return False
    return item.is_negated() or lookup_builtin(item.atom).fn is not _bi_unify


def _bound_first(body: Sequence, bound: set[str], delta_pos: Optional[int]) -> list:
    """The positions of body in the order a reordered plan solves them.

    The delta literal comes first.  Then, greedily (Selinger et al.,
    SIGMOD 1979), the first item in written order that only reads what is
    bound by then: a lookup, a negation, or a pt/same_as call with one
    side bound, which binds the other; else the positive literal with the
    most arguments bound, the first of them on a tie; else the first item
    left.  So where nothing is bound and no argument is a constant, as in
    the first pass of most rules, the written order stands."""
    ground = set(bound)
    left = list(range(len(body)))
    order: list[int] = []
    if delta_pos is not None:
        left.remove(delta_pos)
        order.append(delta_pos)
        ground |= term_vars(body[delta_pos].atom)
    while left:
        pick, most = left[0], -1
        for i in left:
            lit = body[i]
            if lit.is_builtin() and not lit.is_negated():
                if any(term_vars(a) <= ground for a in lit.atom.args):
                    pick = i
                    break
            elif term_vars(lit.atom) <= ground:
                pick = i
                break
            elif not lit.is_negated():
                n = sum(term_vars(a) <= ground for a in lit.atom.args)
                if n > most:
                    pick, most = i, n
        left.remove(pick)
        order.append(pick)
        lit = body[pick]
        if lit.is_builtin():
            _builtin_binds(lit.atom, ground)
        elif not lit.is_negated():
            ground |= term_vars(lit.atom)
    return order


def _builtin_binds(atom: Atom, ground: set[str]) -> bool:
    """Add the variables the builtin call binds to ground terms to ground;
    True if it may bind one to an open term instead."""
    spec = lookup_builtin(atom)
    if spec.fn is _bi_unify:
        left, right = (term_vars(a) for a in atom.args)
        if not (left <= ground or right <= ground):
            return True
        ground |= left | right
        return False
    for k in spec.outputs:
        ground |= term_vars(atom.args[k])
    return False


# Each step function below builds one step of a plan: a function of s
# whose iterable runs nxt, the rest of the plan, once per answer of its
# item.  A step with at most one answer returns nxt's iterable, or (), as
# it is called, which saves a generator per answer; Plan.run is lazy.


def _positive_step(atom: Atom, positions: tuple, candidates, open_: bool, nxt):
    args = atom.args
    if open_:
        def run(s):
            for fact in candidates(atom, s, positions):
                s2 = mgu(atom, fact, s)
                if s2 is not None:
                    yield from nxt(s2)
    else:
        def run(s):
            for fact in candidates(atom, s, positions):
                s2 = match(args, fact.args, s)
                if s2 is not None:
                    yield from nxt(s2)
    return run


def _has_step(atom: Atom, store: FactStore, nxt):
    if atom.ground:
        def run(s):
            return nxt(s) if store.has(atom) else ()
        return run
    build = _template(atom.args)
    predicate = atom.predicate

    def run(s):
        return nxt(s) if store.has(Atom(predicate, build(s))) else ()
    return run


def _negated_step(atom: Atom, store: FactStore, nxt):
    build = _template(atom.args)
    predicate = atom.predicate

    def run(s):
        bound = Atom(predicate, build(s))
        return () if bound.ground and store.has(bound) else nxt(s)
    return run


def _builtin_step(atom: Atom, negated: bool, open_: bool, nxt):
    build = _template(atom.args)
    answer = _answer(lookup_builtin(atom), bind_ground if open_ else _match_one)
    if negated:
        def run(s):
            return nxt(s) if answer(build(s), s) is None else ()
    else:
        def run(s):
            s2 = answer(build(s), s)
            return () if s2 is None else nxt(s2)
    return run


def _fail_step(nxt):
    return lambda s: ()


def solve_body(
    body: Sequence,
    store: FactStore,
    s: Optional[Subst] = None,
    probe: Optional[Callable[[Atom, Subst, tuple], Iterable[Atom]]] = None,
    compile_item: Optional[Callable[[object, set[str], bool], Callable]] = None,
) -> Iterator[Subst]:
    """All substitutions solving the body (a rule body or a goal) left to
    right against store, through a plan compiled for s's bound variables.

    A positive literal is matched against the facts probe gives for it,
    store.candidates (in insertion order) unless given; answers come in
    that order.  Body items that are not Literals are compiled into plan
    steps by compile_item (see _Plan).
    """
    s = s or {}
    bound = [name for name, value in s.items() if is_ground(value)]
    return _Plan(body, store, bound, len(bound) < len(s), probe, compile_item).run(s)


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

    return _Plan(rule.body, store, delta_pos=delta_pos, emit=emit, reorder=True)


def _rule_heads(
    rule: Rule,
    store: FactStore,
    delta: Container[Atom] = (),
    delta_pos: Optional[int] = None,
    plan: Optional[_Plan] = None,
) -> Iterator[Atom]:
    """The heads the rule derives, the literal at delta_pos reading only
    the store's facts in delta; plan, if given, is the rule's _rule_plan
    for store and delta_pos."""
    plan = plan or _rule_plan(rule, store, delta_pos)
    plan.delta.facts = delta
    try:
        yield from plan.run({})
    except DdliteError as err:
        raise _wrap_rule_errors(rule, err) from err


def _positive_positions(rule: Rule) -> list[int]:
    return [
        i
        for i, lit in enumerate(rule.body)
        if not lit.is_negated() and lit.reads_relation()
    ]


def check_program(p: Program) -> Strata:
    """The program's strata, once its checks pass, in the order evaluate
    runs them: UnknownBuiltin (check_calls), then SafetyError, then
    CycleError (stratify)."""
    check_calls(p)
    violations = check_safety(p)
    if violations:
        raise SafetyError(violations)
    return stratify(p)


def evaluate(p: Program, opts: Optional[EvalOptions] = None) -> FactStore:
    """Stratified semi-naive fixpoint of the program.

    A stratum's facts (_is_fact: a bodyless rule with a ground head, as
    a --csv row is) are stored before its first pass, in program order,
    each with its rule name as origin; they run as no rule and compile
    no plan.  The first pass then runs every other rule of the stratum
    over all that is stored, and each later pass only the rules that
    read a predicate which gained facts in the pass before.

    Raises UnknownBuiltin, SafetyError and CycleError up front
    (check_program), ResourceLimitExceeded when the iteration or fact
    ceiling is hit mid-run.
    """
    opts = opts or EvalOptions()
    strata = check_program(p)
    facts: dict[int, list[Rule]] = {}
    by_stratum: dict[int, list[Rule]] = {}
    for rule in p.rules:
        group = facts if _is_fact(rule) else by_stratum
        group.setdefault(strata.of(rule.head.key), []).append(rule)

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
        stored = facts.get(stratum, ())
        for rule in stored:
            store.add(rule.head, rule.name)
        limit_check(stratum, (rule.head for rule in stored))
        rules = by_stratum.get(stratum, [])
        if not rules:
            continue
        # predicate -> the (rule, body position) runs that read it: the
        # runs a delta pass may make, each in rule order, then body order
        readers: dict[PredKey, list[tuple[int, int]]] = {}
        for k, rule in enumerate(rules):
            for j in _positive_positions(rule):
                readers.setdefault(rule.body[j].atom.key, []).append((k, j))
        # each rule compiled once per delta position it runs with
        plans: dict[tuple[int, Optional[int]], _Plan] = {}
        # the first pass is plain T_P over everything stored so far; after
        # it a rule runs once per positive literal whose predicate gained
        # facts in the previous pass, that literal matching only those
        # facts: the delta, which are the store's newest
        runs: list[tuple[int, Optional[int]]] = [(k, None) for k in range(len(rules))]
        # derivation order, kept so that join order (and which fact an
        # error names) never depends on hashing
        new: dict[Atom, str] = {}
        iteration = 1
        while True:
            delta, new = new, {}
            for k, j in runs:
                rule = rules[k]
                plan = plans.get((k, j))
                if plan is None:
                    plan = plans[k, j] = _rule_plan(rule, store, j)
                for head in _rule_heads(rule, store, delta, j, plan):
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
            # only the runs that read a predicate which gained facts
            gained = {head.key for head in new}
            runs = sorted(run for key in gained for run in readers.get(key, ()))
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
        name = f"f{k}"
        while name in used:
            k += 1
            name = f"f{k}"
        rules.append(Rule(name, fact))
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


def _replay(rules: Iterable[Rule], store: FactStore) -> Callable[[Atom], Optional[str]]:
    """The name of the first of rules, in their order, that re-derives a
    fact from store, or None, with each rule compiled once for the
    pattern with its head bound: a stored fact is ground, so matching the
    head binds the head's variables to ground terms."""
    by_key: dict[PredKey, list[tuple[str, tuple, _Plan]]] = {}
    for rule in rules:
        plan = _Plan(rule.body, store, term_vars(rule.head), reorder=True)
        by_key.setdefault(rule.head.key, []).append((rule.name, rule.head.args, plan))

    def deriving(fact: Atom) -> Optional[str]:
        for name, head_args, plan in by_key.get(fact.key, ()):
            s0 = match(head_args, fact.args, {})
            if s0 is not None:
                for _ in plan.run(s0):
                    return name
        return None

    return deriving


def deriving_rule(p: Program, store: FactStore, fact: Atom) -> Optional[str]:
    """The name of the first rule of p, in program order, that re-derives
    fact from store, or None.  fact is ground, as every stored fact is,
    so no rule variable can clash with it and the rules are used as
    written.  Unlike store.origin(fact), the rule that derived it first,
    it does not hang on the order evaluation found the fact in."""
    return _replay([r for r in p.rules if r.head.key == fact.key], store)(fact)


def validate_fact(p: Program, store: FactStore, fact: Atom) -> bool:
    """True iff some rule re-derives exactly this fact from the store."""
    return deriving_rule(p, store, fact) is not None


def validate_store(p: Program, store: FactStore) -> list[Atom]:
    """Facts that no rule can re-derive, or whose embedded proof tree
    contradicts them, in sort_key order; empty list means the store
    replays cleanly.  Only a tree's root conclusion is read: it is what
    the fact asserts.  Facts replay in insertion order."""
    derivable = _replay(p.rules, store)
    bad: list[Atom] = []
    for fact in (f for group in store._by_pred.values() for f in group):
        ok = derivable(fact) is not None
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
    return sorted(bad, key=sort_key)


# ===========================================================================
# Dumps
# ===========================================================================


_CONS = PredKey(None, ".", 2)


def dump_facts(store: FactStore) -> str:
    """Sorted fact listing, one atom per line, re-parseable up to the
    parser's nesting limit (a deeper term reads as `term nested too
    deeply`).  A fact prints as its term (_atom_term): as the stored atom
    itself, but with no module prefix, and a '.'/2 fact as a list."""
    lines = [
        term_text(
            f if f.module_prefix is None and f.key != _CONS else _atom_term(f),
            quoted=True,
        )
        + "."
        for f in store.sorted_facts()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def facts_to_json(store: FactStore) -> list[dict]:
    return [
        {
            "pred": str(f.key),
            "args": [term_text(a, quoted=True) for a in f.args],
        }
        for f in store.sorted_facts()
    ]
