"""Demand-driven evaluation of one goal: the magic-set rewrite.

A goal that binds some of its arguments to ground terms needs only the
facts a top-down search from it would reach.  magic_program rewrites a
program so that bottom-up evaluation derives little more than those
(Bancilhon, Maier, Sagiv & Ullman, PODS 1986, in the form of Beeri &
Ramakrishnan, JLP 1991), and evaluate_goal runs it through evaluate:

- Each predicate the goal reaches gets one set of bound positions: those
  bound in every call of it, iterated to a fixpoint.  In a rule, a call's
  bindings come left to right in written order, from the head's bound
  positions and the positive relation literals before it; a builtin
  binds nothing here, and an argument such as f(X) counts as unbound, so
  that demand builds no new terms and stays finite where the model is.
- A predicate with bound positions and a rule that reads a relation gets
  one demand predicate, under a name no predicate of the program has.
  Each of its rules that reads a relation is guarded by the demand
  literal on the head's bound arguments, put in front of the body.  A
  call of such a predicate in a body becomes a rule that derives its
  demand from the caller's guard and the positive relation literals
  before the call; the goal's bound arguments are the first demand fact.
- A predicate read under negation, and every predicate it depends on,
  keeps its rules as they are and passes no demand.  So every negated
  literal reads a predicate evaluated in full, and the rewritten program
  is stratified whenever the original is.
- Facts and rules that read no relation stay as they are, and rules of
  predicates the goal does not reach are left out.  Predicates and rules
  keep their names, so answers and proof trees read as in the full model.
"""

from __future__ import annotations

from .engine import EvalOptions, FactStore, evaluate
from .errors import DdliteError
from .kernel import Atom, Literal, PredKey, Program, Rule, Var, is_ground, term_vars

TYPE_CHECKING = False  # typing is imported by type checkers alone
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Optional


def evaluate_goal(
    p: Program, goal: Atom, opts: Optional[EvalOptions] = None
) -> FactStore:
    """A store whose facts of p's predicates are facts of p's model,
    every one that matches goal among them: the model of
    magic_program(p, goal), which adds demand facts, or, where there is
    no rewrite or evaluating it raises a DdliteError, p's own model, or
    p's error."""
    rewritten = magic_program(p, goal)
    if rewritten is not None:
        try:
            return evaluate(rewritten, opts)
        except DdliteError:
            # such as a limit that the demand facts, or the passes that
            # carry demand back before answers come forward, go past:
            # the original program decides
            pass
    return evaluate(p, opts)


def magic_program(p: Program, goal: Atom) -> Optional[Program]:
    """p rewritten for the ground arguments of goal, or None where the
    rewrite adds no guard: goal binds no argument, has a module prefix,
    or its predicate ends with no bound position or has no rule that
    reads a relation."""
    if goal.module_prefix is not None:
        return None
    bound = frozenset(i for i, a in enumerate(goal.args) if is_ground(a))
    if not bound:
        return None
    rules_of: dict[PredKey, list[Rule]] = {}
    for rule in p.rules:
        rules_of.setdefault(rule.head.key, []).append(rule)
    reached = _closure([goal.key], rules_of)
    full = _closure(
        (
            lit.atom.key
            for key in reached
            for rule in rules_of.get(key, ())
            for lit in rule.body
            if lit.is_negated() and lit.reads_relation()
        ),
        rules_of,
    )
    positions = _bound_positions(goal.key, bound, rules_of, full)
    pred_names = {key.name for key in p.pred_keys()}
    demand = {
        key: _fresh(f"m_{key.name}", pred_names)
        for key, at in positions.items()
        if at and any(map(_reads_relation, rules_of.get(key, ())))
    }
    if goal.key not in demand:
        return None

    def demand_atom(atom: Atom) -> Atom:
        at = sorted(positions[atom.key])
        return Atom(demand[atom.key], tuple(atom.args[i] for i in at))

    rule_names = {rule.name for rule in p.rules}
    out = [Rule(_fresh("m_goal", rule_names), demand_atom(goal))]
    for rule in p.rules:
        key = rule.head.key
        if key not in reached:
            continue
        if key in full:
            out.append(rule)
            continue
        guard: tuple[Literal, ...] = ()
        if key in demand and _reads_relation(rule):
            guard = (Literal(demand_atom(rule.head)),)
        for j, _ in _calls(rule, positions[key]):
            call = rule.body[j].atom
            if call.key in demand:
                before = tuple(lit for lit in rule.body[:j] if _binds(lit))
                name = _fresh(f"m_{rule.name}", rule_names)
                out.append(Rule(name, demand_atom(call), guard + before, rule.span))
        if guard:
            rule = Rule(rule.name, rule.head, guard + rule.body, rule.span)
        out.append(rule)
    return Program(tuple(out))


def _binds(lit: Literal) -> bool:
    """True for a positive relation literal: the only kind of body item
    taken to bind variables for the calls after it."""
    return not lit.is_negated() and lit.reads_relation()


def _reads_relation(rule: Rule) -> bool:
    return any(lit.reads_relation() for lit in rule.body)


def _closure(keys: Iterable[PredKey], rules_of: dict) -> set[PredKey]:
    """keys and every predicate a rule of one of them reads, negated or
    not, and so on."""
    seen: set[PredKey] = set()
    todo = list(keys)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            for rule in rules_of.get(key, ()):
                todo.extend(lit.atom.key for lit in rule.body if lit.reads_relation())
    return seen


def _calls(rule: Rule, bound: frozenset[int]) -> Iterator[tuple[int, frozenset[int]]]:
    """(body position, bound argument positions) of each positive
    relation literal of rule, in written order, for a call of the head
    with the positions in bound bound.  A bound argument is a ground term
    or a bound variable, never an open compound such as f(X): so a demand
    fact holds only terms the program, the goal or stored facts hold, and
    demand stays finite wherever the model is, as in p(X) :- p(f(X))."""
    ground: set[str] = set()
    for i in bound:
        ground |= term_vars(rule.head.args[i])
    for j, lit in enumerate(rule.body):
        if _binds(lit):
            args = lit.atom.args
            yield j, frozenset(
                i for i, a in enumerate(args)
                if is_ground(a) or a.__class__ is Var and a.name in ground
            )
            ground |= term_vars(lit.atom)


def _bound_positions(
    goal: PredKey, bound: frozenset[int], rules_of: dict, full: set[PredKey]
) -> dict[PredKey, frozenset[int]]:
    """Each predicate the goal reaches, but those in full, with the
    argument positions bound in every call of it."""
    positions = {goal: bound}
    todo = [goal]
    while todo:
        key = todo.pop()
        for rule in rules_of.get(key, ()):
            for j, at in _calls(rule, positions[key]):
                call = rule.body[j].atom.key
                if call in full:
                    continue
                old = positions.get(call)
                new = at if old is None else old & at
                if new != old:
                    positions[call] = new
                    todo.append(call)
    return positions


def _fresh(base: str, taken: set[str]) -> str:
    """base, or base with the first number that makes it a name not in
    taken; the name is added to taken."""
    name, k = base, 0
    while name in taken:
        k += 1
        name = f"{base}{k}"
    taken.add(name)
    return name
