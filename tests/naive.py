"""Naive bottom-up evaluation, the reference the semi-naive engine is
checked against.

Unlike oracles.py this shares the engine's body solver (through
_rule_heads): it differs from evaluate only in re-running every rule
against the whole store on every pass, so a disagreement points at the
semi-naive bookkeeping rather than at joins or builtins.
"""

from __future__ import annotations

from typing import Optional

from ddlite.engine import (
    EvalOptions,
    FactStore,
    _rule_heads,
    check_safety,
    stratify,
)
from ddlite.errors import ResourceLimitExceeded, SafetyError
from ddlite.kernel import Atom, Program, Rule, rename_apart, sort_key


def tp_step(p: Program, store: FactStore) -> set[Atom]:
    """One immediate-consequence pass: every rule against the full store.

    Returns the derived atoms not yet stored; the store is not modified.
    """
    new: set[Atom] = set()
    for rule in p.rules:
        fresh = rename_apart(rule, "_t") if rule.body else rule
        for head in _rule_heads(fresh, store):
            if not store.has(head):
                new.add(head)
    return new


def evaluate_naive(p: Program, opts: Optional[EvalOptions] = None) -> FactStore:
    """Plain naive iteration of tp_step to the fixpoint, stratum by
    stratum; reference semantics for the semi-naive engine."""
    opts = opts or EvalOptions()
    violations = check_safety(p)
    if violations:
        raise SafetyError(violations)
    strata = stratify(p)
    by_stratum: dict[int, list[Rule]] = {}
    for rule in p.rules:
        by_stratum.setdefault(strata.of(rule.head.key), []).append(rule)
    store = FactStore()
    for stratum in range(strata.max_stratum + 1):
        rules = by_stratum.get(stratum, [])
        if not rules:
            continue
        sub = Program(tuple(rules))
        iteration = 0
        while True:
            iteration += 1
            if iteration > opts.max_iterations:
                raise ResourceLimitExceeded(
                    f"iteration limit {opts.max_iterations} exceeded "
                    f"in stratum {stratum}",
                    stratum=stratum,
                )
            new = tp_step(sub, store)
            if not new:
                break
            for head in sorted(new, key=sort_key):
                store.add(head)
            if len(store) > opts.max_facts:
                raise ResourceLimitExceeded(
                    f"fact limit {opts.max_facts} exceeded in stratum {stratum}",
                    stratum=stratum,
                    delta_sample=sorted(new, key=sort_key)[:5],
                )
    return store.freeze()
