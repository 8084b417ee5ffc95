"""Command-line interface.

Subcommands: parse | graph | diff | eval | swrl | query | prove.
Exit codes: 0 success (a nonempty diff is still success), 1 domain errors
(syntax, safety, stratification, evaluation), 2 I/O and usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .engine import (
    EvalOptions,
    auto_pt,
    check_operators,
    check_safety,
    dump_facts,
    evaluate,
    facts_as_rules,
    facts_to_json,
    proof_tree,
    render_proof_tree,
    stratify,
    tree_of,
)
from .errors import CycleError, DdliteError
from .graphs import (
    DEFAULT_META,
    DepGraph,
    build_pdg,
    build_rpg,
    diff_to_json,
    equivalent_modulo_helpers,
    graph_diff,
    graph_to_json,
    schema_graph,
    to_dot,
)
from .hybrid import (
    ddbase_aggregate,
    load_facts_csv,
    load_xml,
    parse_goal,
    parse_template,
    render_rows,
    rows_to_json,
)
from .kernel import PredKey, Program, match
from .syntax import (
    lloyd_topor,
    parse_atom,
    parse_program,
    parse_ruleml_xml,
    parse_swrl,
    print_program,
    swrl_to_datalog,
)

_ENV_MAX_FACTS = "DDLITE_MAX_FACTS"
_LIMITS = EvalOptions()  # the default limits


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_program(args) -> Program:
    if getattr(args, "file", None):
        p = parse_program(_read(args.file), args.file)
    else:
        p = Program(())
    rules = list(p.rules)
    taken = {r.name for r in rules}
    for spec in getattr(args, "csv", None) or []:
        pred, _, path = spec.partition("=")
        if not path:
            raise DdliteError(f"--csv expects pred=path, got {spec!r}")
        facts = load_facts_csv(path, pred)
        new = facts_as_rules(facts, taken)
        taken |= {r.name for r in new}
        rules.extend(new)
    p = Program(tuple(rules))
    if getattr(args, "auto_pt", False):
        p = auto_pt(p)
    return p


def _load_docs(args) -> dict:
    docs = {}
    for spec in getattr(args, "xml", None) or []:
        name, _, path = spec.partition("=")
        if not path:
            raise DdliteError(f"--xml expects name=path, got {spec!r}")
        docs[name] = load_xml(path)
    return docs


def _pred_key(entry: str) -> Optional[PredKey]:
    """The predicate a `name/arity` entry names, or None for another form."""
    name, _, arity = entry.rpartition("/")
    if name and arity.isdecimal():
        return PredKey(None, name, int(arity))
    return None


def _meta_dict(spec: Optional[str]) -> dict:
    """--meta-list name/arity,...: extra call-node predicates (inner goals
    are read from every argument position)."""
    meta = dict(DEFAULT_META)
    if not spec:
        return meta
    for entry in spec.split(","):
        entry = entry.strip()
        key = _pred_key(entry)
        if key is None:
            raise DdliteError(f"--meta-list expects name/arity, got {entry!r}")
        # a range, not a tuple: the arity is user input and may be huge
        meta[key] = range(key.arity)
    return meta


def _eval_options(args) -> EvalOptions:
    return EvalOptions(
        max_iterations=args.max_iterations, max_facts=args.max_facts
    )


def _add_eval_flags(sub, env_default: int):
    sub.add_argument("--csv", action="append", metavar="PRED=PATH",
                     help="load CSV rows as facts of PRED")
    sub.add_argument("--xml", action="append", metavar="NAME=PATH",
                     help="register an XML document under NAME")
    sub.add_argument("--max-iterations", default=_LIMITS.max_iterations,
                     type=lambda raw: _non_negative_int("--max-iterations", raw))
    sub.add_argument("--max-facts", default=env_default,
                     type=lambda raw: _non_negative_int("--max-facts", raw))
    sub.add_argument("--auto-pt", action="store_true",
                     help="add proof-tree arguments to every defined predicate")


# ---------------------------------------------------------------- commands


def cmd_parse(args) -> int:
    p = parse_program(_read(args.file), args.file)
    check_operators(p)
    sys.stdout.write(print_program(p))
    violations = check_safety(p)
    if violations:
        for v in violations:
            print(f"unsafe: {v}")
        return 1
    try:
        stratify(p)
    except CycleError as err:
        print(f"not stratified: {err}")
        return 1
    print("safe, stratified")
    return 0


def _build_graph(args, path: str) -> DepGraph:
    if args.kind == "schema":
        return schema_graph(load_xml(path), include_attrs=not args.no_attrs)
    p = parse_program(_read(path), path)
    check_operators(p)
    meta = _meta_dict(args.meta_list)
    return build_pdg(p, meta) if args.kind == "pdg" else build_rpg(p, meta)


def _graph_text(g: DepGraph) -> str:
    data = graph_to_json(g)
    lines = [f"{data['kind']} graph: {len(data['nodes'])} nodes, "
             f"{len(data['edges'])} edges"]
    for n in data["nodes"]:
        lines.append(f"  node {n['id']} ({n['type']})")
    for e in data["edges"]:
        mark = " [not]" if e["mark"] == "not" else ""
        lines.append(f"  edge {e['from']} -> {e['to']}{mark}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    g = _build_graph(args, args.file)
    if args.format == "dot":
        sys.stdout.write(to_dot(g))
    elif args.format == "json":
        print(json.dumps(graph_to_json(g), indent=2))
    else:
        sys.stdout.write(_graph_text(g))
    return 0


def _resolve_helpers(spec: Optional[str], programs: list[Program]) -> frozenset:
    if not spec:
        return frozenset()
    keys = set()
    for p in programs:
        keys |= set(p.pred_keys())
    out = set()
    for entry in spec.split(","):
        entry = entry.strip()
        key = _pred_key(entry)
        if key is None:
            matched = {k for k in keys if k.name == entry and k.module is None}
            out |= matched or {PredKey(None, entry, 0)}
        else:
            out.add(key)
    return frozenset(out)


def cmd_diff(args) -> int:
    if args.kind == "schema":
        g1 = schema_graph(load_xml(args.left), include_attrs=not args.no_attrs)
        g2 = schema_graph(load_xml(args.right), include_attrs=not args.no_attrs)
        helpers = frozenset()
        equivalent = None
    else:
        p1 = parse_program(_read(args.left), args.left)
        p2 = parse_program(_read(args.right), args.right)
        check_operators(p1)
        check_operators(p2)
        meta = _meta_dict(args.meta_list)
        build = build_pdg if args.kind == "pdg" else build_rpg
        g1, g2 = build(p1, meta), build(p2, meta)
        helpers = _resolve_helpers(args.helpers, [p1, p2])
        equivalent = None
        if helpers:
            root_name = args.root
            if root_name is None:
                if not p1.rules:
                    raise DdliteError("--helpers needs a --root on an empty program")
                root = p1.rules[0].head.key
            else:
                root = _pred_key(root_name)
                if root is None:
                    candidates = sorted(
                        k for k in p1.pred_keys() if k.name == root_name
                    )
                    if not candidates:
                        raise DdliteError(f"--root {root_name!r} not in left program")
                    root = candidates[0]
            equivalent = equivalent_modulo_helpers(p1, p2, root, helpers)
    report = graph_diff(g1, g2, helpers)
    if args.format == "json":
        data = diff_to_json(report)
        data["equivalent_modulo_helpers"] = equivalent
        print(json.dumps(data, indent=2))
        return 0
    if report.is_empty():
        print("no differences")
    else:
        for label, nodes, edges in (
            ("left", report.nodes_only_left, report.edges_only_left),
            ("right", report.nodes_only_right, report.edges_only_right),
        ):
            for n in nodes:
                print(f"only in {label}: node {n.id}")
            for e in edges:
                mark = " [not]" if e.mark == "not" else ""
                print(f"only in {label}: edge {e.src.id} -> {e.dst.id}{mark}")
    if equivalent is not None:
        print(f"equivalent modulo helpers: {'true' if equivalent else 'false'}")
    return 0


def cmd_eval(args) -> int:
    p = _load_program(args)
    store = evaluate(p, _eval_options(args))
    if args.format == "json":
        print(json.dumps(facts_to_json(store), indent=2))
    else:
        sys.stdout.write(dump_facts(store))
    return 0


def cmd_swrl(args) -> int:
    text = _read(args.file)
    if args.file.endswith(".xml") or text.lstrip().startswith("<"):
        rules = parse_ruleml_xml(text, args.file).rules
    else:
        rules = parse_swrl(text, args.file)
    split = [r for rule in rules for r in lloyd_topor(rule)]
    program = swrl_to_datalog(split)
    if args.emit == "datalog":
        sys.stdout.write(print_program(program))
        return 0
    violations = check_safety(program)
    if violations:
        for v in violations:
            print(f"unsafe: {v}")
        return 1
    print(f"ok: {len(program.rules)} rules, safe")
    return 0


def cmd_query(args) -> int:
    p = _load_program(args)
    store = evaluate(p, _eval_options(args))
    docs = _load_docs(args)
    goal = parse_goal(args.goal)
    template = parse_template(args.template)
    rows = ddbase_aggregate(template, goal, p, store, docs, args.base_dir)
    if args.format == "json":
        print(json.dumps(rows_to_json(rows)))
    else:
        print(render_rows(rows))
    return 0


def cmd_prove(args) -> int:
    p = _load_program(args)
    store = evaluate(p, _eval_options(args))
    query = parse_atom(args.atom)
    # the first fact of the probed bucket, in sort_key order, that matches
    found = next(
        (
            fact
            for fact in store.sorted_candidates(query, {})
            if match(query.args, fact.args, {}) is not None
        ),
        None,
    )
    if found is None:
        print("no proof")
        return 1
    tree = tree_of(found)
    if tree is None:
        tree = proof_tree(found, store.origin(found) or "fact")
    sys.stdout.write(render_proof_tree(tree, args.format))
    if args.format == "term":
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- driver


def build_parser(env_max_facts: int) -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ddlite",
        description="Deductive-database toolkit: rule programs, dependency "
        "graphs, bottom-up evaluation with proof trees, SWRL import, and "
        "hybrid XML/CSV queries.",
    )
    subs = top.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("parse", help="parse a program and report safety")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_parse)

    sp = subs.add_parser("graph", help="emit a dependency graph")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("pdg", "rpg", "schema"), default="pdg")
    sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
    sp.add_argument("--no-attrs", action="store_true",
                    help="schema graphs: skip @attribute leaves")
    sp.add_argument("--meta-list", metavar="NAME/ARITY,...",
                    help="extra meta-predicates that get call nodes")
    sp.set_defaults(func=cmd_graph)

    sp = subs.add_parser("diff", help="compare two graphs")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--kind", choices=("pdg", "rpg", "schema"), default="pdg")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--helpers", metavar="NAME[,NAME...]",
                    help="predicates factored out of the comparison")
    sp.add_argument("--root", metavar="PRED",
                    help="start predicate for helper-equivalence "
                    "(default: first rule head of LEFT)")
    sp.add_argument("--no-attrs", action="store_true")
    sp.add_argument("--meta-list", metavar="NAME/ARITY,...")
    sp.set_defaults(func=cmd_diff)

    sp = subs.add_parser("eval", help="bottom-up evaluation to a fact dump")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    _add_eval_flags(sp, env_max_facts)
    sp.set_defaults(func=cmd_eval)

    sp = subs.add_parser("swrl", help="translate a SWRL rule base")
    sp.add_argument("file")
    sp.add_argument("--emit", choices=("datalog", "report"), default="datalog")
    sp.set_defaults(func=cmd_swrl)

    sp = subs.add_parser("query", help="aggregate a hybrid goal")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--goal", required=True)
    sp.add_argument("--template", required=True)
    sp.add_argument("--base-dir", default=".",
                    help="directory for doc('...') lookups")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    _add_eval_flags(sp, env_max_facts)
    sp.set_defaults(func=cmd_query)

    sp = subs.add_parser("prove", help="render the proof tree of a derived atom")
    sp.add_argument("file")
    sp.add_argument("--atom", required=True)
    sp.add_argument("--format", choices=("term", "ascii", "dot"), default="term")
    _add_eval_flags(sp, env_max_facts)
    sp.set_defaults(func=cmd_prove)

    return top


def _non_negative_int(name: str, raw: str) -> int:
    """A limit read from a flag or the environment; name is its source."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise DdliteError(f"{name} must be a non-negative integer, got {raw!r}")
    return value


def _env_max_facts() -> int:
    raw = os.environ.get(_ENV_MAX_FACTS)
    if raw is None:
        return _LIMITS.max_facts
    return _non_negative_int(_ENV_MAX_FACTS, raw)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser(_env_max_facts()).parse_args(argv)
        return args.func(args)
    except DdliteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
