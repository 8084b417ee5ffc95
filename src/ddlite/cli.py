"""Command-line interface.

Subcommands: parse | graph | diff | eval | swrl | query | prove.
Exit codes: 0 success (a nonempty diff is still success), 1 domain errors
(syntax, safety, stratification, evaluation), 2 I/O and usage errors.

A command loads and builds only what it runs; importing this module
loads the kernel and the readers (ddlite.syntax) alone.  The engine
(ddlite.engine, which loads ddlite.graphs) is imported by the commands
that check or evaluate a program: parse, graph and diff of rule text,
eval, query, prove and swrl --emit report.  The graphs are imported by
graph and diff, json by the --format json branches, the hybrid layer
(with csv and the XML reader) by --csv, query and schema graphs,
the XML reader (ddlite.xmlterm) by RuleML input too, and the magic-set
rewrite (ddlite.magic) by prove.  So swrl, translating SWRL to rule
text, runs on the kernel and the readers alone.

Arguments are read from COMMAND_TABLE without argparse when they are in
the plain form (_read_args); argparse is imported, and the parser of all
seven commands built by build_parser, only for help, an abbreviated or
unknown flag, --flag=value, -- or a usage error.  main(argv) runs one
command and returns its exit code; run() is the process entry (`ddlite`,
`python -m ddlite.cli`), which runs it with the cyclic collector off
(gc.disable), flushes stdout and stderr, and ends the process with
os._exit: no collection walks, and no teardown frees, objects the
process is about to drop.  atexit handlers do not run; ddlite registers
none.  Output goes through print, which writes nothing where Python
opened no stdout (its fd was closed at start-up), so main's status
stands.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import CycleError, DdliteError
from .kernel import PredKey, Program, check_calls, match, read_text
from .syntax import (
    lloyd_topor,
    parse_atom,
    parse_program,
    parse_ruleml_xml,
    parse_swrl,
    print_program,
    swrl_to_datalog,
)

TYPE_CHECKING = False  # each command imports the engine and graphs it runs
if TYPE_CHECKING:
    from .engine import EvalOptions
    from .graphs import DepGraph

_ENV_MAX_FACTS = "DDLITE_MAX_FACTS"


def _parse_checked(path: str) -> Program:
    """The program in the file, its builtin calls checked (check_calls)."""
    p = parse_program(read_text(path), path)
    check_calls(p)
    return p


def _load_program(args) -> Program:
    if getattr(args, "file", None):
        p = parse_program(read_text(args.file), args.file)
    else:
        p = Program(())
    rules = list(p.rules)
    taken = {r.name for r in rules}
    for spec in getattr(args, "csv", None) or []:
        pred, _, path = spec.partition("=")
        if not path:
            raise DdliteError(f"--csv expects pred=path, got {spec!r}")
        from .engine import facts_as_rules
        from .hybrid import load_facts_csv

        facts = load_facts_csv(path, pred)
        new = facts_as_rules(facts, taken)
        taken |= {r.name for r in new}
        rules.extend(new)
    p = Program(tuple(rules))
    if getattr(args, "auto_pt", False):
        from .engine import auto_pt

        p = auto_pt(p)
    return p


def _load_docs(args) -> dict:
    docs = {}
    for spec in args.xml or []:
        name, _, path = spec.partition("=")
        if not path:
            raise DdliteError(f"--xml expects name=path, got {spec!r}")
        from .hybrid import load_xml

        docs[name] = load_xml(path)
    return docs


def _pred_key(entry: str) -> PredKey | None:
    """The predicate a `name/arity` entry names, or None for another form."""
    name, _, arity = entry.rpartition("/")
    if name and arity.isdecimal():
        return PredKey(None, name, int(arity))
    return None


def _meta_dict(spec: str | None) -> dict:
    """--meta-list name/arity,...: extra call-node predicates (inner goals
    are read from every argument position)."""
    from .graphs import DEFAULT_META

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
    """The limits of eval, query and prove: --max-iterations, else the
    default; --max-facts, else the environment's DDLITE_MAX_FACTS, read
    here and only by these three commands, else the default.  The
    defaults are EvalOptions's own."""
    from .engine import EvalOptions

    limits = EvalOptions()
    max_facts = args.max_facts
    if max_facts is None:
        raw = os.environ.get(_ENV_MAX_FACTS)
        if raw is None:
            max_facts = limits.max_facts
        else:
            max_facts = _non_negative_int(_ENV_MAX_FACTS, raw)
    max_iterations = args.max_iterations
    if max_iterations is None:
        max_iterations = limits.max_iterations
    return EvalOptions(max_iterations=max_iterations, max_facts=max_facts)


# ---------------------------------------------------------------- commands


def cmd_parse(args) -> int:
    from .engine import check_safety, stratify

    p = _parse_checked(args.file)
    print(print_program(p), end="")
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
    from .graphs import build_pdg, build_rpg, schema_graph

    if args.kind == "schema":
        from .hybrid import load_xml

        return schema_graph(load_xml(path), include_attrs=not args.no_attrs)
    p = _parse_checked(path)
    meta = _meta_dict(args.meta_list)
    return build_pdg(p, meta) if args.kind == "pdg" else build_rpg(p, meta)


def _graph_text(g: DepGraph) -> str:
    from .graphs import graph_to_json

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
    from .graphs import graph_to_json, to_dot

    g = _build_graph(args, args.file)
    if args.format == "dot":
        print(to_dot(g), end="")
    elif args.format == "json":
        import json

        print(json.dumps(graph_to_json(g), indent=2))
    else:
        print(_graph_text(g), end="")
    return 0


def _resolve_helpers(spec: str | None, programs: list[Program]) -> frozenset:
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
    from .graphs import (
        build_pdg,
        build_rpg,
        diff_to_json,
        equivalent_modulo_helpers,
        graph_diff,
    )

    if args.kind == "schema":
        g1, g2 = _build_graph(args, args.left), _build_graph(args, args.right)
        helpers = frozenset()
        equivalent = None
    else:
        p1, p2 = _parse_checked(args.left), _parse_checked(args.right)
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
        import json

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
    from .engine import dump_facts, evaluate, facts_to_json

    opts = _eval_options(args)
    p = _load_program(args)
    store = evaluate(p, opts)
    if args.format == "json":
        import json

        print(json.dumps(facts_to_json(store), indent=2))
    else:
        print(dump_facts(store), end="")
    return 0


def cmd_swrl(args) -> int:
    text = read_text(args.file)
    if args.file.endswith(".xml") or text.lstrip().startswith("<"):
        rules = parse_ruleml_xml(text, args.file).rules
    else:
        rules = parse_swrl(text, args.file)
    split = [r for rule in rules for r in lloyd_topor(rule)]
    program = swrl_to_datalog(split)
    if args.emit == "datalog":
        print(print_program(program), end="")
        return 0
    from .engine import check_safety

    check_calls(program)
    violations = check_safety(program)
    if violations:
        for v in violations:
            print(f"unsafe: {v}")
        return 1
    print(f"ok: {len(program.rules)} rules, safe")
    return 0


def cmd_query(args) -> int:
    from .hybrid import (
        ddbase_aggregate,
        parse_goal,
        parse_template,
        render_rows,
        rows_to_json,
    )
    from .engine import evaluate

    opts = _eval_options(args)
    p = _load_program(args)
    store = evaluate(p, opts)
    docs = _load_docs(args)
    goal = parse_goal(args.goal)
    template = parse_template(args.template)
    rows = ddbase_aggregate(template, goal, p, store, docs, args.base_dir)
    if args.format == "json":
        import json

        print(json.dumps(rows_to_json(rows)))
    else:
        print(render_rows(rows))
    return 0


def cmd_prove(args) -> int:
    from .engine import (
        check_program,
        deriving_rule,
        probe_positions,
        proof_tree,
        render_proof_tree,
        tree_of,
    )
    from .magic import evaluate_goal

    opts = _eval_options(args)
    p = _load_program(args)
    check_program(p)  # its errors come before those of --atom
    query = parse_atom(args.atom)
    # the facts matching query are those of p's model, the rest may not be
    store = evaluate_goal(p, query, opts)
    # the first fact of the probed bucket, in sort_key order, that matches
    positions = probe_positions(query.args, ())
    found = next(
        (
            fact
            for fact in store.sorted_candidates(query, {}, positions)
            if match(query.args, fact.args, {}) is not None
        ),
        None,
    )
    if found is None:
        print("no proof")
        return 1
    tree = tree_of(found)
    if tree is None:
        tree = proof_tree(found, deriving_rule(p, store, found) or "fact")
    # the term form is one line, ended here; the others end in a newline
    print(render_proof_tree(tree, args.format), end="\n" if args.format == "term" else "")
    return 0


# ---------------------------------------------------------------- driver


_CSV_FLAG = ("--csv", dict(action="append", metavar="PRED=PATH",
                           help="load CSV rows as facts of PRED"))
_EVAL_FLAGS = (
    ("--max-iterations", dict(
        type=lambda raw: _non_negative_int("--max-iterations", raw))),
    ("--max-facts", dict(type=lambda raw: _non_negative_int("--max-facts", raw))),
    ("--auto-pt", dict(action="store_true",
                       help="add proof-tree arguments to every defined predicate")),
)
_KINDS = ("pdg", "rpg", "schema")

# Each command's help line, function and arguments, in the order its help
# lists them.  An argument is a --flag, or else a positional's dest, with
# the keywords of argparse's add_argument; build_parser and _read_args
# both read them from here.
COMMAND_TABLE = {
    "parse": ("parse a program and report safety", cmd_parse, (("file", {}),)),
    "graph": ("emit a dependency graph", cmd_graph, (
        ("file", {}),
        ("--kind", dict(choices=_KINDS, default="pdg")),
        ("--format", dict(choices=("text", "json", "dot"), default="text")),
        ("--no-attrs", dict(action="store_true",
                            help="schema graphs: skip @attribute leaves")),
        ("--meta-list", dict(metavar="NAME/ARITY,...",
                             help="extra meta-predicates that get call nodes")),
    )),
    "diff": ("compare two graphs", cmd_diff, (
        ("left", {}),
        ("right", {}),
        ("--kind", dict(choices=_KINDS, default="pdg")),
        ("--format", dict(choices=("text", "json"), default="text")),
        ("--helpers", dict(metavar="NAME[,NAME...]",
                           help="predicates factored out of the comparison")),
        ("--root", dict(metavar="PRED", help="start predicate for helper-equivalence "
                        "(default: first rule head of LEFT)")),
        ("--no-attrs", dict(action="store_true")),
        ("--meta-list", dict(metavar="NAME/ARITY,...")),
    )),
    "eval": ("bottom-up evaluation to a fact dump", cmd_eval, (
        ("file", {}),
        ("--format", dict(choices=("text", "json"), default="text")),
        _CSV_FLAG,
        *_EVAL_FLAGS,
    )),
    "swrl": ("translate a SWRL rule base", cmd_swrl, (
        ("file", {}),
        ("--emit", dict(choices=("datalog", "report"), default="datalog")),
    )),
    "query": ("aggregate a hybrid goal", cmd_query, (
        ("file", dict(nargs="?", default=None)),
        ("--goal", dict(required=True)),
        ("--template", dict(required=True)),
        ("--base-dir", dict(default=".", help="directory for doc('...') lookups")),
        ("--format", dict(choices=("text", "json"), default="text")),
        _CSV_FLAG,
        ("--xml", dict(action="append", metavar="NAME=PATH",
                       help="register an XML document under NAME")),
        *_EVAL_FLAGS,
    )),
    "prove": ("render the proof tree of a derived atom", cmd_prove, (
        ("file", {}),
        ("--atom", dict(required=True)),
        ("--format", dict(choices=("term", "ascii", "dot"), default="term")),
        _CSV_FLAG,
        *_EVAL_FLAGS,
    )),
}
COMMANDS = tuple(COMMAND_TABLE)


def build_parser():
    """The argparse parser of the command line, with a subparser for each
    command in COMMANDS."""
    import argparse

    top = argparse.ArgumentParser(
        prog="ddlite",
        description="Deductive-database toolkit: rule programs, dependency "
        "graphs, bottom-up evaluation with proof trees, SWRL import, and "
        "hybrid XML/CSV queries.",
    )
    subs = top.add_subparsers(dest="command", required=True)
    for name, (help_line, func, arguments) in COMMAND_TABLE.items():
        sp = subs.add_parser(name, help=help_line)
        for arg, keywords in arguments:
            sp.add_argument(arg, **keywords)
        sp.set_defaults(func=func)
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


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives, read
    without argparse when argv has the one form read here: the command
    first, then flags spelled out in full, each value a word of its own
    that does not start with '-', every choice met, every required flag
    and positional given.  Type functions run in argv order, as argparse
    runs them.  None for any other argv (help, an abbreviation,
    --flag=value, --, an unknown flag, a usage error), which argparse
    then reads."""
    spec = COMMAND_TABLE.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, func, arguments = spec
    values: dict = {"command": argv[0]}
    flags, positionals = {}, []
    for arg, keywords in arguments:
        if arg.startswith("--"):
            dest = arg[2:].replace("-", "_")
            flags[arg] = dest, keywords
            store_true = keywords.get("action") == "store_true"
            values[dest] = False if store_true else keywords.get("default")
        else:
            positionals.append((arg, keywords))
            values[arg] = keywords.get("default")
    words, seen = [], set()
    i = 1
    while i < len(argv):
        word = argv[i]
        i += 1
        if not word.startswith("-"):
            words.append(word)
            continue
        if word not in flags:
            return None
        seen.add(word)
        dest, keywords = flags[word]
        action = keywords.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        if i == len(argv) or argv[i].startswith("-"):
            return None
        value = argv[i]
        i += 1
        if "type" in keywords:
            value = keywords["type"](value)
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    # a positional with nargs="?" comes last, so words fill them in order
    if len(words) > len(positionals) or any(
        keywords.get("nargs") != "?" for _, keywords in positionals[len(words):]
    ):
        return None
    if any(keywords.get("required") and arg not in seen for arg, keywords in arguments):
        return None
    values.update(zip((arg for arg, _ in positionals), words))
    values["func"] = func
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_args(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except DdliteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry: main() on sys.argv, then exit with its code.

    The cyclic collector is off while main runs (gc.disable): a command
    builds a heap that grows with its input and holds no cycle worth
    finding, so each collection would walk it for nothing.  Then run()
    flushes stdout and stderr itself (each that Python opened at all),
    reporting a failed flush as main
    reports an OSError (`error: ...`, exit 2), and ends the process with
    os._exit: neither module teardown nor the collections of interpreter
    finalization run, and atexit handlers are skipped (ddlite registers
    none).  main(argv) leaves the collector as it is and returns, for a
    caller that goes on running."""
    gc.disable()
    try:
        status = main()
    except SystemExit as exc:  # argparse's help and usage errors
        status = exc.code
    if sys.stdout is not None:  # None where the fd was closed at start-up
        try:
            sys.stdout.flush()
        except OSError as err:
            if sys.stderr is not None:
                print(f"error: {err}", file=sys.stderr)
            status = 2
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            status = 2
    os._exit(status)


if __name__ == "__main__":
    run()
