"""Traced replay of one ddlite command, run as a child process.

    python traced.py REPLAY PARAMS_JSON SPANS_FILE OP_ID

The replay imports ddlite and calls the same public functions, in the
same order, as the matching `ddlite` subcommand does, each inside a
span.  Its stdout is the command's stdout, so it goes through the same
oracle.  Spans stay in memory and are written to SPANS_FILE as JSON when
the replay ends.  Nothing inside ddlite is patched.  Each replay returns
its stdout and a callable that runs its probes, or None.

Spans marked "probe" run after the root span: they repeat one call by
itself to split the time of a call that does that work inside it
(evaluate runs check_safety and stratify first; ddbase_aggregate runs
solve_goal first).  They are not part of the op.
"""

import importlib
import json
import sys
import time


class Tracer:
    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        sid = len(self.spans)
        span = {"id": sid, "name": name, "op": self.op, "probe": probe,
                "parent": self.stack[-1] if self.stack else None}
        self.spans.append(span)
        self.stack.append(sid)
        span["start"] = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic_ns()
            self.stack.pop()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _engine_probes(tr: Tracer, engine, program) -> None:
    tr.call("engine.check_safety", engine.check_safety, program, probe=True)
    strata = tr.call("engine.stratify", engine.stratify, program, probe=True)
    tr.counts["engine.strata"] = strata.max_stratum + 1


def replay_eval(tr: Tracer, params: dict) -> tuple:
    engine = importlib.import_module("ddlite.engine")
    syntax = importlib.import_module("ddlite.syntax")
    text = _read(params["file"])
    program = tr.call("syntax.parse_program", syntax.parse_program, text, params["file"])
    store = tr.call("engine.evaluate", engine.evaluate, program, engine.EvalOptions())
    out = tr.call("engine.dump_facts", engine.dump_facts, store)
    tr.counts["engine.facts"] = len(store)
    tr.counts["engine.out_bytes"] = len(out.encode())
    return out, lambda: _engine_probes(tr, engine, program)


def replay_query(tr: Tracer, params: dict) -> tuple:
    engine = importlib.import_module("ddlite.engine")
    hybrid = importlib.import_module("ddlite.hybrid")
    kernel = importlib.import_module("ddlite.kernel")
    rules = []
    taken: set = set()
    for pred, path in params["csv"].items():
        facts = tr.call("hybrid.load_facts_csv", hybrid.load_facts_csv, path, pred)
        new = tr.call("engine.facts_as_rules", engine.facts_as_rules, facts, taken)
        taken |= {r.name for r in new}
        rules.extend(new)
    program = kernel.Program(tuple(rules))
    store = tr.call("engine.evaluate", engine.evaluate, program, engine.EvalOptions())
    goal = tr.call("hybrid.parse_goal", hybrid.parse_goal, params["goal"])
    template = tr.call("hybrid.parse_template", hybrid.parse_template, params["template"])
    # the command loads doc('...') lazily inside solve_goal; loading it
    # here first, as --xml does, gives the parse its own span
    doc_path = f"{params['base_dir']}/{params['doc']}"
    docs = {params["doc"]: tr.call("xmlterm.parse_xml", hybrid.load_xml, doc_path)}
    rows = tr.call("hybrid.ddbase_aggregate", hybrid.ddbase_aggregate,
                   template, goal, program, store, docs, params["base_dir"])
    out = tr.call("hybrid.render_rows", hybrid.render_rows, rows) + "\n"
    tr.counts["engine.facts"] = len(store)
    tr.counts["hybrid.groups"] = len(rows)

    def probes():
        _engine_probes(tr, engine, program)
        answers = tr.call("hybrid.solve_goal", hybrid.solve_goal, goal, program,
                          store, docs, params["base_dir"], probe=True)
        tr.counts["hybrid.answers"] = len(answers)

    return out, probes


def replay_prove(tr: Tracer, params: dict) -> tuple:
    engine = importlib.import_module("ddlite.engine")
    kernel = importlib.import_module("ddlite.kernel")
    syntax = importlib.import_module("ddlite.syntax")
    text = _read(params["file"])
    program = tr.call("syntax.parse_program", syntax.parse_program, text, params["file"])
    program = tr.call("engine.auto_pt", engine.auto_pt, program)
    store = tr.call("engine.evaluate", engine.evaluate, program, engine.EvalOptions())

    def first_match():
        parser = syntax.TermParser(syntax.tokenize(params["atom"], "<atom>"), "<atom>")
        parser.begin_clause()
        query = parser.goal_atom()
        for fact in store.facts(query.key):
            if kernel.mgu(query, fact) is not None:
                return fact
        return None

    match = tr.call("cli.first_match", first_match)
    if match is None:
        out = "no proof\n"
    else:
        tree = tr.call("engine.tree_of", engine.tree_of, match)
        if tree is None:
            tree = engine.ProofTree(match, store.origin(match) or "fact")
        out = tr.call("engine.render_proof_tree", engine.render_proof_tree,
                      tree, params["format"])
    tr.counts["engine.facts"] = len(store)
    tr.counts["engine.out_bytes"] = len(out.encode())
    return out, lambda: _engine_probes(tr, engine, program)


def replay_swrl(tr: Tracer, params: dict) -> tuple:
    syntax = importlib.import_module("ddlite.syntax")
    text = _read(params["file"])
    rules = tr.call("syntax.parse_swrl", syntax.parse_swrl, text, params["file"])

    def translate():
        return syntax.swrl_to_datalog([r for rule in rules for r in syntax.lloyd_topor(rule)])

    program = tr.call("syntax.swrl_to_datalog", translate)
    return tr.call("syntax.print_program", syntax.print_program, program), None


def replay_diff(tr: Tracer, params: dict) -> tuple:
    graphs = importlib.import_module("ddlite.graphs")
    syntax = importlib.import_module("ddlite.syntax")
    left, right = params["left"], params["right"]
    p1 = tr.call("syntax.parse_program", syntax.parse_program, _read(left), left)
    p2 = tr.call("syntax.parse_program", syntax.parse_program, _read(right), right)
    meta = dict(graphs.DEFAULT_META)
    g1 = tr.call("graphs.build_rpg", graphs.build_rpg, p1, meta)
    g2 = tr.call("graphs.build_rpg", graphs.build_rpg, p2, meta)
    report = tr.call("graphs.graph_diff", graphs.graph_diff, g1, g2, frozenset())
    tr.counts["graphs.nodes"] = len(g1.nodes)
    tr.counts["graphs.edges"] = len(g1.edges)
    # the command lists every difference; the oracle only accepts none
    return ("no differences\n" if report.is_empty() else "differences\n"), None


REPLAYS = {
    "eval": replay_eval,
    "query": replay_query,
    "prove": replay_prove,
    "swrl": replay_swrl,
    "diff": replay_diff,
}


def main(argv: list[str]) -> int:
    replay, params, spans_file, op = argv[0], json.loads(argv[1]), argv[2], int(argv[3])
    tr = Tracer(op)

    def run():
        tr.call("cli.import", importlib.import_module, "ddlite.cli")
        out, probes = REPLAYS[replay](tr, params)
        sys.stdout.write(out)
        sys.stdout.flush()
        return probes

    probes = tr.call("op", run)
    if probes is not None:
        probes()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"spans": tr.spans, "counts": tr.counts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
