"""Golden CLI transcripts.

Every command runs in process through cli.main on every fixture, in each
output format, plus error cases for SWRL, goals, templates, `--atom`,
rule text and XML.  tests/golden/cli.json holds argv, stdout, stderr and
exit code of each call; the test replays the calls and compares.

Without pytest, replay them with

    PYTHONPATH=src python tests/test_golden.py --check

which exits 1 on a mismatch.  After an intended output change, rewrite
the transcripts with

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff of tests/golden/cli.json.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from ddlite.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
FX = "tests/fixtures"
INPUTS = "tests/golden/inputs"

HOURS_GOAL = (
    "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
    "R := doc('works_on.xml')/row::[@'ESSN' = SSN]@'HOURS', "
    "atom_number(R, H)"
)
EMPLOYEES = f"employee={FX}/employee.csv"
ROUTE = f"{FX}/route.dl"


def _files(directory: str, suffix: str) -> list[str]:
    return sorted(
        f"{directory}/{p.name}" for p in (ROOT / directory).glob(f"*{suffix}")
    )


def cases() -> list[list[str]]:
    dl = _files(FX, ".dl")
    swrl = _files(FX, ".swrl")
    xml = _files(FX, ".xml")
    out: list[list[str]] = []

    # parse: every fixture, the malformed rule files, a missing file
    everything = sorted(
        f"{FX}/{p.name}" for p in (ROOT / FX).iterdir() if p.is_file()
    )
    for f in everything + _files(INPUTS, ".dl"):
        out.append(["parse", f])
    out.append(["parse", f"{FX}/missing.dl"])

    # graph
    for f in dl:
        for kind in ("pdg", "rpg"):
            for fmt in ("text", "json", "dot"):
                out.append(["graph", f, "--kind", kind, "--format", fmt])
    for f in xml + _files(INPUTS, ".xml"):
        for fmt in ("text", "json", "dot"):
            out.append(["graph", f, "--kind", "schema", "--format", fmt])
        out.append(["graph", f, "--kind", "schema", "--no-attrs"])
    ancestor = f"{FX}/ancestor.dl"
    for spec in ("append/2", "append/2, parent/2", "foo", "p/x", "/2", "p/", "p/\u00b2"):
        out.append(["graph", ancestor, "--kind", "rpg", "--meta-list", spec])
    out.append(["graph", ancestor, "--kind", "bogus"])
    # an operator body literal: a relation only where the program defines it
    eq_body, eq_relation = f"{INPUTS}/eq_body.dl", f"{INPUTS}/eq_relation.dl"
    for f in (eq_body, eq_relation):
        for kind in ("pdg", "rpg"):
            out.append(["graph", f, "--kind", kind])
    out.append(["graph"])

    # diff: each program against itself and against its neighbour
    for i, left in enumerate(dl):
        for right in (left, dl[(i + 1) % len(dl)]):
            for kind in ("pdg", "rpg"):
                for fmt in ("text", "json"):
                    out.append(["diff", left, right, "--kind", kind, "--format", fmt])
    h1, h2 = f"{FX}/h1.dl", f"{FX}/h2.dl"
    for extra in (
        ["--helpers", "h"],
        ["--helpers", "h/0"],
        ["--helpers", "h, zz"],
        ["--helpers", "h", "--root", "a"],
        ["--helpers", "h", "--root", "a/0"],
        ["--helpers", "h", "--root", "zz"],
        ["--helpers", "h", "--format", "json"],
        ["--helpers", "h", "--kind", "rpg"],
        ["--meta-list", "p/x"],
    ):
        out.append(["diff", h1, h2] + extra)
    for left, right in ((eq_body, eq_relation), (eq_relation, eq_body)):
        for kind in ("pdg", "rpg"):
            out.append(["diff", left, right, "--kind", kind])
    out.append(["diff", f"{INPUTS}/empty.dl", h2, "--helpers", "h"])
    out.append(["diff", f"{INPUTS}/empty.dl", h2, "--helpers", "h", "--root", "a/0"])
    for left, right in ((xml[0], xml[1]), (xml[1], xml[2]), (xml[0], xml[0])):
        for extra in ([], ["--format", "json"], ["--no-attrs"]):
            out.append(["diff", left, right, "--kind", "schema"] + extra)

    # eval
    for f in dl:
        for fmt in ("text", "json"):
            out.append(["eval", f, "--format", fmt])
    plain = f"{FX}/route_plain.dl"
    for fmt in ("text", "json"):
        out.append(["eval", plain, "--auto-pt", "--format", fmt])
    uncle_csv = ["--csv", f"parent={FX}/parent.csv", "--csv", f"brother={FX}/brother.csv"]
    out.append(["eval", f"{FX}/uncle.dl"] + uncle_csv)
    out.append(["eval", f"{FX}/uncle.dl", "--csv", "parent"])
    out.append(["eval", plain, "--max-facts", "3"])
    out.append(["eval", plain, "--max-iterations", "-1"])
    out.append(["eval", f"{INPUTS}/path_chain.dl", "--max-iterations", "1"])
    out.append(["eval", f"{INPUTS}/negative_zero.dl"])
    # a stratification cycle, failing rule bodies, negation, the OWL and
    # list builtins, and the printer's operand, list and quoting shapes
    for name in ("not_stratified", "division_by_zero", "unbound_arith", "negation_shapes",
                 "owl_builtins", "printer_shapes"):
        out.append(["eval", f"{INPUTS}/{name}.dl"])
    # flat atoms and the shapes next to them, rule text errors, and an
    # operator named in a body that no fact or head defines
    for name in ("flat_shapes", "infix_after_atom", "dot_in_args", "not_var",
                 "long_integer", "lex_after_syntax", "eq_body", "deep_list"):
        out.append(["eval", f"{INPUTS}/{name}.dl"])
    # integers beyond float range: ordered by value, and an error where
    # arithmetic or an aggregate leaves the numbers ddlite reads
    huge = f"{INPUTS}/huge_integer.dl"
    out.append(["eval", huge])
    out.append(["prove", huge, "--atom", "p(X)"])
    for goal, template in (
        ("p(X)", "[X]"),
        ("p(X)", "[min(X), max(X)]"),
        ("p(X)", "[sum(X)]"),
        ("p(X)", "[avg(X)]"),
        ("p(X), X > 100, Y is X / 3", "[Y]"),
        ("p(X), X > 100, Y is X * 1.5", "[Y]"),
        ("big(X), Y is X * X", "[Y]"),
    ):
        out.append(["query", huge, "--goal", goal, "--template", template])
    # a float result beyond float range, from `is` or a sum, is an error
    out.append(["eval", f"{INPUTS}/float_overflow.dl"])
    out.append(["query", "--goal", "X is 1.0e308 * 10.0", "--template", "[X]"])
    for template in ("[sum(X)]", "[avg(X)]"):
        out.append(["query", f"{INPUTS}/float_sum.dl", "--goal", "f(X)", "--template", template])

    # swrl: fixtures in both forms, then the malformed and edge-case inputs
    for f in swrl + xml:
        for emit in ("datalog", "report"):
            out.append(["swrl", f, "--emit", emit])
    for f in _files(INPUTS, ".swrl"):
        out.append(["swrl", f])
    # RuleML names carrying entities, and text split by comments
    for emit in ("datalog", "report"):
        out.append(["swrl", f"{INPUTS}/ruleml_text.xml", "--emit", emit])

    # query
    hours = ["query", "--csv", EMPLOYEES, "--base-dir", FX, "--goal", HOURS_GOAL]
    for template in (
        "[D, sum(H)]",
        "[D, sum(H)].",
        "[D, count(H), avg(H), min(H), max(H)]",
        "[D, sum(H)]. junk",
        "[D, sum(H)] junk",
        "[D, sum(H)].junk",
        "[D, sum(H)]. [D]",
        "D",
        "[foo(D)]",
        "[]",
        "[Z]",
        "[D, sum(Name)]",
    ):
        out.append(hours + ["--template", template])
    out.append(hours + ["--template", "[D, sum(H)]", "--format", "json"])
    out.append(["query", "--csv", EMPLOYEES, "--xml", f"works_on.xml={FX}/works_on.xml",
                "--goal", HOURS_GOAL, "--template", "[D, sum(H)]"])
    for goal in (
        "route('KT', 'Mue', L, T)",
        "route('KT', 'Mue', L, T).",
        "(route(A, B, L, T), L > 100)",
        "route(A, B, L, T), not street(A, B, L, T)",
        "route(A, B, L, T). street(A, B, L, T)",
        "route(A, B, L, T) junk",
        "route(A, B, L, T), ",
        "(route(A, B, L, T)",
        "X := foo/bar",
        "X := doc('people.xml')",
        "true",
        "p(\u00b2)",
    ):
        out.append(["query", ROUTE, "--goal", goal, "--template", "[L]"])
    for goal in (
        "C := doc('people.xml')/'swrlx:classAtom'/'owlx:Class'@'owlx:name'",
        "C := doc('people.xml')/swrlx:classAtom/owlx:Class@owlx:name",
        "C := doc('people.xml')/ruleml:imp/ruleml:_body/swrlx:individualPropertyAtom"
        "::[@swrlx:property = parent]@swrlx:property",
        "C := doc('people.xml')/swrlx:classAtom/owlx:",
        "C := doc('missing.xml')/a",
        "C := doc('inputs/mismatched.xml')/a",
        "C := X/a",
        "C := doc('works_on.xml')/row::[@'ESSN' = S]@'HOURS'",
        "R := doc('works_on.xml')/row, C := R@'HOURS'",
    ):
        base = "tests/golden" if "inputs/" in goal else FX
        out.append(["query", "--base-dir", base, "--goal", goal, "--template", "[C]"])

    # document nodes as values: counted, but neither ordered nor summed
    rows = "V := doc('works_on.xml')/row"
    for goal, template in [
        (rows, t) for t in ("[V]", "[min(V)]", "[max(V)]", "[sum(V)]", "[avg(V)]",
                            "[count(V)]")
    ] + [
        (f"{rows}, prolog:(V < 3)", "[count(V)]"),
        (f"{rows}, same_as(X, f(V))", "[X]"),
    ]:
        out.append(["query", "--base-dir", FX, "--goal", goal, "--template", template])

    # attribute values with entities and either quote
    shapes = "doc('inputs/shapes.xml')"
    for goal, template in (
        (f"X := {shapes}@x, Y := {shapes}@y, Z := {shapes}@z", "[X, Y, Z]"),
        (f"X := {shapes}/b@x, Y := {shapes}/b@y, Z := {shapes}/d/f@g", "[X, Y, Z]"),
        (f"X := {shapes}/d/f@i, Y := {shapes}/'k.l-m_n:o'", "[X, count(Y)]"),
    ):
        out.append(["query", "--base-dir", "tests/golden", "--goal", goal,
                    "--template", template])

    # an operator that is neither a builtin nor a relation of the program
    for goal in ("X = a", "X + a", "same_as(X, a)", "p(X), X = a"):
        out.append(["query", "--goal", goal, "--template", "[X]"])
    out.append(["query", f"{INPUTS}/eq_relation.dl", "--goal", "X = Y",
                "--template", "[X, Y]"])
    out.append(["query", f"{INPUTS}/eq_body.dl", "--goal", "q(X)", "--template", "[X]"])
    # builtins in a goal: division exact and not, atom_number of a compound
    for goal in ("X is 6 / 3", "X is 7 / 2", "prolog:atom_number(f(a), X)"):
        out.append(["query", "--goal", goal, "--template", "[X]"])

    # terms nested deeper than the recursion limit allows
    deep = "p(" + "f(" * 400 + "a" + ")" * 400 + ")"
    out.append(["query", "--goal", deep, "--template", "[X]"])
    out.append(["query", "--goal", "true", "--template", "[" + "[" * 400 + "]" * 400 + "]"])
    out.append(["prove", ROUTE, "--atom", deep])

    # a negated literal still open at the end of the goal
    out.append(["query", f"{INPUTS}/negation_shapes.dl", "--goal",
                "n(X), not pair(X, Y)", "--template", "[X]"])

    # prove
    for fmt in ("term", "ascii", "dot"):
        out.append(["prove", ROUTE, "--atom", "route('KT', 'Mue', L, T)", "--format", fmt])
        out.append(["prove", plain, "--auto-pt", "--atom", "route(A, B, L, T)",
                    "--format", fmt])
    out.append(["prove", f"{FX}/uncle.dl", "--atom", "uncle(a, Z)"] + uncle_csv)
    # the f1, f2, ... names of --csv rows, and an atom that a fact and a
    # rule both give, in the model, the proof trees and the tags
    out.append(["eval", f"{FX}/uncle.dl", "--auto-pt"] + uncle_csv)
    out.append(["prove", f"{FX}/uncle.dl", "--atom", "parent(a, b)", "--format", "ascii"]
               + uncle_csv)
    both = f"{INPUTS}/fact_and_rule.dl"
    out.append(["eval", both])
    out.append(["eval", both, "--auto-pt"])
    for atom in ("q(a)", "s(a)"):
        out.append(["prove", both, "--atom", atom, "--format", "ascii"])
        out.append(["prove", both, "--auto-pt", "--atom", atom[:-1] + ", T)",
                    "--format", "ascii"])
    for atom in (
        "route(KT, Mue, L, T)",
        "route(KT, Mue, L, T).",
        "route(KT, Mue, L, T) foo",
        "route(KT, Mue, L, T), foo",
        "route(KT, Mue, L, T). foo",
        "route('Mue', 'KT', L, T)",
        "route(KT",
        "[a]",
        "X",
        "prolog:route(A, B, L, T)",
        "",
    ):
        out.append(["prove", ROUTE, "--atom", atom])
    out.append(["prove", f"{INPUTS}/eq_body.dl", "--atom", "q(X)"])
    for atom in ("calc(2, Y, T)", "first(X, T)"):
        for fmt in ("term", "ascii", "dot"):
            out.append(["prove", f"{INPUTS}/printer_shapes.dl", "--auto-pt",
                        "--atom", atom, "--format", fmt])
    # tree terms a program builds itself: a conclusion that is no atom, at
    # the root and in a child; a t/1 argument, which is no tree; and a
    # side condition after a child
    shapes = f"{INPUTS}/tree_shapes.dl"
    for atom in ("p(T)", "q(T)", "u(X)", "w(T)"):
        for fmt in ("term", "ascii", "dot"):
            out.append(["prove", shapes, "--atom", atom, "--format", fmt])

    # a negated builtin call draws no graph node
    negation = f"{INPUTS}/negation_shapes.dl"
    for kind in ("pdg", "rpg"):
        out.append(["graph", negation, "--kind", kind])
        out.append(["diff", negation, f"{INPUTS}/negation_plain.dl", "--kind", kind])
    # a call that names no builtin, reached, never reached and negated: every
    # command reports it, SWRL built-ins that ddlite lacks too
    for name in ("unknown_call", "unreachable_call", "negated_unknown_call"):
        f = f"{INPUTS}/{name}.dl"
        for kind in ("pdg", "rpg"):
            out.append(["graph", f, "--kind", kind])
        out.append(["diff", f, negation])
        out.append(["diff", negation, f])
        out.append(["eval", f])
        out.append(["query", f, "--goal", "q(X)", "--template", "[X]"])
        out.append(["prove", f, "--atom", "q(X)"])
    # SWRL comparison and arithmetic built-ins become the builtins
    for name in ("annotated", "flat_shapes", "swrl_builtins"):
        out.append(["swrl", f"{INPUTS}/{name}.swrl", "--emit", "report"])
    # `not true` and `not !` fail, as Prolog's \+ true does; `true` and `!` hold
    control = f"{INPUTS}/negated_control.dl"
    out.append(["eval", control])
    out.append(["eval", control, "--auto-pt"])
    for goal in ("p(X), not true", "p(X), not !", "p(X), true, !"):
        out.append(["query", control, "--goal", goal, "--template", "[X]"])
    out.append(["query", control, "--goal", "p(X), not true", "--template", "[count(X)]"])
    for atom in ("q(X)", "s(X)"):
        out.append(["prove", control, "--atom", atom])
    # input files that start with a UTF-8 byte-order mark (BOM); parse,
    # swrl and graph --kind schema read each of them above already
    out.append(["eval", f"{INPUTS}/bom.dl"])
    out.append(["query", "--csv", f"employee={INPUTS}/bom.csv", "--goal",
                "employee('Borg', S, B, X, Sal, Sup, D)", "--template", "[D]"])
    # bytes that are no UTF-8: an I/O error naming the file and the offset;
    # parse reads undecodable.dl and graph --kind schema undecodable.xml above
    out.append(["query", "--csv", f"r={INPUTS}/undecodable.csv", "--goal", "r(X, Y)",
                "--template", "[X]"])
    # a CSV row short of the first row's columns
    out.append(["query", "--csv", f"r={INPUTS}/ragged.csv", "--goal", "r(X, Y)",
                "--template", "[X]"])
    out.append(["query", "--base-dir", "tests/golden", "--goal",
                "R := doc('inputs/bom.xml')/row::[@'ESSN' = 11]@'HOURS'",
                "--template", "[R]"])
    # facts nested deeper than the recursion limit, sorted for the answers
    deep = f"{INPUTS}/deep_facts.dl"
    for goal, template in (("n(X, K)", "[count(K)]"), ("n(X, K), K > 1198", "[K, count(X)]")):
        out.append(["query", deep, "--goal", goal, "--template", template])
    out.append(["prove", deep, "--atom", "n(X, K)"])

    # argparse texts: the top-level help and usage errors, each command's
    # help, and an unrecognized flag after each command, which the
    # top-level parser reports under its own usage line
    out += [[], ["--help"], ["-h", "eval"], ["evl"]]
    valid = {
        "parse": [ROUTE],
        "graph": [ROUTE],
        "diff": [ROUTE, plain],
        "eval": [ROUTE],
        "swrl": [f"{FX}/uncle.swrl"],
        "query": [ROUTE, "--goal", "route(A, B, L, T)", "--template", "[L]"],
        "prove": [ROUTE, "--atom", "route(A, B, L, T)"],
    }
    for command, args in valid.items():
        out.append([command, "--help"])
        out.append([command] + args + ["--bogus"])
    out.append(["eval", ROUTE, "--format", "xml"])
    # --xml is a flag of query alone
    out.append(["eval", ROUTE, "--xml", f"d={FX}/works_on.xml"])
    out.append(["prove", ROUTE, "--atom", "route(A, B, L, T)",
                "--xml", f"d={FX}/works_on.xml"])
    out.append(["query", ROUTE, "--template", "[L]"])
    return out


@contextmanager
def _at_root():
    # argparse wraps its texts to the width COLUMNS gives, else the terminal's
    saved_dir = os.getcwd()
    saved_env = {name: os.environ.pop(name, None) for name in ("DDLITE_MAX_FACTS", "COLUMNS")}
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(saved_dir)
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def record() -> list[dict]:
    with _at_root():
        return [transcript(argv) for argv in cases()]


def mismatches() -> list[str]:
    """One report per transcript that differs from the golden file."""
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if [t["argv"] for t in expected] != cases():
        return ["the commands differ from the golden file; record it again"]
    return [
        f"{want['argv']}\n  want {want}\n  got  {got}"
        for want, got in zip(expected, record())
        if want != got
    ]


def test_cli_transcripts_match_the_golden_file():
    mismatched = mismatches()
    assert not mismatched, "\n\n".join(mismatched[:5])


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
    elif sys.argv[1:] == ["--check"]:
        mismatched = mismatches()
        print("\n\n".join(mismatched) or f"{len(cases())} transcripts match")
        sys.exit(1 if mismatched else 0)
    else:
        sys.exit(__doc__)
