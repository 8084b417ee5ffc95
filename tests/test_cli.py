"""End-to-end command line coverage, run in process through main(argv)."""

import ast
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlite.cli import COMMAND_TABLE, COMMANDS, _meta_dict, _read_args, build_parser, main
from ddlite.kernel import PredKey

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parents[1] / "src")

HOURS_GOAL = (
    "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
    "R := doc('works_on.xml')/row::[@'ESSN' = SSN]@'HOURS', "
    "atom_number(R, H)"
)

ROUTE_TREE = (
    "t(route(KT, Mue, 295), r, t(street(KT, Wue, 15), f1), "
    "t(route(Wue, Mue, 280), e, t(street(Wue, Mue, 280), f2)))"
)


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ===========================================================================
# parse
# ===========================================================================


def test_parse_safe_program(capsys):
    code, out, err = run(capsys, "parse", fx("route.dl"))
    assert code == 0 and err == ""
    assert "% name: e" in out
    assert "route(X, Y, L, T) :-" in out
    assert out.rstrip().endswith("safe, stratified")


def test_parse_unsafe_program(capsys, tmp_path):
    f = tmp_path / "bad.dl"
    f.write_text("p(X, Y) :- q(X).", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(f))
    assert code == 1
    assert "unsafe: rule r1: variable Y in the head is not bound by the body" in out


def test_parse_unstratifiable_program(capsys, tmp_path):
    f = tmp_path / "cyc.dl"
    f.write_text("a :- not(b).\nb :- a.\n", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(f))
    assert code == 1
    (status,) = [l for l in out.splitlines() if l.startswith("not stratified:")]
    assert "negation on a cycle:" in status
    assert "a/0" in status and "b/0" in status


def test_parse_syntax_error(capsys, tmp_path):
    f = tmp_path / "broken.dl"
    f.write_text("p(X :- q.", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(f))
    assert code == 1
    assert err.startswith("error: ") and "broken.dl:1:" in err


def test_a_digit_that_is_no_decimal_digit_is_an_unexpected_character(capsys, tmp_path):
    # "²" passes str.isdigit but not int()
    f = tmp_path / "sup.dl"
    f.write_text("p(²).\n", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(f))
    assert (code, out, err) == (1, "", f"error: {f}:1:3: unexpected character '²'\n")
    code, out, err = run(capsys, "query", fx("route.dl"), "--goal", "p(²)",
                         "--template", "[X]")
    assert (code, out, err) == (1, "", "error: <goal>:1:3: unexpected character '²'\n")


def test_parse_error_after_a_quoted_atom_that_spans_lines(capsys, tmp_path):
    f = tmp_path / "ml.dl"
    f.write_text("p('a\nb').\nq(X) :- .\n", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(f))
    assert (code, out, err) == (1, "", f"error: {f}:3:9: unexpected token '.'\n")


@pytest.mark.parametrize("n", [400, 1200])
def test_parse_prints_a_long_conjunction(capsys, tmp_path, n):
    f = tmp_path / "long.dl"
    goals = ", ".join(f"q{i}(X)" for i in range(n))
    f.write_text(f"p(L) :- findall(X, ({goals}), L).\n", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(f))
    assert (code, err) == (0, "")
    conj = "".join(f"','(q{i}(X), " for i in range(n - 1)) + f"q{n - 1}(X)" + ")" * (n - 1)
    assert out == f"p(L) :- findall(X, {conj}, L).\nsafe, stratified\n"


def test_parse_and_eval_a_long_left_nested_sum(capsys, tmp_path):
    f = tmp_path / "sum.dl"
    rule = "p(X) :- prolog:(X is " + "+".join(["1"] * 3000) + ")."
    f.write_text(rule + "\n", encoding="utf-8")
    assert run(capsys, "parse", str(f)) == (0, rule + "\nsafe, stratified\n", "")
    assert run(capsys, "eval", str(f)) == (0, "p(3000).\n", "")


def test_an_integer_too_long_to_convert_is_a_parse_error(capsys, tmp_path):
    # int() refuses more than 4,300 digits by default
    f = tmp_path / "long.dl"
    f.write_text("p(" + "1" * 5000 + ").\n", encoding="utf-8")
    message = f"error: {f}:1:3: integer of 5000 digits is too long\n"
    assert run(capsys, "parse", str(f)) == (1, "", message)
    assert run(capsys, "eval", str(f)) == (1, "", message)


def test_a_number_beyond_float_range_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "big.dl"
    f.write_text("p(1e999).\n", encoding="utf-8")
    message = "1:3: number is out of float range\n"
    assert run(capsys, "eval", str(f)) == (1, "", f"error: {f}:{message}")
    code, out, err = run(capsys, "prove", fx("route.dl"), "--atom", "p(1e999)")
    assert (code, out, err) == (1, "", f"error: <atom>:{message}")
    rules = tmp_path / "big.swrl"
    rules.write_text(
        "Implies(Antecedent(p(I-variable(x))) Consequent(q(I-variable(x) "
        + "1" * 400 + ".0)))\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "swrl", str(rules))
    assert (code, out) == (1, "") and err == f"error: {rules}:1:65: number is out of float range\n"


def test_a_dump_of_special_symbols_reads_back(capsys, tmp_path):
    f = tmp_path / "symbols.dl"
    f.write_text(
        "p(';'). p('{}'). p('[]'). p('!'). p(1.0e308).\n"
        "p(';'(a)). p('{}'(a)). p('[]'(a)). p('!'(a)).\n",
        encoding="utf-8",
    )
    code, dump, err = run(capsys, "eval", str(f))
    assert (code, err) == (0, "")
    again = tmp_path / "dump.dl"
    again.write_text(dump, encoding="utf-8")
    assert run(capsys, "eval", str(again)) == (0, dump, "")


def test_missing_file_is_an_io_error(capsys):
    code, out, err = run(capsys, "parse", fx("does_not_exist.dl"))
    assert code == 2
    assert err.startswith("error: ")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["parse", "--nope", fx("route.dl")])
    assert info.value.code == 2


# ===========================================================================
# graph
# ===========================================================================


def test_graph_pdg_text(capsys):
    code, out, err = run(capsys, "graph", fx("p1.dl"))
    assert code == 0
    assert out.startswith("pdg graph: 3 nodes, 2 edges")
    assert "  edge p/0 -> q1/0" in out
    assert "  edge p/0 -> q2/0" in out


def test_graph_rpg_json(capsys):
    code, out, err = run(capsys, "graph", fx("ancestor.dl"), "--kind", "rpg",
                         "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "rpg"
    types = {n["type"] for n in data["nodes"]}
    assert types == {"pred", "rule", "meta"}
    ids = {n["id"] for n in data["nodes"]}
    assert "not/1#1" in ids and "findall/3#2" in ids
    marks = {e["mark"] for e in data["edges"]}
    assert "not" in marks


def test_graph_dot(capsys):
    code, out, err = run(capsys, "graph", fx("route.dl"), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.rstrip().endswith("}")


def test_graph_schema_attrs_toggle(capsys):
    code, with_attrs, _ = run(capsys, "graph", fx("works_on.xml"),
                              "--kind", "schema")
    assert code == 0
    assert "@ESSN" in with_attrs
    assert "edge table -> row" in with_attrs
    code, without, _ = run(capsys, "graph", fx("works_on.xml"),
                           "--kind", "schema", "--no-attrs")
    assert code == 0 and "@ESSN" not in without


def test_graph_meta_list_adds_call_nodes(capsys):
    code, out, err = run(capsys, "graph", fx("ancestor.dl"), "--kind", "rpg",
                         "--meta-list", "append/2")
    assert code == 0
    assert "append/2#" in out


def test_graph_meta_list_validation(capsys):
    code, out, err = run(capsys, "graph", fx("ancestor.dl"), "--kind", "rpg",
                         "--meta-list", "nonsense")
    assert code == 1
    assert "expects name/arity" in err


def test_graph_meta_list_rejects_a_superscript_arity(capsys):
    # "\u00b2" passes str.isdigit but not int()
    code, out, err = run(capsys, "graph", fx("ancestor.dl"), "--kind", "rpg",
                         "--meta-list", "p/\u00b2")
    assert code == 1
    assert err == "error: --meta-list expects name/arity, got 'p/\u00b2'\n"


def test_meta_list_arity_allocates_no_position_list():
    tracemalloc.start()
    try:
        meta = _meta_dict("p/1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(meta[PredKey(None, "p", 1000000)][:3]) == [0, 1, 2]
    assert peak < 64 * 1024, f"peak {peak} bytes"


def test_graph_schema_of_a_deeply_nested_document(capsys, tmp_path):
    f = tmp_path / "deep.xml"
    f.write_text("<a>" * 3000 + "</a>" * 3000, encoding="utf-8")
    code, out, err = run(capsys, "graph", str(f), "--kind", "schema")
    assert (code, err) == (0, "")
    assert out == "schema graph: 1 nodes, 1 edges\n  node a (tag)\n  edge a -> a\n"


def test_graph_and_diff_of_a_long_conjunction(capsys, tmp_path):
    f = tmp_path / "long.dl"
    goals = ", ".join(f"q{i}(X)" for i in range(1200))
    f.write_text(f"p(L) :- findall(X, ({goals}), L).\n", encoding="utf-8")
    code, out, err = run(capsys, "graph", str(f), "--kind", "rpg")
    assert code == 0 and err == ""
    assert out.startswith("rpg graph: 1203 nodes, 1202 edges\n")
    assert "  edge findall/3#1 -> q1199/1\n" in out
    code, out, err = run(capsys, "diff", str(f), str(f), "--kind", "rpg")
    assert (code, out, err) == (0, "no differences\n", "")


# ===========================================================================
# diff
# ===========================================================================


def test_diff_same_file_no_differences(capsys):
    code, out, err = run(capsys, "diff", fx("p1.dl"), fx("p1.dl"))
    assert code == 0
    assert out == "no differences\n"


def test_diff_pdg_vs_rpg(capsys):
    code, pdg_out, _ = run(capsys, "diff", fx("p1.dl"), fx("p2.dl"))
    assert code == 0
    assert pdg_out == "no differences\n"
    code, rpg_out, _ = run(capsys, "diff", fx("p1.dl"), fx("p2.dl"),
                           "--kind", "rpg")
    assert code == 0
    assert "only in left:" in rpg_out and "only in right:" in rpg_out


def test_diff_helpers_reports_residue_and_equivalence(capsys):
    code, out, err = run(capsys, "diff", fx("h1.dl"), fx("h2.dl"),
                         "--kind", "rpg", "--helpers", "h")
    assert code == 0
    lines = out.splitlines()
    assert "only in right: edge r3 -> c/0" in lines
    assert "only in right: edge r3 -> d/0" in lines
    assert lines[-1] == "equivalent modulo helpers: true"


def test_diff_json_carries_the_equivalence_verdict(capsys):
    code, out, err = run(capsys, "diff", fx("h1.dl"), fx("h2.dl"),
                         "--kind", "rpg", "--helpers", "h", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equivalent_modulo_helpers"] is True
    code, out, err = run(capsys, "diff", fx("p1.dl"), fx("p2.dl"),
                         "--format", "json")
    data = json.loads(out)
    assert data["equivalent_modulo_helpers"] is None


# ===========================================================================
# eval
# ===========================================================================


def test_eval_route_text(capsys):
    code, out, err = run(capsys, "eval", fx("route.dl"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith(".") for line in lines)
    assert any(line.startswith("route('KT', 'Mue', 295, t(") for line in lines)


def test_eval_route_json(capsys):
    code, out, err = run(capsys, "eval", fx("route.dl"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {row["pred"] for row in data} == {"route/4", "street/4"}
    assert all(set(row) == {"pred", "args"} for row in data)


def test_eval_with_csv_relations(capsys):
    code, out, err = run(capsys, "eval", fx("uncle.dl"),
                         "--csv", f"parent={fx('parent.csv')}",
                         "--csv", f"brother={fx('brother.csv')}")
    assert code == 0
    assert "uncle(a, c)." in out.splitlines()


def test_eval_csv_spec_validation(capsys):
    code, out, err = run(capsys, "eval", fx("uncle.dl"), "--csv", "nopath")
    assert code == 1
    assert "--csv expects pred=path" in err


def test_eval_auto_pt(capsys):
    code, out, err = run(capsys, "eval", fx("route_plain.dl"), "--auto-pt")
    assert code == 0
    assert any(
        line.startswith("route('KT', 'Mue', 295, t(") and "(295 is 15+280)" in line
        for line in out.splitlines()
    )


def test_eval_sorts_facts_nested_deeper_than_the_recursion_limit(capsys, tmp_path):
    # n(s(...s(z)...), K) nests K compounds; comparing two such keys as
    # plain tuples recurses once per level
    f = tmp_path / "deep.dl"
    f.write_text(
        "n(z, 0).\n"
        "n(s(X), K) :- n(X, J), prolog:(J < 1200), prolog:(K is J+1).\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval", str(f))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1201
    # z sorts before any compound, and s(X) before s(s(X))
    assert all(
        line == f"n({'s(' * k}z{')' * k}, {k})." for k, line in enumerate(lines)
    )


def test_eval_iteration_limit(capsys, tmp_path):
    f = tmp_path / "chain.dl"
    f.write_text(
        "e(n0, n1). e(n1, n2). e(n2, n3).\n"
        "path(X, Y) :- e(X, Y).\n"
        "path(X, Z) :- e(X, Y), path(Y, Z).\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval", str(f), "--max-iterations", "1")
    assert code == 1
    assert err == "error: iteration limit 1 exceeded in stratum 0\n"


def test_eval_fact_limit_from_env(capsys, tmp_path, monkeypatch):
    f = tmp_path / "count.dl"
    f.write_text("n(0). n(Y) :- n(X), prolog:(Y is X + 1).", encoding="utf-8")
    monkeypatch.setenv("DDLITE_MAX_FACTS", "10")
    code, out, err = run(capsys, "eval", str(f))
    assert code == 1
    assert err == "error: fact limit 10 exceeded in stratum 0\n"
    # an explicit flag beats the environment
    code, out, err = run(capsys, "eval", str(f), "--max-facts", "25")
    assert code == 1
    assert err == "error: fact limit 25 exceeded in stratum 0\n"


@pytest.mark.parametrize("value", ["abc", "-1", ""])
def test_eval_rejects_a_bad_fact_limit_in_the_env(capsys, monkeypatch, value):
    monkeypatch.setenv("DDLITE_MAX_FACTS", value)
    code, out, err = run(capsys, "eval", fx("route.dl"))
    assert code == 1 and out == ""
    assert err == (
        f"error: DDLITE_MAX_FACTS must be a non-negative integer, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["parse", fx("route.dl")], ["swrl", fx("uncle.swrl")], ["--help"]],
    ids=["parse", "swrl", "help"],
)
def test_commands_without_limits_ignore_the_fact_limit_env(monkeypatch, argv):
    # only eval, query and prove read DDLITE_MAX_FACTS
    monkeypatch.delenv("DDLITE_MAX_FACTS", raising=False)
    expected = _in_process(argv)
    monkeypatch.setenv("DDLITE_MAX_FACTS", "abc")
    assert _in_process(argv) == expected and expected[0] == 0


@pytest.mark.parametrize("flag", ["--max-facts", "--max-iterations"])
@pytest.mark.parametrize("value", ["-1", "-5", "abc"])
def test_eval_rejects_a_bad_limit_flag(capsys, flag, value):
    code, out, err = run(capsys, "eval", fx("route.dl"), flag, value)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be a non-negative integer, got {value!r}\n"


def test_eval_output_does_not_depend_on_the_hash_seed(tmp_path):
    # ten r/1 facts enter one delta together; the first to reach the
    # builtin names itself in the error, so the delta's order must not
    # come from a set
    bad = tmp_path / "bad.dl"
    bad.write_text(
        "".join(f"e(a, b{i}).\n" for i in range(10))
        + "r(Y) :- e(a, Y).\n"
        + "s(Y) :- r(Y), prolog:(Z is Y + 1).\n",
        encoding="utf-8",
    )
    src = str(Path(__file__).parents[1] / "src")
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        env.pop("DDLITE_MAX_FACTS", None)
        outputs = []
        for argv in (
            ["eval", fx("route.dl"), "--format", "json"],
            ["eval", fx("route_plain.dl"), "--auto-pt"],
            ["eval", str(bad)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "ddlite.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
        runs.append(outputs)
    assert runs[0] == runs[1]
    code, out, err = runs[0][2]
    assert code == 1 and out == ""
    assert err.endswith(":12:1: in rule r12: not an arithmetic expression: b0\n")


def test_a_negated_control_atom_fails(capsys, tmp_path):
    f = tmp_path / "f.dl"
    f.write_text("p(a). q(X) :- p(X), not true. r(X) :- p(X), not !.\n", encoding="utf-8")
    assert run(capsys, "eval", str(f)) == (0, "p(a).\n", "")
    for goal in ("p(X), not true", "p(X), not !"):
        assert run(capsys, "query", str(f), "--goal", goal, "--template", "[X]") == (
            0, "[]\n", "")
    assert run(capsys, "query", str(f), "--goal", "p(X), true", "--template", "[X]") == (
        0, "[[a]]\n", "")


# ===========================================================================
# swrl
# ===========================================================================


def test_swrl_text_to_datalog(capsys):
    code, out, err = run(capsys, "swrl", fx("uncle.swrl"))
    assert code == 0
    assert out == "uncle(X, Z) :- parent(X, Y), brother(Y, Z).\n"


def test_swrl_xml_matches_text_form(capsys):
    code, out, err = run(capsys, "swrl", fx("uncle.xml"))
    assert code == 0
    assert out == "uncle(X, Z) :- parent(X, Y), brother(Y, Z).\n"


def test_swrl_opium_rule_splits_into_four_clauses(capsys):
    code, out, err = run(capsys, "swrl", fx("opm.swrl"))
    assert code == 0
    heads = [line.split(" :- ")[0] for line in out.splitlines() if ":-" in line]
    assert heads == [
        "derived_sink(B, H)",
        "derived_source(B, Y)",
        "derived_account(B, D)",
        "derived_account(B, G)",
    ]
    assert out.count("prolog:create_owl_thing(B, X, C, E)") == 4


def test_swrl_report(capsys):
    code, out, err = run(capsys, "swrl", fx("opm.swrl"), "--emit", "report")
    assert code == 0
    assert out == "ok: 4 rules, safe\n"


def test_swrl_report_unsafe(capsys, tmp_path):
    f = tmp_path / "loose.swrl"
    f.write_text(
        "Implies(Antecedent(p(I-variable(x))) "
        "Consequent(q(I-variable(x) I-variable(y))))",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "swrl", str(f), "--emit", "report")
    assert code == 1
    assert "unsafe: rule r1: variable Y" in out


# ===========================================================================
# query
# ===========================================================================


def test_query_sums_hours_by_department(capsys):
    code, out, err = run(
        capsys, "query",
        "--csv", f"employee={fx('employee.csv')}",
        "--goal", HOURS_GOAL,
        "--template", "[D, sum(H)]",
        "--base-dir", str(FIXTURES),
    )
    assert code == 0
    assert out == "[[1, 12.5], [4, 30.0], [5, 47.5]]\n"


def test_query_json_format(capsys):
    code, out, err = run(
        capsys, "query",
        "--csv", f"employee={fx('employee.csv')}",
        "--goal", HOURS_GOAL,
        "--template", "[D, sum(H)]",
        "--base-dir", str(FIXTURES),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [[1, 12.5], [4, 30.0], [5, 47.5]]


def test_query_xml_registry_instead_of_base_dir(capsys):
    code, out, err = run(
        capsys, "query",
        "--csv", f"employee={fx('employee.csv')}",
        "--xml", f"works_on.xml={fx('works_on.xml')}",
        "--goal", HOURS_GOAL,
        "--template", "[D, sum(H)]",
    )
    assert code == 0
    assert out == "[[1, 12.5], [4, 30.0], [5, 47.5]]\n"


def test_query_over_derived_facts(capsys):
    code, out, err = run(
        capsys, "query", fx("route.dl"),
        "--goal", "route('KT', 'Mue', L, T)",
        "--template", "[L]",
    )
    assert code == 0
    assert out == "[[295]]\n"


def test_query_sums_fact_matches_in_sort_key_order(capsys, tmp_path):
    # float addition is not associative: 0.1 + 0.2 + 0.3 (sorted) differs
    # from 0.3 + 0.2 + 0.1 (insertion order) in the last digit
    f = tmp_path / "h.dl"
    f.write_text("h(a, 0.3). h(a, 0.2). h(a, 0.1).\n", encoding="utf-8")
    code, out, err = run(capsys, "query", str(f),
                         "--goal", "h(K, V)", "--template", "[K, sum(V)]")
    assert code == 0
    assert out == "[[a, 0.6000000000000001]]\n"


def _with_bom(tmp_path, name):
    """A copy of the fixture, in tmp_path, that starts with a UTF-8 BOM."""
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
    return str(path)


@pytest.mark.parametrize("command, name", [
    ("eval", "route.dl"),
    ("swrl", "uncle.swrl"),
    ("swrl", "uncle.xml"),
])
def test_a_byte_order_mark_is_no_part_of_a_rule_file(capsys, tmp_path, command, name):
    want = run(capsys, command, fx(name))
    assert want[0] == 0
    assert run(capsys, command, _with_bom(tmp_path, name)) == want


def test_a_byte_order_mark_is_no_part_of_a_csv_cell(capsys, tmp_path):
    goal = "employee('Borg', S, B, X, Sal, Sup, D)"
    for csv_path in (fx("employee.csv"), _with_bom(tmp_path, "employee.csv")):
        code, out, err = run(capsys, "query", "--csv", f"employee={csv_path}",
                             "--goal", goal, "--template", "[D]")
        assert (code, out, err) == (0, "[[1]]\n", "")


def test_a_byte_order_mark_is_no_part_of_a_document(capsys, tmp_path):
    _with_bom(tmp_path, "works_on.xml")
    code, out, err = run(
        capsys, "query",
        "--csv", f"employee={_with_bom(tmp_path, 'employee.csv')}",
        "--goal", HOURS_GOAL,
        "--template", "[D, sum(H)]",
        "--base-dir", str(tmp_path),
    )
    assert (code, out, err) == (0, "[[1, 12.5], [4, 30.0], [5, 47.5]]\n", "")
    want = run(capsys, "graph", fx("works_on.xml"), "--kind", "schema")
    assert run(capsys, "graph", str(tmp_path / "works_on.xml"), "--kind", "schema") == want


def test_query_reads_prefixed_tags_in_path_steps(capsys):
    code, out, err = run(
        capsys, "query", "--base-dir", str(FIXTURES),
        "--goal", "C := doc('people.xml')/swrlx:classAtom/owlx:Class@owlx:name",
        "--template", "[C]",
    )
    assert (code, out, err) == (0, "[[person]]\n", "")


def test_query_template_rejects_input_after_the_dot(capsys):
    code, out, err = run(
        capsys, "query", fx("route.dl"),
        "--goal", "route('KT', 'Mue', L, T)",
        "--template", "[L]. junk",
    )
    assert (code, out) == (1, "")
    assert err == "error: <template>:1:6: unexpected trailing 'junk'\n"


def test_query_bad_template_is_a_domain_error(capsys):
    code, out, err = run(
        capsys, "query", fx("route.dl"),
        "--goal", "route('KT', 'Mue', L, T)",
        "--template", "[count(L), Z]",
    )
    assert code == 1
    assert "Z does not occur in the goal" in err


# ===========================================================================
# prove
# ===========================================================================


def test_prove_term(capsys):
    code, out, err = run(capsys, "prove", fx("route.dl"),
                         "--atom", "route('KT', 'Mue', L, T)")
    assert code == 0
    assert out == ROUTE_TREE + "\n"


def test_prove_ascii(capsys):
    code, out, err = run(capsys, "prove", fx("route.dl"),
                         "--atom", "route('KT', 'Mue', L, T)",
                         "--format", "ascii")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "route(KT, Mue, 295) [r]"
    assert lines[1] == "  where (295 is 15+280)"


def test_prove_dot(capsys):
    code, out, err = run(capsys, "prove", fx("route.dl"),
                         "--atom", "route('KT', 'Mue', L, T)",
                         "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.count(" -> ") == 3


def _reach_tree_text(n):
    """The proof tree term of reach(n<n>) over the edge chain below."""
    text = "t(reach(n0), r1)"
    for i in range(n):
        edge = f"t(edge(n{i}, n{i + 1}), r{i + 2})"
        text = f"t(reach(n{i + 1}), r1102, {text}, {edge})"
    return text


def test_prove_renders_a_proof_deeper_than_the_recursion_limit(capsys, tmp_path):
    f = tmp_path / "reach.dl"
    f.write_text(
        "reach(n0).\n"
        + "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(1100))
        + "reach(Y) :- reach(X), edge(X, Y).\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "prove", str(f), "--auto-pt",
                         "--atom", "reach(n1100, T)", "--format", "ascii")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    # reach(n1100) down to reach(n0), and the edge under each but the last
    assert len(lines) == 1101 + 1100
    assert lines[:3] == ["reach(n1100) [r1102]", "  reach(n1099) [r1102]",
                         "    reach(n1098) [r1102]"]
    assert lines[-1] == "  edge(n1099, n1100) [r1101]"

    # as a term (the default format), and every fact with its tree
    code, out, err = run(capsys, "prove", str(f), "--auto-pt",
                         "--atom", "reach(n1100, T)")
    assert (code, err, out) == (0, "", _reach_tree_text(1100) + "\n")
    code, out, err = run(capsys, "eval", str(f), "--auto-pt")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1100 + 1101
    assert f"reach(n1100, {_reach_tree_text(1100)})." in lines
    assert lines[-1] == f"reach(n999, {_reach_tree_text(999)})."


def test_prove_fact_without_embedded_tree(capsys):
    code, out, err = run(capsys, "prove", fx("uncle.dl"),
                         "--csv", f"parent={fx('parent.csv')}",
                         "--csv", f"brother={fx('brother.csv')}",
                         "--atom", "uncle(a, Z)")
    assert code == 0
    assert out == "t(uncle(a, c), r1)\n"


def test_prove_picks_the_sort_first_match(capsys, tmp_path):
    f = tmp_path / "q.dl"
    f.write_text("p(c). p(a). p(b).\nq(X) :- p(X).\n", encoding="utf-8")
    code, out, err = run(capsys, "prove", str(f), "--atom", "q(X)")
    assert code == 0
    assert out == "t(q(a), r4)\n"


@pytest.mark.parametrize("atom", ["p(a)", "p(X)"])
def test_prove_names_the_first_rule_that_derives_the_fact(capsys, tmp_path, atom):
    # p(a) comes from r4 a pass before q(a) gives it by r3 too: the
    # origin is r3, the first deriving rule in program order, whichever
    # pass found the fact first, and whether prove rewrites for the goal
    f = tmp_path / "origin.dl"
    f.write_text("e(a).\nq(X) :- e(X).\np(X) :- q(X).\np(X) :- e(X).\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "prove", str(f), "--atom", atom)
    assert (code, out, err) == (0, "t(p(a), r3)\n", "")


@pytest.mark.parametrize(
    "text, error",
    [
        ("p(a).\nq(X) :- p(X), prolog:foo(X).\n", "2:15: in rule r2: unknown builtin foo/1"),
        ("p(a).\nq(X, Y) :- p(X).\n", "rule r2: variable Y in the head is not bound by the body"),
        ("p(a).\nq(X) :- p(X), not q(X).\n", "negation on a cycle: q/1 -> q/1"),
    ],
    ids=["unknown-builtin", "unsafe", "not-stratified"],
)
def test_prove_reports_the_program_error_before_the_atom_error(capsys, tmp_path, text, error):
    # the program is checked before --atom is read, as evaluate checks it
    f = tmp_path / "bad.dl"
    f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "prove", str(f), "--atom", "q(a")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and error in err, err


def test_prove_atom_takes_one_atom(capsys):
    code, out, err = run(capsys, "prove", fx("route.dl"),
                         "--atom", "route(KT, Mue, L, T) foo")
    assert (code, out) == (1, "")
    assert err == "error: <atom>:1:22: unexpected trailing 'foo'\n"
    code, out, err = run(capsys, "prove", fx("route.dl"),
                         "--atom", "route('KT', 'Mue', L, T).")
    assert code == 0 and out == ROUTE_TREE + "\n"


def test_prove_no_proof(capsys):
    code, out, err = run(capsys, "prove", fx("route.dl"),
                         "--atom", "route('Mue', 'KT', L, T)")
    assert code == 1
    assert out == "no proof\n"


# ===========================================================================
# unknown builtins
# ===========================================================================

# body literals after the first, which binds X, as (text, names no builtin)
_LITERALS = [
    ("p(X)", False),
    ("not s(X)", False),
    ("true", False),
    ("prolog:same_as(X, a)", False),
    ("not prolog:same_as(X, b)", False),
    ("owl:different_from(X, c)", False),
    ("prolog:(N is 1 + 2)", False),
    ("prolog:foo(X)", True),
    ("owl:bar(X, a)", True),
    ("not prolog:baz(X)", True),
    ("not owl:qux(X, X)", True),
    ("prolog:(X = a)", True),
]


@st.composite
def _mixed_programs(draw):
    """A program text, and whether some body literal names no builtin: an
    unknown call, or `X = a` where no fact defines `=`/2.  A rule whose
    first literal reads none/1, which holds no facts, never reaches the
    rest of its body."""
    defines_eq = draw(st.booleans())
    lines = ["p(a).", "p(b)."] + (["a = a."] if defines_eq else [])
    unknown = False
    for k in range(draw(st.integers(1, 3))):
        body = [draw(st.sampled_from(["p(X)", "none(X)"]))]
        for text, names_none in draw(
            st.lists(st.sampled_from(_LITERALS + [("X = a", not defines_eq)]), max_size=3)
        ):
            body.append(text)
            unknown = unknown or names_none
        lines.append(f"h{k}(X) :- {', '.join(body)}.")
    return "\n".join(lines) + "\n", unknown


@settings(max_examples=80, derandomize=True, database=None)
@given(_mixed_programs())
def test_every_command_reports_the_same_unknown_builtin(case):
    text, unknown = case
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "f.dl")
        with open(f, "w", encoding="utf-8") as handle:
            handle.write(text)
        results = []
        for argv in (
            ["parse", f],
            ["graph", f],
            ["diff", f, f, "--kind", "rpg"],
            ["eval", f],
            ["query", f, "--goal", "p(X)", "--template", "[X]"],
            ["prove", f, "--atom", "p(X)"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
    if unknown:
        (line,) = {err for _, _, err in results}
        assert line.startswith("error: ") and "unknown builtin" in line, text
        assert {(code, out) for code, out, _ in results} == {(1, "")}, text
    else:
        assert not any("unknown builtin" in out + err for _, out, err in results), text


# ===========================================================================
# determinism
# ===========================================================================


def test_repeated_runs_print_identical_output(capsys):
    cases = [
        ("graph", fx("ancestor.dl"), "--kind", "rpg", "--format", "json"),
        ("eval", fx("route.dl")),
        ("diff", fx("p1.dl"), fx("p2.dl"), "--kind", "rpg"),
    ]
    for argv in cases:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


# ===========================================================================
# start-up
# ===========================================================================


def test_import_generates_no_code():
    # value classes are written out in source: importing the command line
    # loads neither dataclasses, which compiles methods at every start,
    # nor inspect, which it pulls in
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ddlite.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_compiles_no_pattern():
    # every module keeps its patterns as sources that kernel.pattern
    # compiles on first use, so importing compiles none
    code = (
        "import re; seen = []; compile = re.compile\n"
        "re.compile = lambda *a, **k: seen.append(a[0]) or compile(*a, **k)\n"
        "import ddlite.cli, ddlite.engine, ddlite.graphs, ddlite.hybrid\n"
        "import ddlite.magic, ddlite.syntax, ddlite.xmlterm\n"
        "print(seen)"
    )
    assert _child("-S", "-c", code) == (0, "[]\n", "")


def test_every_imported_name_is_used():
    # an import that nothing reads is start-up work and a false lead for
    # the reader; __init__ is exempt, as it imports to re-export
    unused = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ddlite").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _child(*args):
    """A child interpreter on src, its (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", fx("route.dl")],
        ["graph", fx("ancestor.dl"), "--kind", "rpg", "--format", "json"],
        ["diff", fx("p1.dl"), fx("p2.dl"), "--kind", "rpg", "--format", "json"],
        ["eval", fx("route.dl")],
        ["swrl", fx("uncle.swrl"), "--emit", "report"],
        ["query", "--csv", f"employee={fx('employee.csv')}", "--base-dir", str(FIXTURES),
         "--goal", HOURS_GOAL, "--template", "[D, sum(H)]", "--format", "json"],
        ["prove", fx("route.dl"), "--atom", "route('KT', 'Mue', L, T)", "--format", "ascii"],
        ["parse", fx("brother.csv")],  # a domain error: exit 1
        ["eval", fx("missing.dl")],  # an I/O error: exit 2
        ["eval", fx("route.dl"), "--bogus"],  # a usage error: exit 2
        ["diff", fx("p1.dl"), fx("p2.dl"), "--bogus"],
        [],
        ["--help"],
        ["-h", "eval"],
        ["evl"],
        ["eval", "--help"],
        ["eval", fx("route.dl"), "--format", "xml"],
        ["query", fx("route.dl"), "--template", "[L]"],
    ],
    ids=["parse", "graph", "diff", "eval", "swrl", "query", "prove", "domain-error",
         "missing-file", "bad-flag", "bad-diff-flag", "no-command", "help",
         "help-before-command", "unknown-command", "command-help", "bad-choice",
         "missing-goal"],
)
def test_the_process_entry_matches_main(argv):
    # run(), behind `python -m ddlite.cli` and the `ddlite` script, gives
    # main's exit code and output byte for byte, however the command ends
    assert _child("-m", "ddlite.cli", *argv) == _in_process(argv)


def test_eval_prints_the_same_bytes_in_every_process(tmp_path):
    # constants hash by identity, which differs from one process to the
    # next, as string hashes differ by PYTHONHASHSEED: a closure, a same
    # generation and a negation over them print alike all the same
    chain = [f"n{i}" for i in range(12)]
    facts = [f"edge({a}, {b})." for a, b in zip(chain, chain[1:])]
    facts += [f"edge(n{2 * k}, leaf{k})." for k in range(4)]
    facts += [f"par(t{i}, t{(i - 1) // 2})." for i in range(1, 15)]
    facts += [f"node({n})." for n in chain + [f"t{i}" for i in range(15)]]
    program = tmp_path / "closure.dl"
    program.write_text("\n".join([
        "path(X, Y) :- edge(X, Y).",
        "path(X, Y) :- edge(X, Z), path(Z, Y).",
        "sg(X, Y) :- par(X, P), par(Y, P).",
        "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).",
        "unreach(X) :- node(X), not path(n0, X).",
        *facts[::-1],
    ]) + "\n")
    for fmt in ("text", "json"):
        runs = {
            subprocess.run(
                [sys.executable, "-m", "ddlite.cli", "eval", str(program), "--format", fmt],
                capture_output=True, env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                timeout=60, check=True,
            ).stdout
            for seed in ("0", "1", "random")
        }
        assert len(runs) == 1


def test_the_process_entry_reports_a_closed_stdout():
    # output to a pipe that no one reads is an I/O error, as in main, also
    # where stdout is block-buffered (no PYTHONUNBUFFERED) and the first
    # write to fail is run()'s flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddlite.cli", "eval", fx("route.dl")],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(env, PYTHONPATH=SRC), timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "fd, argv, code",
    [
        (2, ["eval", fx("route.dl")], 0),
        (2, ["eval", "nosuch.dl"], 2),
        (1, ["eval", "--help"], 0),
        (1, ["eval", "nosuch.dl"], 2),
        (1, ["eval", fx("route.dl"), "--bogus"], 2),
    ],
    ids=["stderr-eval", "stderr-error", "stdout-help", "stdout-error", "stdout-usage"],
)
def test_the_process_entry_keeps_its_status_with_a_stream_closed(fd, argv, code):
    # a stream whose fd is closed at start-up is None in sys; run() flushes
    # only the streams it has and exits with main's status
    proc = subprocess.run(
        [sys.executable, "-m", "ddlite.cli", *argv], capture_output=True, text=True,
        preexec_fn=lambda: os.close(fd), env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert (proc.returncode, "Traceback" in proc.stderr) == (code, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", fx("route.dl")],
        ["graph", fx("route.dl")],
        ["graph", fx("route.dl"), "--format", "dot"],
        ["diff", fx("route.dl"), fx("route_plain.dl")],
        ["eval", fx("route.dl")],
        ["swrl", fx("uncle.swrl")],
        ["query", fx("route.dl"), "--goal", "route(A, B, L, T)", "--template", "[L]"],
        ["prove", fx("route.dl"), "--atom", "route(A, B, L, T)"],
    ],
    ids=["parse", "graph", "graph-dot", "diff", "eval", "swrl", "query", "prove"],
)
def test_a_command_with_stdout_closed_keeps_its_status(argv):
    # with fd 1 closed at start-up, sys.stdout is None: a command writes
    # nothing, as print then does, and exits as it does with stdout open
    def child(**closing):
        return subprocess.run(
            [sys.executable, "-m", "ddlite.cli", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=60, **closing,
        )

    opened, closed = child(), child(preexec_fn=lambda: os.close(1))
    assert opened.stdout
    assert (closed.returncode, "Traceback" in closed.stderr) == (opened.returncode, False)


def _outcome(read, argv):
    """vars() of the namespace read(argv) gives, None, or what it raised:
    (exception type, message), or ("exit", code) for argparse's exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = read(argv)
    except SystemExit as exc:
        return "exit", exc.code
    except Exception as exc:
        return type(exc), str(exc)
    return None if args is None else vars(args)


def _argparse(argv):
    return build_parser().parse_args(argv)


def test_the_reader_agrees_with_argparse_on_every_golden_argv():
    # the reader gives argparse's namespace, or raises as it does, or
    # declines; it declines only where argparse exits (help and usage
    # errors) or a value starts with '-', so every command that runs is
    # read without argparse
    golden = Path(__file__).parent / "golden" / "cli.json"
    argvs = [t["argv"] for t in json.loads(golden.read_text(encoding="utf-8"))]
    read = 0
    for argv in argvs:
        got, want = _outcome(_read_args, argv), _outcome(_argparse, argv)
        if got is None:
            dashed = any(w.startswith("-") and w[1:2].isdigit() for w in argv)
            assert want[0] == "exit" or dashed, argv
        else:
            read += 1
            assert got == want, argv
    assert read > 500


_CHOICES = sorted({choice for _, _, arguments in COMMAND_TABLE.values()
                   for _, keywords in arguments for choice in keywords.get("choices", ())})
_ODD_WORDS = st.sampled_from(
    ["", "a=b", "-1", "-x", "-", "--", "-h", "--help", "--bogus", *_CHOICES]
) | st.text(max_size=3)


@st.composite
def _argvs(draw):
    """A command (or none that exists) and words drawn from its arguments:
    flags exact, abbreviated or as --flag=value, values in and out of
    choices or starting with '-', positionals too few or too many, --
    and -h among them."""
    command = draw(st.sampled_from([*COMMANDS, "evl", "-h"]))
    arguments = COMMAND_TABLE.get(command, COMMAND_TABLE["eval"])[2]
    argv = [command]
    if draw(st.integers(0, 3)):  # mostly from the positionals and required flags
        for arg, keywords in arguments:
            if keywords.get("required"):
                argv += [arg, "x"]
            elif not arg.startswith("--") and keywords.get("nargs") != "?":
                argv.append("f.dl")
    for _ in range(draw(st.integers(0, 5))):
        arg, keywords = draw(st.sampled_from(arguments))
        odd = draw(st.integers(0, 9))  # 0, 1: an odd value; 2, 3: an odd spelling
        plain = keywords.get("choices") or ("f.dl", "x", "3")
        value = draw(_ODD_WORDS if odd < 2 else st.sampled_from(plain))
        if not arg.startswith("--"):
            if odd < 4:  # a positional too many, or one a flag's value
                argv.append(value)
        elif odd in (2, 3):
            argv += draw(st.sampled_from([[arg[:-2], value], [f"{arg}={value}"]]))
        elif keywords.get("action") == "store_true":
            argv.append(arg)
        else:
            argv += [arg, value]
    return argv


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_argvs())
def test_the_reader_agrees_with_argparse_or_declines(argv):
    got = _outcome(_read_args, argv)
    if got is not None:
        assert got == _outcome(_argparse, argv)


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        ([], 0, "[]"),
        (["eval", fx("route.dl")], 0, "['ddlite.engine', 'ddlite.graphs']"),
        (["prove", fx("route.dl"), "--atom", "route('KT', 'Mue', L, T)"], 0,
         "['ddlite.engine', 'ddlite.graphs', 'ddlite.magic']"),
        (["query", fx("route.dl"), "--goal", "route(A, B, L, T)", "--template", "[L]"],
         0, "['csv', 'ddlite.engine', 'ddlite.graphs', 'ddlite.hybrid', 'ddlite.xmlterm']"),
        (["swrl", fx("uncle.swrl")], 0, "[]"),
        (["diff", fx("p1.dl"), fx("p2.dl"), "--kind", "rpg"], 0, "['ddlite.graphs']"),
        (["eval", "--help"], 0, "['argparse']"),
        (["eval", fx("route.dl"), "--bogus"], 2, "['argparse']"),
    ],
    ids=["import", "eval", "prove", "query", "swrl", "diff", "help", "usage-error"],
)
def test_a_command_loads_only_what_it_runs(argv, code, loaded):
    # json is loaded by --format json, the engine (with graphs) by the
    # commands that check a program's safety or evaluate it, graphs by
    # graph and diff, which check rule text's builtin calls in the kernel,
    # the hybrid layer and csv by --csv, query and schema graphs, the XML
    # reader by query, schema graphs and RuleML, the magic-set rewrite by
    # prove alone, argparse (with gettext and locale)
    # by help and usage errors alone, and typing by nothing; site-packages
    # (-S) loads none of them.  swrl runs on the kernel and the readers
    # alone.  The child exits with main's status, and its stderr is the
    # loaded line alone, but for a usage error's message before it
    script = (
        "import sys\n"
        "from ddlite.cli import main\n"
        "status = 0\n"
        "if sys.argv[1:]:\n"
        "    try:\n"
        "        status = main(sys.argv[1:])\n"
        "    except SystemExit as exc:  # argparse's help and usage errors\n"
        "        status = exc.code\n"
        "names = {'json', 'csv', 'ddlite.engine', 'ddlite.graphs', 'ddlite.hybrid',\n"
        "         'ddlite.magic', 'ddlite.xmlterm', 'argparse', 'gettext', 'locale', 'typing'}\n"
        "if 'argparse' in sys.modules:  # what it loads itself varies by version\n"
        "    names -= {'gettext', 'locale'}\n"
        "print(sorted(names & set(sys.modules)), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    got_code, _, err = _child("-S", "-c", script, *argv)
    if code == 2:
        assert err.startswith("usage: ")
        err = err.splitlines(keepends=True)[-1]
    assert (got_code, err) == (code, loaded + "\n")


def _sized_inputs(directory: Path, n: int) -> list[list[str]]:
    """Commands on inputs of size n, written to directory: a path/2 chain
    of n edges, a CSV of n rows, n SWRL rules and two versions of a rule
    base of n rules."""
    chain, csv_file = directory / "chain.dl", directory / "emp.csv"
    swrl, left, right = directory / "rules.swrl", directory / "v1.dl", directory / "v2.dl"
    chain.write_text(
        "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(n))
        + "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    )
    csv_file.write_text("".join(f"e{i},{i},d{i % 5}\n" for i in range(n)))
    swrl.write_text("".join(
        f"Implies(Antecedent(p{i}(I-variable(x)) q{i}(I-variable(x) I-variable(y))) "
        f"Consequent(r{i}(I-variable(y))))\n"
        for i in range(n)
    ))
    rules = [f"p{i}(X) :- q{i}(X, Y), r{i}(Y).\n" for i in range(n)]
    left.write_text("".join(rules))
    right.write_text("".join(reversed(rules)))
    return [
        ["eval", str(chain)],
        ["eval", str(chain), "--auto-pt"],
        ["prove", str(chain), "--auto-pt", "--atom", f"path(n0, n{n}, T)"],
        ["query", "--csv", f"emp={csv_file}", "--goal", "emp(N, S, D)",
         "--template", "[D, count(N)]"],
        ["swrl", str(swrl)],
        ["diff", str(left), str(right), "--kind", "rpg"],
    ]


def test_a_command_leaves_no_garbage_that_grows_with_its_input(tmp_path):
    # the process entry runs a command with the cyclic collector off, so
    # a reference cycle through the data would hold it until exit: the
    # objects gc.collect finds unreachable after each command are as many
    # at n as at 4n
    script = (
        "import gc, io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from ddlite.cli import main\n"
        "gc.disable()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code, gc.collect())\n"
    )
    found = []
    for n in (10, 40):
        (tmp_path / str(n)).mkdir()
        code, out, err = _child("-c", script, json.dumps(_sized_inputs(tmp_path / str(n), n)))
        assert (code, err) == (0, "")
        found.append(out.splitlines())
    assert found[0] == found[1] and all(line.startswith("0 ") for line in found[0]), found


PUBLIC_NAMES = [
    "AggTemplate", "Atom", "BUILTINS", "Compound", "Const", "CycleError", "DdliteError",
    "DepGraph", "DiffReport", "Edge", "EvalOptions", "EvalTypeError", "FactStore",
    "InstantiationError", "Literal", "MetaCallNode", "Num", "ParseError", "PathBinding",
    "PathExpr", "PredKey", "PredNode", "Program", "ResourceLimitExceeded", "Rule",
    "RuleNode", "SafetyError", "SourceSpan", "Strata", "TagNode", "Term", "Text",
    "UnknownBuiltin", "Var", "Violation", "XmlParseError", "XmlTerm", "apply", "auto_pt",
    "build_pdg", "build_rpg", "call_builtin", "check_safety", "ddbase_aggregate",
    "dump_facts", "engine", "equivalent_modulo_helpers", "errors", "evaluate",
    "facts_as_rules", "graph_diff", "graph_to_json", "graphs", "hybrid", "is_ground",
    "kernel", "lloyd_topor", "load_facts_csv", "load_xml", "mgu", "mklist",
    "parse_goal", "parse_program", "parse_ruleml_xml", "parse_swrl", "parse_template",
    "parse_xml", "path_eval", "print_program", "proof_tree", "reachable",
    "rename_apart", "render_proof_tree", "rule_text", "schema_graph", "solve_goal",
    "stratify", "swrl_to_datalog", "syntax", "term_text", "term_vars", "to_dot", "tree_of",
    "unfold_helper", "validate_fact", "validate_store", "xml_to_text", "xmlterm",
]
SUBMODULES = ["engine", "errors", "graphs", "hybrid", "kernel", "syntax", "xmlterm"]


def test_package_names_resolve_on_first_use():
    # importing the package loads no submodule, yet dir() lists every public
    # name; each, looked up first in a fresh process, is the object every
    # submodule holding it has
    script = (
        "import importlib, sys\n"
        "import ddlite\n"
        "print(sorted(m for m in sys.modules if m.startswith('ddlite')))\n"
        "print(sorted(ddlite.__all__))\n"
        "print(sorted(set(ddlite.__all__) - set(dir(ddlite))))\n"
        f"subs = {SUBMODULES!r}\n"
        "wrong = []\n"
        "for name in ddlite.__all__:\n"
        "    value = getattr(ddlite, name)\n"
        "    if name in subs:\n"
        "        ok = value is importlib.import_module('ddlite.' + name)\n"
        "    else:\n"
        "        held = [getattr(importlib.import_module('ddlite.' + m), name, None) for m in subs]\n"
        "        ok = value in held and all(h is None or h is value for h in held)\n"
        "    if not ok:\n"
        "        wrong.append(name)\n"
        "print(wrong)\n"
    )
    code, out, err = _child("-S", "-c", script)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["['ddlite']", repr(PUBLIC_NAMES), "[]", "[]"]
    import ddlite

    assert sorted(ddlite.__all__) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ddlite.nope


def test_main_leaves_the_collector_alone(capsys):
    # only the process entry turns the collector off, and it ends the
    # process without teardown (os._exit), so no heap is left to freeze:
    # main(argv) runs inside callers, such as this test session, whose
    # collector must stay as it is
    frozen = gc.get_freeze_count()
    for argv in (
        ["eval", fx("route.dl")],
        ["prove", fx("route.dl"), "--atom", "route('KT', 'Mue', L, T)"],
        ["eval", fx("missing.dl")],
        ["eval", fx("route.dl"), "--bogus"],
    ):
        try:
            main(argv)
        except SystemExit:  # argparse usage errors
            pass
        assert gc.isenabled() and gc.get_freeze_count() == frozen

    def gc_uses(tree):
        return sorted(
            f"gc.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "gc"
        )

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((Path(SRC) / "ddlite").glob("*.py"))
    }
    uses = {name: gc_uses(tree) for name, tree in trees.items() if gc_uses(tree)}
    run = next(fn for fn in trees["cli.py"].body
               if isinstance(fn, ast.FunctionDef) and fn.name == "run")
    # every use, module level included, is in cli.run
    assert uses == {"cli.py": ["gc.disable"]} == {"cli.py": gc_uses(run)}
