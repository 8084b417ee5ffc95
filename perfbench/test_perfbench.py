"""Checks of the benchmark itself: seeded generators, oracles that reject
wrong output, and one smoke run of every workload with the traced
replays wired in.  Run with `python -m pytest perfbench -q`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, _route_listing, make_case

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work" / "tests"
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _inputs(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_inputs(workload):
    a = make_case(workload, 7, "smoke", WORK / "a" / workload)
    make_case(workload, 7, "smoke", WORK / "b" / workload)
    c = make_case(workload, 8, "smoke", WORK / "c" / workload)
    assert _inputs(WORK / "a" / workload) == _inputs(WORK / "b" / workload)
    assert _inputs(WORK / "a" / workload) != _inputs(WORK / "c" / workload)
    # the seed changes names and order, never the amount of work
    assert a.units == c.units


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_oracles_reject_wrong_output(workload):
    case = make_case(workload, 3, "smoke", WORK / "wrong" / workload)
    for step in case.steps:
        assert step.check(b"") is not None
        assert step.check(b"no proof\n") is not None


def test_route_listing_matches_a_hand_written_tree():
    assert _route_listing([2, 1]) == (
        "route(c0, c2, 3) [r]\n"
        "  where (3 is 2+1)\n"
        "  street(c0, c1, 2) [f1]\n"
        "  route(c1, c2, 1) [e]\n"
        "    street(c1, c2, 1) [f2]\n"
    )
    case = make_case("proof_chain", 5, "full", WORK / "proof")
    n = case.sizes["streets"]
    assert case.units == n + n * (n + 1) // 2


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_smoke_run_checks_outputs_and_traces_every_layer():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke", "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(WORKLOADS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for workload in WORKLOADS:
        names = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items()
                 if k.startswith(workload + ".")}
        assert names == {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    busy = {
        "closure": ["syntax.parse_program_s", "engine.evaluate_s", "engine.dump_facts_s"],
        "hybrid_hours": ["hybrid.load_facts_csv_s", "xmlterm.parse_xml_s",
                         "hybrid.solve_goal_s", "engine.evaluate_s"],
        "proof_chain": ["engine.auto_pt_s", "engine.evaluate_s", "engine.render_proof_tree_s"],
        "rulebase": ["syntax.parse_swrl_s", "syntax.swrl_to_datalog_s",
                     "syntax.print_program_s", "graphs.build_rpg_s", "graphs.graph_diff_s"],
    }
    for workload, names in busy.items():
        for name in names + ["cli.import_s"]:
            assert metrics[f"{workload}.{name}"] > 0, (workload, name)
    idle = {
        "closure": ["hybrid.solve_goal_s", "graphs.graph_diff_s"],
        "rulebase": ["engine.evaluate_s", "hybrid.solve_goal_s"],
    }
    for workload, names in idle.items():
        for name in names:
            assert metrics[f"{workload}.{name}"] == 0, (workload, name)
    assert metrics["closure.engine.strata"] == 2
    assert metrics["hybrid_hours.hybrid.answers"] > 0
    assert metrics["rulebase.graphs.edges"] > metrics["rulebase.graphs.nodes"] > 0


def test_gated_metrics_match_benchmark_json():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_a_source_tree(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", BENCH / "no-such-tree")
    assert run.main(["--workload", "closure", "--smoke"]) == 2
    assert capsys.readouterr().out == ""
