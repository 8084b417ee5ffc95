"""Seeded workload generators and their independent oracles.

Each workload turns (seed, size) into input files in a work directory and
a list of steps.  A step is one `ddlite` command: its arguments, the file
its stdout goes to, the traced replay that mirrors it (see traced.py) and
a check that compares the bytes it printed against an answer computed
here, in plain Python, without calling ddlite.

The seed changes names, values and file order; it never changes the
shape of the input, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

Check = Callable[[bytes], Optional[str]]


@dataclass
class Step:
    argv: list[str]  # arguments after `python -m ddlite.cli`
    stdout: str  # file in the case directory that receives stdout
    replay: str  # name of the traced replay in traced.py
    params: dict  # arguments of that replay
    check: Check  # None when the output is right, else the reason


@dataclass
class Case:
    """One generated input set at one size."""

    workload: str
    root: Path  # directory of the inputs and outputs
    sizes: dict
    steps: list[Step]
    units: int  # work units one op completes


def _names(rng: random.Random, k: int, prefix: str) -> list[str]:
    """k distinct lowercase names of equal length, so no seed makes the
    text longer or shorter."""
    return [f"{prefix}{v}" for v in rng.sample(range(10000, 100000), k)]


def _exact(expected: str) -> Check:
    want = expected.encode()

    def check(out: bytes) -> Optional[str]:
        if out == want:
            return None
        return f"stdout differs from the expected {len(want)} bytes (got {len(out)})"

    return check


# ---------------------------------------------------------------- closure

CLOSURE_SIZES = {
    "full": {"chain": 40, "spurs": 20, "tree": 31},
    "half": {"chain": 20, "spurs": 10, "tree": 15},
    "smoke": {"chain": 6, "spurs": 3, "tree": 7},
}


def _closure_oracle(start, edges, par, nodes) -> set[str]:
    """Reachability, same-generation and the negation stratum by plain
    set iteration."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    path = set()
    for src in {a for a, _ in edges}:
        seen, todo = set(), list(succ[src])
        while todo:
            n = todo.pop()
            if n not in seen:
                seen.add(n)
                todo.extend(succ.get(n, ()))
        path |= {(src, n) for n in seen}
    kids: dict[str, list[str]] = {}
    for child, parent in par:
        kids.setdefault(parent, []).append(child)
    sg = {(x, y) for group in kids.values() for x in group for y in group}
    todo = list(sg)
    while todo:
        xp, yp = todo.pop()
        for x in kids.get(xp, ()):
            for y in kids.get(yp, ()):
                if (x, y) not in sg:
                    sg.add((x, y))
                    todo.append((x, y))
    unreach = {n for n in nodes if (start, n) not in path}
    lines = {f"edge({a}, {b})." for a, b in edges}
    lines |= {f"par({a}, {b})." for a, b in par}
    lines |= {f"node({n})." for n in nodes}
    lines |= {f"path({a}, {b})." for a, b in path}
    lines |= {f"sg({a}, {b})." for a, b in sg}
    lines |= {f"unreach({n})." for n in unreach}
    return lines


def _closure_check(expected: set[str]) -> Check:
    def check(out: bytes) -> Optional[str]:
        lines = out.decode("utf-8", "replace").splitlines()
        got = set(lines)
        if len(got) != len(lines):
            return "duplicate fact lines"
        if got != expected:
            missing, extra = len(expected - got), len(got - expected)
            return f"fact set differs: {missing} missing, {extra} unexpected"
        return None

    return check


def make_closure(rng: random.Random, sizes: dict, root: Path) -> Case:
    chain, spurs, tree = sizes["chain"], sizes["spurs"], sizes["tree"]
    names = _names(rng, chain + 1 + spurs + tree, "n")
    cn, leaves, tn = names[: chain + 1], names[chain + 1 : chain + 1 + spurs], names[chain + 1 + spurs :]
    edges = [(cn[i], cn[i + 1]) for i in range(chain)]
    # spur k hangs off chain node 2k: fixed positions keep the fact count
    # the same for every seed
    edges += [(cn[(2 * k) % chain], leaves[k]) for k in range(spurs)]
    # heap-numbered binary tree, par(child, parent)
    par = [(tn[i], tn[(i - 1) // 2]) for i in range(1, tree)]
    nodes = cn + leaves + tn
    start = cn[0]
    facts = [f"edge({a}, {b})." for a, b in edges]
    facts += [f"par({a}, {b})." for a, b in par]
    facts += [f"node({n})." for n in nodes]
    rng.shuffle(facts)
    rules = [
        "path(X, Y) :- edge(X, Y).",
        "path(X, Y) :- edge(X, Z), path(Z, Y).",
        "sg(X, Y) :- par(X, P), par(Y, P).",
        "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).",
        f"unreach(X) :- node(X), not path({start}, X).",
    ]
    program = root / "closure.dl"
    program.write_text("\n".join(rules + facts) + "\n", encoding="utf-8")
    expected = _closure_oracle(start, edges, par, nodes)
    step = Step(
        argv=["eval", str(program)],
        stdout="eval.out",
        replay="eval",
        params={"file": str(program)},
        check=_closure_check(expected),
    )
    return Case("closure", root, sizes, [step], units=len(expected))


# ---------------------------------------------------------------- hybrid_hours

HOURS_GOAL = (
    "employee(Name, SSN, BDate, Sex, Salary, Super, D), "
    "R := doc('works_on.xml')/row::[@'ESSN' = SSN]@'HOURS', "
    "atom_number(R, H)"
)
HOURS_TEMPLATE = "[D, sum(H)]"

HYBRID_SIZES = {
    "full": {"employees": 1000, "rows": 2000, "depts": 20},
    "half": {"employees": 500, "rows": 1000, "depts": 20},
    "smoke": {"employees": 12, "rows": 24, "depts": 3},
}


def _sum_hours_by_dept(employees: list[list[str]], rows: list[dict]) -> list[list]:
    """Nested-loop join of every employee against every document row,
    fsum per department; rows whose HOURS is no number join nothing."""
    groups: dict[int, list[float]] = {}
    for emp in employees:
        ssn, dno = emp[1], int(emp[6])
        for row in rows:
            if row["ESSN"] != ssn:
                continue
            try:
                hours = float(row["HOURS"])
            except ValueError:
                continue
            groups.setdefault(dno, []).append(hours)
    return [[d, math.fsum(groups[d])] for d in sorted(groups)]


def _hybrid_check(expected: list[list]) -> Check:
    def check(out: bytes) -> Optional[str]:
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not a nested list"
        # hours are multiples of 0.5, so every sum is exact in any order
        if got != expected:
            return f"{len(got)} groups differ from the {len(expected)} expected"
        return None

    return check


def make_hybrid(rng: random.Random, sizes: dict, root: Path) -> Case:
    n_emp, n_rows, n_dept = sizes["employees"], sizes["rows"], sizes["depts"]
    ssns = [str(v) for v in rng.sample(range(100000, 1000000), n_emp + n_rows // 20)]
    emp_ssns, stray = ssns[:n_emp], ssns[n_emp:]
    first = _names(rng, n_emp, "e")
    employees = []
    for i, ssn in enumerate(emp_ssns):
        boss = "null" if i == 0 else emp_ssns[rng.randrange(i)]
        employees.append([
            first[i].capitalize(), ssn,
            f"19{rng.randrange(40, 99)}-0{rng.randrange(1, 10)}-1{rng.randrange(10)}",
            rng.choice("MF"), str(rng.randrange(20, 90) * 1000), boss,
            str(1 + i % n_dept),
        ])
    # exactly 10% NULL hours and 5% rows whose ESSN is no employee, so the
    # number of answers is the same for every seed
    n_null, n_stray = n_rows // 10, n_rows // 20
    rows = []
    for i in range(n_rows):
        if i < n_stray:
            essn = stray[i % len(stray)]
        else:
            essn = emp_ssns[i % n_emp]
        hours = "NULL" if n_stray <= i < n_stray + n_null else f"{rng.randrange(1, 81) * 0.5:.1f}"
        rows.append({"ESSN": essn, "PNO": str(rng.randrange(1, 40)), "HOURS": hours})
    rng.shuffle(rows)
    csv_path = root / "employee.csv"
    csv_path.write_text("".join(",".join(e) + "\n" for e in employees), encoding="utf-8")
    xml_lines = ['<table name="works_on">']
    xml_lines += [
        f'   <row ESSN="{r["ESSN"]}" PNO="{r["PNO"]}" HOURS="{r["HOURS"]}"/>' for r in rows
    ]
    xml_lines.append("</table>")
    (root / "works_on.xml").write_text("\n".join(xml_lines) + "\n", encoding="utf-8")
    expected = _sum_hours_by_dept(employees, rows)
    emp_set = set(emp_ssns)
    answers = sum(1 for r in rows if r["HOURS"] != "NULL" and r["ESSN"] in emp_set)
    step = Step(
        argv=["query", "--csv", f"employee={csv_path}", "--goal", HOURS_GOAL,
              "--template", HOURS_TEMPLATE, "--base-dir", str(root)],
        stdout="query.out",
        replay="query",
        params={"csv": {"employee": str(csv_path)}, "goal": HOURS_GOAL,
                "template": HOURS_TEMPLATE, "base_dir": str(root),
                "doc": "works_on.xml"},
        check=_hybrid_check(expected),
    )
    return Case("hybrid_hours", root, sizes, [step], units=answers)


# ---------------------------------------------------------------- proof_chain

PROOF_SIZES = {
    "full": {"streets": 16},
    "half": {"streets": 8},
    "smoke": {"streets": 3},
}

ROUTE_RULES = """\
% name: e
route(X, Y, L) :-
   street(X, Y, L).
% name: r
route(X, Y, L) :-
   street(X, Z, N), route(Z, Y, M),
   prolog:(L is N+M).
"""


def _route_listing(lengths: list[int]) -> str:
    """The ascii proof tree of route(c0, cN, L, T), built from the chain:
    each hop is rule r with its street fact, the last hop is rule e."""
    n = len(lengths)
    rest = [sum(lengths[i:]) for i in range(n + 1)]
    lines = []
    for i in range(n):
        pad = "  " * i
        last = i == n - 1
        lines.append(f"{pad}route(c{i}, c{n}, {rest[i]}) [{'e' if last else 'r'}]")
        if not last:
            lines.append(f"{pad}  where ({rest[i]} is {lengths[i]}+{rest[i + 1]})")
        lines.append(f"{pad}  street(c{i}, c{i + 1}, {lengths[i]}) [f{i + 1}]")
    return "\n".join(lines) + "\n"


def make_proof(rng: random.Random, sizes: dict, root: Path) -> Case:
    n = sizes["streets"]
    # a permutation of 1..n: the route from c0 to cn is always n(n+1)/2 long
    lengths = list(range(1, n + 1))
    rng.shuffle(lengths)
    facts = [
        f"% name: f{i + 1}\nstreet(c{i}, c{i + 1}, {lengths[i]})." for i in range(n)
    ]
    rng.shuffle(facts)
    program = root / "route_chain.dl"
    program.write_text(ROUTE_RULES + "\n".join(facts) + "\n", encoding="utf-8")
    listing = _route_listing(lengths)
    assert listing.startswith(f"route(c0, c{n}, {n * (n + 1) // 2}) ")
    atom = f"route(c0, c{n}, L, T)"
    step = Step(
        argv=["prove", str(program), "--auto-pt", "--atom", atom, "--format", "ascii"],
        stdout="prove.out",
        replay="prove",
        params={"file": str(program), "atom": atom, "format": "ascii"},
        check=_exact(listing),
    )
    # the model: n streets and a route for every pair i < j
    return Case("proof_chain", root, sizes, [step], units=n + n * (n + 1) // 2)


# ---------------------------------------------------------------- rulebase

RULEBASE_SIZES = {
    "full": {"rules": 260},
    "half": {"rules": 130},
    "smoke": {"rules": 8},
}


def _swrl_atom(name: str, *vars_: str) -> str:
    args = " ".join(f"I-variable({v})" for v in vars_)
    return f"{name}({args})"


def make_rulebase(rng: random.Random, sizes: dict, root: Path) -> Case:
    n = sizes["rules"]
    props = _names(rng, max(2, n // 3), "prop")
    classes = _names(rng, max(1, n // 20), "cls")
    with_class = set(rng.sample(range(n), round(0.3 * n)))
    swrl, datalog = [], []
    for k in range(n):
        p, q, h = rng.choice(props), rng.choice(props), rng.choice(props)
        body = [(p, "x", "y"), (q, "y", "z")]
        if k in with_class:
            body.insert(rng.randrange(3), (rng.choice(classes), rng.choice("xz")))
        swrl.append(
            "Implies(\n   Antecedent(\n"
            + "\n".join("      " + _swrl_atom(a[0], *a[1:]) for a in body)
            + ")\n   Consequent(\n      "
            + _swrl_atom(h, "x", "z")
            + "))"
        )
        body_text = ", ".join(f"{a[0]}({', '.join(v.upper() for v in a[1:])})" for a in body)
        datalog.append(f"{h}(X, Z) :- {body_text}.")
    rules_path = root / "rules.swrl"
    rules_path.write_text("\n".join(swrl) + "\n", encoding="utf-8")
    expected = "".join(line + "\n" for line in datalog)
    shuffled = list(datalog)
    rng.shuffle(shuffled)
    right = root / "shuffled.dl"
    right.write_text("".join(line + "\n" for line in shuffled), encoding="utf-8")
    left = root / "swrl.out"
    steps = [
        Step(
            argv=["swrl", str(rules_path)],
            stdout="swrl.out",
            replay="swrl",
            params={"file": str(rules_path)},
            check=_exact(expected),
        ),
        Step(
            argv=["diff", str(left), str(right), "--kind", "rpg"],
            stdout="diff.out",
            replay="diff",
            params={"left": str(left), "right": str(right)},
            check=_exact("no differences\n"),
        ),
    ]
    return Case("rulebase", root, sizes, steps, units=n)


# ---------------------------------------------------------------- registry

WORKLOADS = {
    "closure": (make_closure, CLOSURE_SIZES),
    "hybrid_hours": (make_hybrid, HYBRID_SIZES),
    "proof_chain": (make_proof, PROOF_SIZES),
    "rulebase": (make_rulebase, RULEBASE_SIZES),
}


def make_case(workload: str, seed: int, size: str, root: Path) -> Case:
    """Generate the inputs of one workload at one size into root."""
    make, table = WORKLOADS[workload]
    root.mkdir(parents=True, exist_ok=True)
    # one stream per (workload, seed, size): the same seed gives the same files
    rng = random.Random(f"{workload}/{seed}/{size}")
    return make(rng, table[size], root)
