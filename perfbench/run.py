"""ddlite benchmark: seeded CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --smoke

Run it from the root of a ddlite source tree.  Each op runs real
`python -m ddlite.cli ...` commands as child processes, with PYTHONPATH
set to the tree's src/ and a fixed environment without DDLITE_*
variables, in a closed loop: one client, one child at a time.  Every
op's stdout is checked against an oracle in workloads.py and must be
byte-identical across the ops of a run.

Each round of the loop runs one op, one reference run (fixed Python work
outside ddlite) and one setup sample.  --trace 0 reports the end-to-end
metrics: op wall and CPU time as ratios to the reference run (gated),
peak RSS and setup time, and the raw seconds beside them.  --trace 1 adds
traced replays (traced.py) at full and at half size to each round and
reports per-layer span self times, counts and growth exponents.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
full report, spans included, goes to perfbench/.work/.

Linux only: children are reaped with os.wait4 for their rusage and
timed out through a pidfd.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Case, make_case  # noqa: E402

STEP_TIMEOUT_S = 20.0  # a command still running after this is killed

# per-layer span metrics, by span name
SPAN_METRICS = (
    "syntax.parse_program", "syntax.parse_swrl", "syntax.swrl_to_datalog",
    "syntax.print_program", "xmlterm.parse_xml", "engine.check_safety",
    "engine.stratify", "engine.auto_pt", "engine.evaluate", "engine.dump_facts",
    "engine.render_proof_tree", "hybrid.load_facts_csv", "hybrid.solve_goal",
    "graphs.build_rpg", "graphs.graph_diff",
)
COUNT_METRICS = (
    "engine.facts", "engine.strata", "engine.out_bytes", "hybrid.answers",
    "hybrid.groups", "graphs.nodes", "graphs.edges",
)
GROWTH_METRICS = {  # metric -> span timed at full and at half size
    "engine.evaluate_growth": "engine.evaluate",
    "hybrid.solve_goal_growth": "hybrid.solve_goal",
    "graphs.graph_diff_growth": "graphs.graph_diff",
    "syntax.parse_swrl_growth": "syntax.parse_swrl",
}
# The gated end-to-end metrics (BENCHMARK.json), then the raw figures
# every run also reports.  The host's speed drifts by 25-50% over tens of
# seconds on a shared machine, so raw seconds spread too widely between
# runs to gate on; the *_ref metrics divide each op by a reference run
# right after it, which cancels that drift.
END_TO_END_UNITS = {
    "op_p50_ref": "ref", "op_tail_ref": "ref", "cpu_p50_ref": "ref",
    "peak_rss_mb": "MB", "setup_s": "s",
}
RAW_UNITS = {
    "op_p50_s": "s", "op_tail_s": "s", "cpu_p50_s": "s", "units_per_s": "1/s",
    "ref_p50_s": "s", "error_rate": "ratio",
}

# The reference: fixed pure-Python work that does not touch ddlite, so a
# change to ddlite moves the op and never the reference.  It builds,
# indexes and sorts tuples in a working set near the ops' own (about
# 20 MB), because the host's slow phases hurt memory-heavy work most.
REFERENCE = (
    "rows = [(i % 977, str(i), (i, i + 1)) for i in range(120000)]\n"
    "index = {}\n"
    "for r in rows:\n"
    "    index.setdefault(r[0], []).append(r)\n"
    "rows.sort(key=lambda r: (r[1], r[0]))\n"
)


def child_env() -> dict:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


# ---------------------------------------------------------------- children


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    timed_out: bool


def spawn(argv: list[str], out_path: Path, err_path: Path) -> Child:
    """Run one child to its end; stdout and stderr go to files."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(int(STEP_TIMEOUT_S * 1000))
        if timed_out:
            proc.kill()  # not yet reaped, so the pid is still this child's
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=(end - start) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        code=proc.returncode,
        timed_out=timed_out,
    )


def setup_once(workdir: Path) -> float:
    """Wall seconds to start the interpreter and import ddlite.cli."""
    child = spawn([sys.executable, "-c", "import ddlite.cli"],
                  workdir / "setup.out", workdir / "setup.err")
    if child.code != 0:
        first = (workdir / "setup.err").read_text(errors="replace").splitlines()[:1]
        raise SystemExit(f"error: cannot import ddlite.cli: {first}")
    return child.wall_s


def reference_once(workdir: Path) -> Child:
    child = spawn([sys.executable, "-S", "-c", REFERENCE],
                  workdir / "reference.out", workdir / "reference.err")
    if child.code != 0:
        raise SystemExit("error: the reference run failed")
    return child


# ---------------------------------------------------------------- ops


@dataclass
class Op:
    op: int
    size: str
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    units: int = 0
    error: Optional[str] = None
    traced_total_s: float = 0.0
    ref_wall_s: float = 0.0  # the reference run that followed an untraced op
    ref_cpu_s: float = 0.0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Runner:
    """Runs ops of one workload and checks every output; the first
    output of each step at each size is the reference the others must
    match byte for byte."""

    def __init__(self):
        self.reference: dict[tuple, bytes] = {}
        self.ops: list[Op] = []

    def run(self, case: Case, traced: bool) -> Op:
        op = Op(op=len(self.ops), size=case.root.name, traced=traced)
        self.ops.append(op)
        base = case.root
        for k, step in enumerate(case.steps):
            err = base / f"{step.stdout}.err"
            spans_file = base / f"{step.stdout}.spans.json"
            if traced:
                argv = [sys.executable, str(BENCH / "traced.py"), step.replay,
                        json.dumps(step.params), str(spans_file), str(op.op)]
            else:
                argv = [sys.executable, "-m", "ddlite.cli", *step.argv]
            child = spawn(argv, base / step.stdout, err)
            op.wall_s += child.wall_s
            op.cpu_s += child.cpu_s
            op.rss_mb = max(op.rss_mb, child.rss_mb)
            op.error = self._verdict(case, k, child, base / step.stdout, err)
            if op.error is not None:
                return op
            if traced:
                data = json.loads(spans_file.read_text())
                # the whole child, as for an untraced step, less its probes
                op.traced_total_s += child.wall_s - sum(
                    _dur(s) for s in data["spans"] if s["probe"])
                op.spans.extend({**s, "step": k} for s in data["spans"])
                op.counts.update(data["counts"])
        op.units = case.units
        return op

    def _verdict(self, case: Case, k: int, child: Child, out: Path, err: Path) -> Optional[str]:
        if child.timed_out:
            return f"timed out after {STEP_TIMEOUT_S:g} s"
        if child.code != 0:
            first = err.read_text(errors="replace").splitlines()[:1]
            return f"exit {child.code}: {first[0] if first else ''}"
        data = out.read_bytes()
        reason = case.steps[k].check(data)
        if reason is not None:
            return reason
        ref = self.reference.setdefault((case.root, k), data)
        if ref != data:
            return "stdout differs from the run's first output"
        return None


# ---------------------------------------------------------------- metrics


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples
    beyond it, and that percentile.  With ten or fewer samples, the
    maximum at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    """Gated metrics and raw figures of the untraced ops of one run."""
    walls = [o.wall_s for o in ops]
    ratios = [o.wall_s / o.ref_wall_s for o in ops]
    tail_s, pct = tail(walls)
    return {
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": tail(ratios)[0],
        "cpu_p50_ref": statistics.median(o.cpu_s / o.ref_cpu_s for o in ops),
        "peak_rss_mb": statistics.median(o.rss_mb for o in ops),
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "cpu_p50_s": statistics.median(o.cpu_s for o in ops),
        # per second of op wall time: the closed loop without the
        # benchmark's own checks, setup and reference runs between ops
        "units_per_s": sum(o.units for o in ops) / sum(walls),
        "ref_p50_s": statistics.median(o.ref_wall_s for o in ops),
        "error_rate": sum(o.error is not None for o in ops) / len(ops),
        "op_tail_percentile": pct,
        "ops": len(ops),
    }


def _dur(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_times(op: Op) -> dict[str, float]:
    """Seconds of self time per span name in one op, spans of one name
    summed; probe spans count under their own names."""
    inner: dict[tuple, float] = {}
    for s in op.spans:
        if s["parent"] is not None:
            key = (s["step"], s["parent"])
            inner[key] = inner.get(key, 0.0) + _dur(s)
    out: dict[str, float] = {}
    for s in op.spans:
        own = _dur(s) - inner.get((s["step"], s["id"]), 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def per_layer(runner: Runner, e2e: dict, steps: int) -> dict:
    traced = [o for o in runner.ops if o.traced and o.error is None]
    full = [o for o in traced if o.size != "half"]
    half = [o for o in traced if o.size == "half"] or full
    if not full:
        return {}
    full_self = [self_times(o) for o in full]
    half_self = [self_times(o) for o in half]

    def med(rows, name):
        return statistics.median(r.get(name, 0.0) for r in rows)

    metrics: dict[str, float] = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = med(full_self, name)
    metrics["hybrid.group_s"] = statistics.median(
        r.get("hybrid.ddbase_aggregate", 0.0) - r.get("hybrid.solve_goal", 0.0)
        for r in full_self
    )
    for name in COUNT_METRICS:
        metrics[name] = full[-1].counts.get(name, 0)
    evaluate_s = metrics["engine.evaluate_s"]
    metrics["engine.facts_per_s"] = metrics["engine.facts"] / evaluate_s if evaluate_s else 0.0
    metrics["cli.import_s"] = med(full_self, "cli.import") / steps
    # time inside the calls the root span (id 0) makes, less the import,
    # which setup_s already covers
    summed = [
        sum(_dur(s) for s in o.spans if s["parent"] == 0 and s["name"] != "cli.import")
        for o in full
    ]
    metrics["cli.unattributed_s"] = e2e["op_p50_s"] - steps * e2e["setup_s"] - statistics.median(summed)
    for metric, span in GROWTH_METRICS.items():
        t_full, t_half = med(full_self, span), med(half_self, span)
        metrics[metric] = math.log2(t_full / t_half) if t_full > 0 and t_half > 0 else 0.0
    metrics["trace.overhead_s"] = statistics.median(o.traced_total_s for o in full) - e2e["op_p50_s"]
    return metrics


# ---------------------------------------------------------------- one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workdir = WORK / workload
    full = make_case(workload, seed, "smoke" if smoke else "full", workdir / "full")
    half = None
    if trace:
        half = make_case(workload, seed, "smoke" if smoke else "half", workdir / "half")
    setup_once(workdir)  # unmeasured: writes the bytecode cache
    setups: list[float] = []
    runner = Runner()
    plain: list[Op] = []
    deadline = time.monotonic() + seconds
    while True:
        op = runner.run(full, traced=False)
        ref = reference_once(workdir)
        op.ref_wall_s, op.ref_cpu_s = ref.wall_s, ref.cpu_s
        plain.append(op)
        # one setup sample per round, so setup_s sees the same machine
        # as the ops do
        setups.append(setup_once(workdir))
        if trace:
            runner.run(full, traced=True)
            runner.run(half, traced=True)
        if smoke or time.monotonic() >= deadline:
            break
    e2e = end_to_end(plain, statistics.median(setups))
    failures = [f"op {o.op} ({o.size}, {'traced' if o.traced else 'plain'}): {o.error}"
                for o in runner.ops if o.error is not None]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "sizes": {"full": full.sizes, "half": half.sizes if half else None},
        "units_per_op": full.units,
        "attempted": len(runner.ops),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "ops_detail": [
            {k: v for k, v in vars(o).items() if k != "spans"} for o in runner.ops
        ],
    }
    if trace:
        report["per_layer"] = per_layer(runner, e2e, len(full.steps))
        report["self_times"] = [
            {"op": o.op, "size": o.size, "self_s": self_times(o)}
            for o in runner.ops if o.traced and o.error is None
        ]
        report["spans"] = [s for o in runner.ops for s in o.spans]
    name = f"report-{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (WORK / name).write_text(json.dumps(report, indent=1))
    return report


def result_line(reports: list[dict], trace: bool, prefix: bool) -> dict:
    metrics = {}
    for r in reports:
        if trace:
            values = {n: (v, layer_unit(n)) for n, v in r["per_layer"].items()}
        else:
            values = {n: (r["end_to_end"][n], u) for n, u in END_TO_END_UNITS.items()}
        for name, (value, unit) in values.items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0 and all(r["per_layer"] for r in reports if trace),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_growth"):
        return "log2"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "engine.out_bytes":
        return "bytes"
    return "count"


def print_report(r: dict, trace: bool) -> None:
    e2e = r["end_to_end"]
    print(f"== {r['workload']}  seed {r['seed']}  sizes {r['sizes']['full']}  "
          f"{e2e['ops']} untraced ops, {r['attempted']} attempted, {r['failed']} failed")
    for name, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        note = ""
        if name.startswith("op_tail"):
            note = f"  (p{e2e['op_tail_percentile']:.1f} of {e2e['ops']} ops)"
        print(f"  {name:<28} {e2e[name]:>14.6f} {unit}{note}")
    if trace:
        for name, value in r["per_layer"].items():
            print(f"  {name:<28} {value:>14.6f} {layer_unit(name)}")
    for line in r["failures"][:5]:
        print(f"  failure: {line}")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the op loop of each workload runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one op of each kind, traced run included")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ddlite" / "cli.py").is_file():
        print(f"error: no ddlite source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.smoke
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, trace, args.smoke)
        print_report(report, trace)
        reports.append(report)
    print(json.dumps(result_line(reports, bool(args.trace), len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
