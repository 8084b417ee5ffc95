"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/baseline.py --label "<commit>" --seeds 1-10 \
        --out perfbench/results/baseline.json

Each seed of each workload is one fresh `run.py --trace 0` process; the
summary gives, per gated end-to-end metric and per raw figure of the
run's report, the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median.  One `--trace 1` run per
workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = {"seed": seed, **json.loads(out.stdout.strip().splitlines()[-1])}
    report = BENCH / ".work" / f"report-{workload}-seed{seed}-trace{trace}.json"
    raw = json.loads(report.read_text())["end_to_end"]
    result["raw"] = {k: v for k, v in raw.items() if k not in result["metrics"]}
    return result


def summarize(values_by_name: dict) -> dict:
    out = {}
    for name, values in values_by_name.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    report = {
        "label": args.label,
        "run_seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "processor": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(workload, seeds(args.seeds)[0], args.seconds, 1)
        gated = summarize({n: [r["metrics"][n]["value"] for r in runs] for n in runs[0]["metrics"]})
        raw = summarize({n: [r["raw"][n] for r in runs] for n in runs[0]["raw"]})
        report["workloads"][workload] = {"summary": gated, "raw_summary": raw,
                                         "runs": runs, "traced": traced}
        for name, s in {**gated, **raw}.items():
            print(f"  {workload} {name}: median {s['median']:.6g}, spread {s['spread']:.3f}",
                  flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
