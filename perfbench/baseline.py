"""Repeat the benchmark over seeds and record the spread of each metric.

    python3 perfbench/baseline.py

Runs ``run.py`` once per workload and seed 1-10, one run at a time, with
the run length from BENCHMARK.json, then one traced run per workload.  It
prints for every end-to-end metric the median, and the spread
(Q3 - Q1) / median (quartiles from statistics.quantiles, n=4) next to the
metric's bound, both for the reported reference-speed values and for the
raw seconds in the run record.  Everything is written to
perfbench/BENCH_0.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORK, run_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    host = run_record(SEEDS[0])
    del host["seed"]  # each run below records its own
    report = {"host": host, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            res = one_run(workload, seed, bench["run_seconds"], 0)
            record = json.loads((WORK / "runs" / f"{workload}-seed{seed}-trace0.json").read_text())
            runs.append({"seed": seed, **res, "raw": record["raw_end_to_end"]})
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  flush=True)
        summary, raw_summary = {}, {}
        for name, bound in bounds.items():
            summary[name] = spread([r["metrics"][name]["value"] for r in runs])
            raw_summary[name] = spread([r["raw"][name] for r in runs])
            sp = summary[name]["spread"]
            flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            print(f"  {name}: median {summary[name]['median']:.6g}  spread {sp:.3f}  "
                  f"(raw {raw_summary[name]['spread']:.3f})  bound {bound}  {flag}", flush=True)
        report["workloads"][workload] = {
            "runs": runs,
            "summary": summary,
            "raw_summary": raw_summary,
            "traced": one_run(workload, SEEDS[0], bench["run_seconds"], 1),
        }
    (HERE / "BENCH_0.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
