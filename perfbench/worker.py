"""One benchmark worker: set up a workload and run one pass of its queries.

Started by ``run.py`` as a fresh process per pass, so module-level caches
of the library start cold.  Speaks JSON lines on stdout:

    {"ready": <query count>, "ids": [...], "cal_kind": "fraction"|"start"}
    {"cal": <s>}
    {"q": <index>, "id": ..., "t": <seconds>, "fail": [...], "size": {...}, "cal": <s or null>}
    {"end": true, "rss_mb": ..., "layers": {...}, "golden": {...}}

Usage: python3 perfbench/worker.py --workload NAME --seed N [--start K]
       [--trace] [--setup-only] [--record-golden] [--corrupt QUERY_ID]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CLI_CAL_EVERY = 4
sys.path.insert(0, str(SRC))


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Cli:
    """Runs goodsemi CLI commands in the work dir, one subprocess each.

    Traced calls go through cli_shim.py; their spans are appended to the
    worker's span list, tagged with the current query.
    """

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.import_s = 0.0

    def __call__(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "goodsemi.cli"]
        else:
            span_file = self.workdir / "spans.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_shim.py"), str(span_file)]
        proc = subprocess.run(cmd + argv, cwd=self.workdir, env=self.env, capture_output=True, text=True)
        if self.tracer is not None:
            shim = json.loads(span_file.read_text())
            spans = self.tracer.spans
            base = len(spans)
            for rec in shim["spans"]:
                rec[1] = rec[1] + base if rec[1] >= 0 else -1
                rec[4] = self.tracer.query
                spans.append(rec)
            self.import_s += shim["import_s"]
        return proc


def cli_queries(ck, rng, cli: Cli):
    import workloads

    workloads.prepare_cli_files(rng, cli.workdir)
    queries = []
    for qid, argv, rc_want in workloads.CLI_CALLS:
        def run(qid=qid, argv=argv, rc_want=rc_want):
            proc = cli(argv)
            fails = workloads.check_cli(ck, f"cli:{qid}", rc_want, proc.returncode, proc.stdout)
            return fails, {"rc": proc.returncode, "stdout_bytes": len(proc.stdout)}

        queries.append((f"cli:{qid}", run))
    return queries


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    p.add_argument("--corrupt")
    args = p.parse_args(argv)

    import goodsemi  # noqa: F401  (fail here, not mid-pass, if the package is absent)
    import speed
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    ck = workloads.Checker(record=args.record_golden, corrupt=args.corrupt)
    rng = random.Random(f"{args.workload}/{args.seed}")
    workdir = WORK / f"work-{os.getpid()}"
    cli = Cli(workdir, tracer if args.trace else None)
    try:
        if args.workload == "cli":
            queries = cli_queries(ck, rng, cli)
        else:
            queries = workloads.BUILDERS[args.workload](ck, rng, workdir)
        ids = [q[0] for q in queries]
        # cli calls are process starts: sample those (0.2 s each) every
        # CLI_CAL_EVERY calls; in-process queries get a 20 ms fraction sample each
        kind = "start" if args.workload == "cli" else "fraction"
        # "ready" ends the set-up clock, so the first sample follows it
        emit({"ready": len(queries), "ids": ids, "cal_kind": kind})
        if args.setup_only:
            return 0
        emit({"cal": speed.sample(kind)})
        for i in range(args.start, len(queries)):
            qid, fn = queries[i]
            tracer.query = qid
            t0 = time.perf_counter()
            try:
                fails, size = fn()
            except Exception as exc:  # a query must not end the pass
                fails, size = [f"{qid}: raised {type(exc).__name__}: {exc}"], {}
                traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            due = kind == "fraction" or (i + 1) % CLI_CAL_EVERY == 0 or i + 1 == len(queries)
            cal = speed.sample(kind) if due else None
            emit({"q": i, "id": qid, "t": dt, "fail": fails, "size": size, "cal": cal})
        self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_kb = child_usage if args.workload == "cli" else self_usage
        layers = None
        if args.trace:
            tracer.query = "probe"
            try:
                workloads.probe(workdir, cli)
            except Exception:  # the probe only fills in layers; the pass stands
                traceback.print_exc(file=sys.stderr)
            layers = tracing.summarize(tracer.spans, {"cli.import_s": cli.import_s})
            per_query: dict = {}
            for rec in tracer.spans:
                for k, v in (rec[tracing.COUNTS] or {}).items():
                    slot = per_query.setdefault(str(rec[tracing.QUERY]), {})
                    slot[k] = max(slot.get(k, 0), v) if k == "N" else slot.get(k, 0) + v
            (WORK / "spans").mkdir(parents=True, exist_ok=True)
            (WORK / "spans" / f"{args.workload}-{args.seed}-{os.getpid()}.json").write_text(
                json.dumps({"spans": tracer.spans, "missing": tracer.missing})
            )
        else:
            per_query = None
        emit({
            "end": True,
            "rss_mb": rss_kb / 1024.0,
            "layers": layers,
            "per_query": per_query,
            "missing": tracer.missing,
            "golden": ck.recorded,
        })
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
