"""goodsemi benchmark: closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck        # corrupted goldens must be caught
    python3 perfbench/run.py --record-golden    # rewrite golden.json (and frame fixtures)

Workloads: ring-value, ring-colon, lattice, cli (see perfbench/README.md).
One caller runs each pass over the workload's fixed query list and sends
the next query only after the previous answer was checked.  Every pass
runs in a fresh worker process (cold library caches); a query that runs
past QUERY_LIMIT_S is killed and counted as failed.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 the run alternates untraced and traced passes and the last
line carries the per-layer metrics.  The run record (versions, sizes,
every query's latency) is written to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("ring-value", "ring-colon", "lattice", "cli")

QUERY_LIMIT_S = 30.0  # per query; ~5x the slowest query at HEAD
READY_LIMIT_S = 60.0  # worker start-up
RUN_DEADLINE_S = 150.0  # stop scheduling work past this, whatever --seconds says
MIN_SETUP_SAMPLES = 7
# one pass's raw length on the baseline host (see perfbench/README.md);
# fixed, so the pass count depends only on --seconds
NOMINAL_PASS_S = {"ring-value": 12.0, "ring-colon": 6.0, "lattice": 14.0, "cli": 4.5}

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
    ("slowest_query_s", "s"),
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
# fail_ratio is 0 on a healthy run, so it is reported through
# "attempted"/"failed" and the text lines, not as a ratio metric
JSON_END_TO_END = tuple(m for m in END_TO_END if m[0] != "fail_ratio")

PER_LAYER = (
    ("modules.value_semigroup_ideal.self_s", "s"),
    ("modules.value_semigroup_ideal.calls", "count"),
    ("modules.scan_lines", "count"),
    ("modules.max_N", "count"),
    ("modules.span_basis.self_s", "s"),
    ("modules.span_basis.dim", "count"),
    ("modules.colon_solution_basis.self_s", "s"),
    ("modules.colon_solution_basis.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.calls", "count"),
    ("curves.value_ideal.self_s", "s"),
    ("curves.scan_useful_ratio", "ratio"),
    ("curves.gamma_cache_hits", "count"),
    ("curves.colon_value_ideal.self_s", "s"),
    ("curves.colon_attempts_ratio", "ratio"),
    ("curves.length_quotient.self_s", "s"),
    ("curves.conductor_of.self_s", "s"),
    ("ideals.validate_axioms.self_s", "s"),
    ("ideals.validate_additivity.self_s", "s"),
    ("ideals.membership_box.self_s", "s"),
    ("ideals.membership_box.calls", "count"),
    ("ideals.membership_box.cells", "count"),
    ("ideals.sum_ideals.self_s", "s"),
    ("ideals.from_json.self_s", "s"),
    ("ideals.product_semigroups.self_s", "s"),
    ("ideals.decompose.self_s", "s"),
    ("duality.canonical_normalized.self_s", "s"),
    ("duality.dualize.self_s", "s"),
    ("duality.difference.self_s", "s"),
    ("duality.difference.cells", "count"),
    ("metric.distance_between.self_s", "s"),
    ("metric.steps", "count"),
    ("metric.relative_distance.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
# metric -> the boundary (span name in tracing.BOUNDARIES) it is read from
DERIVED_FROM = {
    "modules.scan_lines": "modules.value_semigroup_ideal",
    "modules.max_N": "modules.value_semigroup_ideal",
    "curves.scan_useful_ratio": "modules.value_semigroup_ideal",
    "curves.gamma_cache_hits": "curves.value_ideal",
    "curves.colon_attempts_ratio": "modules.colon_solution_basis",
    "metric.steps": "metric.distance_between",
    "cli.import_s": "cli.main",
    "ideals.validate_axioms.self_s": "ideals.validate",
    "ideals.validate_additivity.self_s": "ideals.validate",
}


class Worker:
    """A worker process and a deadline-aware reader of its JSON lines."""

    def __init__(self, args: list[str]):
        self.cal = speed.sample("start")  # machine speed just before the start
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            start_new_session=True,  # its CLI children share the process group
        )
        self.buf = b""

    def setup_time(self) -> tuple[float, float]:
        """(raw, reference-speed) seconds from the start to now."""
        raw = time.perf_counter() - self.started
        return raw, raw * speed.REF["start"] / self.cal

    def next(self, limit: float):
        """The next message, or "timeout" / "eof"."""
        deadline = time.monotonic() + limit
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return "timeout"
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return "eof"
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self, kill: bool = False) -> int:
        if kill and self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            rc = self.proc.wait()
        self.proc.stdout.close()
        return rc


def run_pass(workload: str, seed: int, trace: bool, t_start: float, extra=()) -> dict:
    """One pass in fresh workers; a killed or crashed worker is replaced
    and the pass resumes after the query it was running."""
    res = {"setup": [], "cal_kind": "fraction", "timeline": [], "queries": [], "rss_mb": 0.0, "layers": None, "per_query": None,
           "missing": [], "golden": {}}
    base = ["--workload", workload, "--seed", str(seed), *extra] + (["--trace"] if trace else [])
    start, ids = 0, None
    while ids is None or start < len(ids):
        if time.perf_counter() - t_start > RUN_DEADLINE_S:
            for qid in (ids or [])[start:]:
                res["queries"].append({"id": qid, "t": None, "fail": [f"{qid}: run deadline reached"]})
            break
        w = Worker(base + ["--start", str(start)])
        msg = w.next(READY_LIMIT_S)
        if not isinstance(msg, dict) or "ready" not in msg:
            w.stop(kill=True)
            raise SystemExit(f"worker for {workload} did not start ({msg})")
        res["setup"].append(w.setup_time())
        res["cal_kind"] = msg["cal_kind"]
        ids = msg["ids"]
        msg = w.next(QUERY_LIMIT_S)
        if not isinstance(msg, dict) or "cal" not in msg:
            w.stop(kill=True)
            raise SystemExit(f"worker for {workload} sent no speed sample ({msg})")
        res["timeline"].append([None, msg["cal"]])
        while start < len(ids):
            msg = w.next(QUERY_LIMIT_S)
            if not isinstance(msg, dict):
                why = "exceeded the per-query time limit" if msg == "timeout" else "worker died"
                lost = {"id": ids[start], "t": QUERY_LIMIT_S if msg == "timeout" else None,
                        "fail": [f"{ids[start]}: {why}"]}
                res["queries"].append(lost)
                res["timeline"].append([lost["t"], None])
                start += 1
                w.stop(kill=True)
                break
            res["queries"].append(msg)
            res["timeline"].append([msg["t"], msg["cal"]])
            start = msg["q"] + 1
        else:
            end = w.next(QUERY_LIMIT_S)
            w.stop(kill=not isinstance(end, dict))
            if isinstance(end, dict):
                res["rss_mb"] = max(res["rss_mb"], end["rss_mb"])
                for key in ("layers", "per_query", "missing", "golden"):
                    res[key] = end[key]
    return res


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    w = Worker(["--workload", workload, "--seed", str(seed), "--setup-only"])
    msg = w.next(READY_LIMIT_S)
    t = w.setup_time()
    w.stop(kill=not isinstance(msg, dict))
    if not isinstance(msg, dict):
        raise SystemExit(f"setup-only worker for {workload} failed ({msg})")
    return t


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    k = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) // 2
    return xs[k], 100.0 * (k + 1) / len(xs)


def git_sha() -> str:
    try:
        # the ceiling keeps git from reading directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_record(seed: int) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip()
    return {"git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload's passes; traced runs alternate untraced and traced.

    The pass count is round(seconds / NOMINAL_PASS_S), at least one of each
    kind, so every run of a workload pools the same number of samples and
    the tail percentile stays the same one.  Machine speed moves only the
    run's length.
    """
    t_start = time.perf_counter()
    n = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    order = [False] * n if not trace else [i % 2 == 1 for i in range(max(2, n))]
    passes = {False: [], True: []}
    for kind in order:
        if time.perf_counter() - t_start > RUN_DEADLINE_S:
            break
        passes[kind].append(run_pass(workload, seed, kind, t_start))
    setup = [s for kind in passes for p in passes[kind] for s in p["setup"]]
    while len(setup) < MIN_SETUP_SAMPLES and time.perf_counter() - t_start < RUN_DEADLINE_S:
        setup.append(setup_sample(workload, seed))
    return {"passes": passes, "setup": setup}


def latencies(p: dict, scaled: bool = True) -> list[float]:
    """A pass's query latencies, at the reference speed unless ``scaled`` is off."""
    if scaled:
        return speed.scaled(p["timeline"], speed.REF[p["cal_kind"]])
    return [t for t, _ in p["timeline"] if t is not None]


def end_to_end(plain: list[dict], setup: list[tuple[float, float]], scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference-speed seconds unless ``scaled`` is off."""
    lats = [latencies(p, scaled) for p in plain]
    lat = [t for ts in lats for t in ts]
    pass_s = [sum(ts) for ts in lats]
    slowest = [max(ts, default=0.0) for ts in lats]
    attempted = sum(len(p["queries"]) for p in plain)
    failed = sum(1 for p in plain for q in p["queries"] if q["fail"])
    tail_v, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(s[1] if scaled else s[0] for s in setup),
        "pass_s": statistics.median(pass_s),
        "query_p50_s": statistics.median(lat),
        "query_tail_s": tail_v,
        "slowest_query_s": statistics.median(slowest),
        "fail_ratio": failed / attempted,
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
    }
    notes = {"query_tail_s": f"p{tail_pct:.1f} of {len(lat)} samples", "pass_s": f"{len(pass_s)} passes",
             "setup_s": f"median of {len(setup)}", "slowest_query_s": f"median over {len(slowest)} passes"}
    return metrics, notes


def per_layer(traced: list[dict], plain_pass_s: float) -> tuple[dict, list[str]]:
    layers = [p["layers"] for p in traced if p["layers"] is not None]
    missing = set(traced[0]["missing"]) if traced else set()
    notes = []
    out = {}
    if not layers:
        return out, ["no traced pass finished; per-layer metrics missing"]
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            traced_s = statistics.median(sum(latencies(p)) for p in traced)
            out[name] = traced_s / plain_pass_s - 1.0
            continue
        boundary = DERIVED_FROM.get(name, name.rsplit(".", 1)[0])
        if boundary in missing:
            notes.append(f"missing metric {name}: boundary {boundary} not found")
            continue
        values = [lay.get(name, 0) for lay in layers]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                notes.append(f"{name} differs between traced passes: {values}")
    return out, notes


def selfcheck() -> int:
    """Corrupt one golden per workload; each must be reported as failed."""
    all_caught = True
    for workload, qid in (("ring-value", "value:cusp"), ("ring-colon", "length:twobranch:R:F"),
                          ("lattice", "canonical:ns-31-37-41"), ("cli", "cli:canonical")):
        res = run_pass(workload, 1, False, time.perf_counter(), ["--corrupt", qid])
        failed = [f for q in res["queries"] for f in q["fail"]]
        caught = any(f.startswith(qid + ":") for f in failed)
        ratio = len([q for q in res["queries"] if q["fail"]]) / len(res["queries"])
        print(f"selfcheck {workload}: corrupted {qid} -> fail_ratio {ratio:.4f} "
              f"({'caught' if caught else 'MISSED'}): {failed}")
        all_caught &= caught and ratio > 0
    return 0 if all_caught else 1


def record_golden() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.write_frame_fixtures()
    goldens = {}
    for workload in WORKLOADS:
        res = run_pass(workload, 1, False, time.perf_counter(), ["--record-golden"])
        goldens.update(res["golden"])
    (HERE / "golden.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "goodsemi" / "__init__.py").is_file():
        print(f"error: no goodsemi sources under {ROOT / 'src'}; run from a goodsemi checkout",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        p.error("--workload is required")

    record = run_record(args.seed)
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("run: " + " ".join(f"{k}={v}" for k, v in record.items()))
    got = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    plain, traced = got["passes"][False], got["passes"][True]
    e2e, notes = end_to_end(plain, got["setup"])
    raw, _ = end_to_end(plain, got["setup"], scaled=False)
    all_passes = plain + traced
    attempted = sum(len(p["queries"]) for p in all_passes)
    failures = [f for p in all_passes for q in p["queries"] for f in q["fail"]]
    failed = sum(1 for p in all_passes for q in p["queries"] if q["fail"])
    for name, unit in END_TO_END:
        note = [f"raw {raw[name]:.6g}"] if unit == "s" else []
        note += [notes[name]] if name in notes else []
        print(f"{args.workload} {name} = {e2e[name]:.6g} {unit}" + (f"  ({'; '.join(note)})" if note else ""))
    for f in sorted(set(failures)):
        print(f"FAILED {f}")
    if args.trace:
        metrics, layer_notes = per_layer(traced, e2e["pass_s"])
        for name, unit in PER_LAYER:
            if name in metrics:
                print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
        for n in layer_notes:
            print(n)
        units = dict(PER_LAYER)
    else:
        metrics = {k: e2e[k] for k, _ in JSON_END_TO_END}
        units = dict(JSON_END_TO_END)

    sizes = {}
    for p in all_passes:
        for q in p["queries"]:
            sizes.setdefault(q["id"], q.get("size", {}))
            if p["per_query"] and q["id"] in p["per_query"]:
                sizes[q["id"]] = {**sizes[q["id"]], **p["per_query"][q["id"]]}
    record.update(
        metrics=metrics,
        end_to_end=e2e,
        raw_end_to_end=raw,
        setup_samples=got["setup"],
        passes=[{"raw_s": [[q["id"], q["t"]] for q in p["queries"]], "scaled_s": latencies(p),
                 "timeline": p["timeline"]} for p in plain],
        sizes=sizes,
        failures=failures,
    )
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
