"""One pass of each in-process benchmark workload, checked against its
goldens and invariants (dual twice, K0 - S = K0, product_canonical,
colon = difference, length = distance, ...)."""

import pathlib
import random
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def _run_pass(workload, tmp_path):
    queries = workload(workloads.Checker(), random.Random(1), tmp_path)
    assert queries
    for qid, run in queries:
        fails, _size = run()
        assert fails == [], qid


def test_lattice_workload_answers_match_goldens(tmp_path):
    _run_pass(workloads.lattice, tmp_path)


@pytest.mark.parametrize("workload", [workloads.ring_value, workloads.ring_colon],
                         ids=["ring-value", "ring-colon"])
def test_ring_workload_answers_match_goldens(workload, tmp_path):
    _run_pass(workload, tmp_path)


def test_tracer_finds_every_boundary(src_env):
    # install() rebinds names in the process, so it runs in its own; a
    # boundary the library dropped would leave its per-layer metrics out
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        f"import sys; sys.path.insert(0, {str(perfbench)!r}); import tracing\n"
        "t = tracing.Tracer(); t.install(tracing.BOUNDARIES + [tracing.CLI_BOUNDARY])\n"
        "print(t.missing)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
