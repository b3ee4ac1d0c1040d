"""One pass of the benchmark's lattice workload, checked against its
goldens and invariants (dual twice, K0 - S = K0, product_canonical, ...)."""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def test_lattice_workload_answers_match_goldens(tmp_path):
    queries = workloads.lattice(workloads.Checker(), random.Random(1), tmp_path)
    assert queries
    for qid, run in queries:
        fails, _size = run()
        assert fails == [], qid
