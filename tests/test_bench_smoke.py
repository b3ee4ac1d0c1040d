"""One pass of each in-process benchmark workload, checked against its
goldens and invariants (dual twice, K0 - S = K0, product_canonical,
colon = difference, length = distance, ...)."""

import collections
import json
import pathlib
import random
import shutil
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


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["validate", "staircase_e.json", "--ambient", "staircase_s.json"],
            # one validate span for the ambient semigroup's own check, one for the ideal's
            {"ideals.from_json": 2, "ideals.validate_additivity": 2},
        ),
        (["curve-gamma", "twobranch.curve"], {"curves.value_ideal": 1}),
    ],
    ids=["validate-ambient", "curve-gamma"],
)
def test_cli_shim_traces_the_library_boundaries(fixture_dir, tmp_path, src_env, argv, want):
    # the shim installs the tracer after importing only goodsemi.cli: names
    # that goodsemi.ideals reads through from modules loaded later must
    # still be traced where the library calls them
    for name in ("staircase_e.json", "staircase_s.json", "twobranch.curve"):
        shutil.copyfile(fixture_dir / name, tmp_path / name)
    shim = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cli_shim.py"
    proc = subprocess.run(
        [sys.executable, str(shim), "spans.json", *argv],
        cwd=tmp_path, env=src_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    record = json.loads((tmp_path / "spans.json").read_text())
    assert record["missing"] == []
    names = collections.Counter(span[0] for span in record["spans"])
    assert names["cli.main"] == 1 and names["ideals.membership_box"] >= 1
    assert {k: names[k] for k in want} == want
