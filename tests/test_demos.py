"""Every demo runs to the end against this tree."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4, DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, src_env):
    got = subprocess.run([sys.executable, str(demo)], env=src_env, capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
