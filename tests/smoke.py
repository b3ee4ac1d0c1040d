"""A standard-library smoke of goodsemi, for interpreters with nothing
installed (no pytest, no numpy).

Run from the repository root:

    python -W error tests/smoke.py

It reads every committed frame JSON fixture and checks that writing it
back gives the same bytes, then runs ``curve-gamma``, ``colon`` and
``length`` on ``tests/fixtures/twobranch.curve`` through the CLI and
checks the colon against the lattice difference of the two value sets
and the length of Rbar / R against the relative distance of theirs.
Exits nonzero on the first failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from goodsemi import difference, from_json, relative_distance, to_json  # noqa: E402

CURVE = ROOT / "tests" / "fixtures" / "twobranch.curve"


def run(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "goodsemi.cli", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"goodsemi {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def cli(*argv: str) -> str:
    """The JSON frame that ``goodsemi *argv`` writes, checked to round-trip."""
    out = run(*argv)
    if to_json(from_json(out)) != out:
        sys.exit(f"goodsemi {' '.join(argv)} wrote JSON that does not round-trip")
    return out


def main() -> None:
    fixtures = sorted((ROOT / "tests" / "fixtures").glob("*.json")) + sorted(
        (ROOT / "perfbench" / "fixtures").rglob("*.json"))
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        if to_json(from_json(text, filename=str(path))) != text:
            sys.exit(f"{path.relative_to(ROOT)} does not round-trip byte for byte")
    R = from_json(cli("curve-gamma", str(CURVE)))
    if R.conductor != (3, 1) or len(R.frame) != 2:
        sys.exit(f"curve-gamma: expected {{0}} u ((3, 1) + N^2), got {R.frame_sorted}")
    K, E = (from_json(cli("curve-gamma", str(CURVE), "--module", m)) for m in ("K0", "E"))
    if from_json(cli("colon", str(CURVE), "K0", "E")) != difference(K, E):
        sys.exit("colon K0 : E differs from the lattice difference of the value sets")
    Rbar = from_json(cli("curve-gamma", str(CURVE), "--module", "Rbar"))
    if int(run("length", str(CURVE), "Rbar", "R")) != relative_distance(R, Rbar):
        sys.exit("length Rbar / R differs from the relative distance of the value sets")
    print(f"smoke ok: {len(fixtures)} fixtures round-trip; curve-gamma, colon and length on {CURVE.name}")


if __name__ == "__main__":
    main()
