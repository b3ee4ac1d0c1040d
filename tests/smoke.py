"""A standard-library smoke of goodsemi, for interpreters with nothing
installed (no pytest, no numpy).

Run from the repository root:

    python -W error tests/smoke.py

It reads every committed frame JSON fixture and checks that writing it
back gives the same bytes, then runs ``curve-gamma``, ``colon``,
``length`` and ``type`` on ``tests/fixtures/twobranch.curve`` through
the CLI and checks the colon against the lattice difference of the two
value sets, the length of Rbar / R against the relative distance of
theirs, and the type against the relative distance of the value sets of
R and of R : m, with its symmetry verdict against ``is_symmetric``.
It checks ``colon`` of the built-in canonical module K by E against
``diff`` of the value sets that ``curve-gamma`` writes for K and E.
Then it runs ``distance`` on ``tests/fixtures/corner_s.json`` and
``rel-distance`` on the value sets of R and Rbar, and checks both
against the library.  Last it checks that ``curve-gamma`` refuses a ring
with no conductor, one generator of order 2 moving on a branch, with
exit status 2 and the refusal's message.  Exits nonzero on the first
failure.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from goodsemi import difference, distance_between, from_json, is_symmetric, relative_distance, to_json  # noqa: E402

CURVE = ROOT / "tests" / "fixtures" / "twobranch.curve"
CORNER = ROOT / "tests" / "fixtures" / "corner_s.json"


def goodsemi(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", "-m", "goodsemi.cli", *argv],
                          env=env, capture_output=True, text=True)


def run(*argv: str) -> str:
    proc = goodsemi(*argv)
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
    t = relative_distance(R, from_json(cli("colon", str(CURVE), "R", "m")))
    want = f"type: {t}\nsymmetric: {str(is_symmetric(R)).lower()}\n"
    got = run("type", str(CURVE))
    if got != want:
        sys.exit(f"type: expected {want!r} from the colon R : m and is_symmetric, got {got!r}")
    S = from_json(CORNER.read_text(encoding="utf-8"))
    if int(run("distance", str(CORNER), "0,0", "5,3")) != distance_between(S, (0, 0), (5, 3)):
        sys.exit("distance from 0,0 to 5,3 on corner_s.json differs from the library")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "R.json", Path(tmp) / "Rbar.json"]
        for path, G in zip(paths, (R, Rbar)):
            path.write_text(to_json(G), encoding="utf-8")
        if int(run("rel-distance", *map(str, paths))) != relative_distance(R, Rbar):
            sys.exit("rel-distance of the value sets of R and Rbar differs from the library")
        paths = [Path(tmp) / "K.json", Path(tmp) / "E.json"]
        for path, m in zip(paths, ("K", "E")):
            path.write_text(cli("curve-gamma", str(CURVE), "--module", m), encoding="utf-8")
        if cli("colon", str(CURVE), "K", "E") != cli("diff", *map(str, paths)):
            sys.exit("colon K : E differs from diff of the value sets of the built-in K and of E")
        # one generator of order 2 moves on branch 0: no conductor, refused up front
        path = Path(tmp) / "no_conductor.curve"
        path.write_text("branches: 2\nring: (1/3*t^2 - t^5, t) ; (0, 2)\n", encoding="utf-8")
        proc = goodsemi("curve-gamma", str(path))
        if proc.returncode != 2 or "is the only one not constant on branch 0" not in proc.stderr:
            sys.exit(f"curve-gamma on a ring without a conductor exited {proc.returncode}, not 2 with its "
                     f"refusal:\n{proc.stderr}")
    print(f"smoke ok: {len(fixtures)} fixtures round-trip; curve-gamma, colon, length and type on {CURVE.name}; "
          f"colon K : E against diff; distance and rel-distance; a ring without a conductor refused")


if __name__ == "__main__":
    main()
