import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from goodsemi import (
    IdealFrame,
    canonical_normalized,
    difference,
    from_json,
    to_json,
)
from goodsemi.cli import COMMANDS, build_parser, main


@pytest.fixture
def corner(fixture_dir):
    return str(fixture_dir / "corner_s.json")


@pytest.fixture
def stair_s(fixture_dir):
    return str(fixture_dir / "staircase_s.json")


@pytest.fixture
def stair_e(fixture_dir):
    return str(fixture_dir / "staircase_e.json")


@pytest.fixture
def curve(fixture_dir):
    return str(fixture_dir / "twobranch.curve")


def test_validate_semigroup(corner, capsys):
    assert main(["validate", corner]) == 0
    out = capsys.readouterr().out
    assert "as semigroup" in out
    assert "pass" in out and "FAIL" not in out


def test_validate_frame_without_ambient(stair_e, capsys):
    assert main(["validate", stair_e]) == 1
    out = capsys.readouterr().out
    assert "axioms only" in out
    assert "E2 (exchange axiom):" in out and "FAIL" in out


def test_validate_with_ambient(stair_e, stair_s, capsys):
    assert main(["validate", stair_e, "--ambient", stair_s]) == 1
    out = capsys.readouterr().out
    assert f"ideal of {stair_s}" in out
    assert "E2 witness" in out


def test_canonical_to_file(corner, tmp_path, fig_s, capsys):
    out = tmp_path / "k.json"
    assert main(["canonical", corner, "-o", str(out)]) == 0
    K = from_json(out.read_text())
    assert K == canonical_normalized(fig_s)
    # emitted text is byte-identical to the library serialization
    assert out.read_text() == to_json(canonical_normalized(fig_s))


def test_dual_roundtrip(corner, tmp_path, fig_s, capsys):
    E = IdealFrame.from_points([(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2))
    epath = tmp_path / "e.json"
    epath.write_text(to_json(E))
    out = tmp_path / "d.json"
    assert main(["dual", corner, str(epath), "-o", str(out)]) == 0
    D = from_json(out.read_text())
    assert D == difference(canonical_normalized(fig_s), E)
    # applying it twice from the command line returns the input
    out2 = tmp_path / "dd.json"
    assert main(["dual", corner, str(out), "-o", str(out2)]) == 0
    assert from_json(out2.read_text()) == E


def test_dual_twice_on_certified_input(corner, tmp_path, capsys):
    E = IdealFrame.from_points([(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2))
    epath = tmp_path / "e.json"
    epath.write_text(to_json(E))
    assert main(["dual", corner, str(epath), "--twice"]) == 0
    captured = capsys.readouterr()
    assert "returns the input" in captured.err
    assert from_json(captured.out) == E


def test_dual_twice_warns_on_uncertified(stair_s, stair_e, capsys):
    rc = main(["dual", stair_s, stair_e, "--twice"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "not (E2)-certified" in captured.err
    # dualize's report goes with the refusal
    assert any(line.strip().startswith("E2 witness") for line in captured.err.splitlines())
    assert "strictly contains" in captured.err
    got = from_json(captured.out)
    assert got.frame_sorted == ((1, 2), (2, 2), (3, 2), (4, 4))


def test_is_canonical(corner, tmp_path, fig_s, capsys):
    kpath = tmp_path / "k.json"
    kpath.write_text(to_json(canonical_normalized(fig_s).shift((1, 2))))
    assert main(["is-canonical", corner, str(kpath)]) == 0
    assert capsys.readouterr().out.strip() == "canonical: true (shift 1,2)"
    assert main(["is-canonical", corner, corner]) == 1
    assert capsys.readouterr().out.startswith("canonical: false")


def test_is_symmetric(corner, stair_s, capsys):
    assert main(["is-symmetric", stair_s]) == 1
    assert capsys.readouterr().out.strip() == "symmetric: false"
    assert main(["is-symmetric", corner]) == 1


def test_diff_and_sum(corner, tmp_path, fig_s, capsys):
    E = IdealFrame.from_points([(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2))
    F = IdealFrame.from_points([(3, 1), (4, 2)], gamma=(4, 2))
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    e.write_text(to_json(E))
    f.write_text(to_json(F))
    assert main(["diff", str(e), str(f)]) == 0
    D = from_json(capsys.readouterr().out)
    assert D.frame_sorted == ((2, 1),)
    assert main(["sum", str(e), str(f)]) == 0
    P = from_json(capsys.readouterr().out)
    assert P.mu == (5, 2) and (7, 4) in P


def test_distance(corner, capsys):
    assert main(["distance", corner, "0,0", "3,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_distance_bad_point(corner, stair_e, capsys):
    assert main(["distance", corner, "x,y", "3,1"]) == 2
    assert "cannot read point" in capsys.readouterr().err
    # the error names the argument, not a file
    assert main(["distance", stair_e, "2,x", "3,3"]) == 2
    assert capsys.readouterr().err == "error: argument start: cannot read point '2,x'; expected e.g. '3,1'\n"
    assert main(["distance", stair_e, "3,3", "2,x"]) == 2
    assert capsys.readouterr().err.startswith("error: argument end: cannot read point '2,x'")


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--lo", "1,y", "error: argument --lo: cannot read point '1,y'"),
        ("--hi", "1,y", "error: argument --hi: cannot read point '1,y'"),
        ("--lo", "0", "error: the lower window corner (0,) has 1 coordinates, not 2"),
        ("--hi", "1,2,3", "error: the upper window corner (1, 2, 3) has 3 coordinates, not 2"),
    ],
    ids=["lo-unreadable", "hi-unreadable", "lo-one-coordinate", "hi-three-coordinates"],
)
def test_plot_bad_window_corner_exits_2(corner, capsys, flag, text, message):
    assert main(["plot", corner, flag, text]) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distance", "0", "3,1"], "error: the start point (0,) has 1 coordinates, not 2 (argument start)\n"),
        (["distance", "0,0", "3"], "error: the end point (3,) has 1 coordinates, not 2 (argument end)\n"),
        (["plot", "--lo", "0,0,0"], "error: the lower window corner (0, 0, 0) has 3 coordinates, not 2 (argument --lo)\n"),
        (["plot", "--hi", "4"], "error: the upper window corner (4,) has 1 coordinates, not 2 (argument --hi)\n"),
    ],
    ids=["distance-start", "distance-end", "plot-lo", "plot-hi"],
)
def test_point_of_wrong_dimension_names_its_argument(corner, capsys, argv, message):
    assert main([argv[0], corner, *argv[1:]]) == 2
    assert capsys.readouterr().err == message


@pytest.fixture
def colon_k0_e(curve, tmp_path, capsys):
    """Γ(K0 : E) of the two-branch curve, whose μ is (-2, -1)."""
    assert main(["colon", curve, "K0", "E"]) == 0
    path = tmp_path / "kE.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


def test_distance_accepts_negative_points(colon_k0_e, capsys):
    assert main(["distance", colon_k0_e, "-2,-1", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["distance", colon_k0_e, "-2,-1", "-1,-1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["distance", colon_k0_e, "-2,x", "1,0"]) == 2
    assert "cannot read point '-2,x'" in capsys.readouterr().err


def test_plot_accepts_negative_window_corners(colon_k0_e, capsys):
    assert main(["plot", colon_k0_e, "--lo", "-2,-1", "--hi", "2,2"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if "|" in l]
    assert rows[-1] == "-1 | ● ● ○ ○ ○"
    assert rows[-2] == " 0 | ● ○ ○ ● ●"
    assert main(["plot", colon_k0_e, "--lo=-2,-1", "--hi", "2,2"]) == 0
    assert [l for l in capsys.readouterr().out.splitlines() if "|" in l] == rows


def test_rel_distance(corner, tmp_path, fig_s, capsys):
    k = tmp_path / "k.json"
    k.write_text(to_json(canonical_normalized(fig_s)))
    assert main(["rel-distance", corner, str(k)]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["rel-distance", str(k), corner]) == 2
    assert "smaller" in capsys.readouterr().err


def test_decompose(tmp_path, capsys):
    from goodsemi import GoodSemigroup, product_semigroups

    A = GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    B = GoodSemigroup.from_points([(0,), (2,)], gamma=(2,))
    P = product_semigroups(A, B)
    p = tmp_path / "p.json"
    p.write_text(to_json(P))
    assert main(["decompose", str(p)]) == 0
    out = capsys.readouterr().out
    assert "branches [0, 1]:" in out and "branches [2]:" in out


def test_gamma_of(stair_e, capsys):
    assert main(["gamma-of", stair_e]) == 0
    out = capsys.readouterr().out
    assert "conductor: 6,5" in out
    assert "capping bound: 7,5" in out


def test_curve_gamma(curve, tmp_path, capsys):
    out = tmp_path / "ge.json"
    assert main(["curve-gamma", curve, "--module", "E", "-o", str(out)]) == 0
    G = from_json(out.read_text())
    assert G.frame_sorted == ((2, 1), (2, 2), (3, 1), (5, 2))
    assert main(["curve-gamma", curve]) == 0
    R = from_json(capsys.readouterr().out)
    assert R.frame_sorted == ((0, 0), (3, 1))


def test_colon_command(curve, capsys):
    assert main(["colon", curve, "K0", "E"]) == 0
    G = from_json(capsys.readouterr().out)
    assert G.frame_sorted == ((-2, -1), (-2, 0), (-1, -1), (1, 0))


def test_length_command(curve, capsys):
    assert main(["length", curve, "R", "CR"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["length", curve, "F", "E"]) == 2
    assert "not contained" in capsys.readouterr().err


def test_type_command(curve, fixture_dir, capsys):
    # t = 1 exactly when the value semigroup is symmetric
    assert main(["type", curve]) == 0
    assert capsys.readouterr().out == "type: 3\nsymmetric: false\n"
    assert main(["type", str(fixture_dir / "cusp.curve")]) == 0
    assert capsys.readouterr().out == "type: 1\nsymmetric: true\n"


def test_plot_ascii(corner, capsys):
    assert main(["plot", corner, "--hi", "4,2"]) == 0
    out = capsys.readouterr().out
    assert "●" in out and "○" in out
    # the origin row is the bottom lattice row: members at 0 and nothing
    # else until the conductor column
    rows = [l for l in out.splitlines() if "|" in l]
    assert rows[-1].startswith("0 | ● ○ ○ ○ ○")
    assert rows[-2].startswith("1 | ○ ○ ○ ● ●")


def test_plot_svg(corner, tmp_path, capsys):
    svg = tmp_path / "pic.svg"
    assert main(["plot", corner, "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "circle" in text


def test_plot_refuses_one_branch(tmp_path, capsys):
    from goodsemi import numerical_semigroup

    p = tmp_path / "n.json"
    p.write_text(to_json(numerical_semigroup(2, 3)))
    assert main(["plot", str(p)]) == 2
    assert "2-branch" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["validate", "no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gamma_of_refuses_json_that_is_not_an_object(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[[0, 0], [3, 1]]\n")
    assert main(["gamma-of", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "list.json" in err and "expected a JSON object" in err


def test_bad_json_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"s": 2,\n "mu": [0, "x"]}\n')
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad.json" in err


@pytest.mark.parametrize("command, name", [("gamma-of", "bin.json"), ("curve-gamma", "bin.curve")])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_repeated_branches_line_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "twice.curve"
    path.write_text("branches: 1\nring: (t^2) ; (t^3)\nbranches: 2\n")
    assert main(["curve-gamma", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3:1: duplicate 'branches:' line\n"


def test_zero_denominator_in_a_curve_exits_2_naming_the_term(tmp_path, capsys):
    # it used to print a ZeroDivisionError traceback and exit 1, the code
    # of a negative verdict
    path = tmp_path / "z.curve"
    path.write_text("branches: 1\nring: (t^2) ; (1/0*t^3)\n")
    assert main(["curve-gamma", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2:16: zero denominator in term '1/0*t^3'\n"


def test_semigroup_argument_must_be_good(stair_e, capsys):
    assert main(["canonical", stair_e]) == 2
    err = capsys.readouterr().err
    assert "not a good semigroup" in err


# the harness's cli calls, on the test fixtures
CLI_CALLS = [
    ["validate", "staircase_e.json", "--ambient", "staircase_s.json"],
    ["canonical", "corner_s.json"],
    ["dual", "staircase_s.json", "staircase_e.json", "--twice"],
    ["dual", "corner_s.json", "corner_s.json"],
    ["is-symmetric", "staircase_s.json"],
    ["distance", "corner_s.json", "0,0", "3,1"],
    ["gamma-of", "staircase_e.json"],
    ["curve-gamma", "twobranch.curve", "--module", "E"],
    ["curve-gamma", "cusp.curve"],
    ["colon", "twobranch.curve", "K0", "E"],
    ["length", "twobranch.curve", "R", "CR"],
    ["curve-gamma", "bad.curve"],
]
CLI_RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import goodsemi
from goodsemi.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    results.append([rc, out.getvalue()])
print(json.dumps(results))
"""


def test_cli_runs_with_numpy_blocked(fixture_dir, tmp_path, src_env):
    for name in ("corner_s.json", "staircase_e.json", "staircase_s.json", "twobranch.curve", "cusp.curve"):
        shutil.copyfile(fixture_dir / name, tmp_path / name)
    (tmp_path / "bad.curve").write_text("branches: 2\nring: (t^2, t) ; (t^3)\n")
    runs = {}
    for mode in ("block", "plain"):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_RUNNER, mode, json.dumps(CLI_CALLS)],
            cwd=tmp_path,
            env=src_env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert runs["block"] == runs["plain"]
    assert [rc for rc, _ in runs["block"]] == [1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2]


@pytest.mark.parametrize("gamma", [[10**12], [10**5, 10**5]], ids=["1e12", "1e5x1e5"])
def test_oversized_frame_box_exits_2_without_allocating(tmp_path, gamma, src_env):
    # the box is refused before any allocation: under a 1 GiB address
    # space limit an attempt to build it would fail with MemoryError
    s = len(gamma)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"s": s, "mu": [0] * s, "gamma": gamma, "frame": [[0] * s, gamma]}))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from goodsemi.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "gamma-of", str(path)],
        env=src_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shape = tuple(g + 1 for g in gamma)
    assert proc.returncode == 2, proc.stderr
    assert f"shape {shape} has {math.prod(shape)} cells" in proc.stderr
    assert "Traceback" not in proc.stderr


# a command's imports, as the modules it adds to a bare interpreter's
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from goodsemi.cli import main
main(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
"""


# the harness's cli calls with the modules each must not load; no command
# among them decomposes, so none loads goodsemi.products
LATTICE_ONLY = ["goodsemi.generate", "goodsemi.ringbridge", "goodsemi.products"]
CURVE_ONLY = ["goodsemi.duality", "goodsemi.generate", "goodsemi.metric", "goodsemi.products"]


@pytest.mark.parametrize(
    "argv, banned",
    [
        (
            ["gamma-of", "staircase_e.json"],
            ["goodsemi.duality", "goodsemi.generate", "goodsemi.metric", "goodsemi.ringbridge",
             "goodsemi.axioms", "goodsemi.products"],
        ),
        (
            ["validate", "staircase_e.json", "--ambient", "staircase_s.json"],
            ["goodsemi.generate", "goodsemi.metric", "goodsemi.ringbridge", "goodsemi.products"],
        ),
        (
            ["curve-gamma", "twobranch.curve"],
            CURVE_ONLY,
        ),
        (["canonical", "corner_s.json"], ["goodsemi.metric", *LATTICE_ONLY]),
        (["dual", "staircase_s.json", "staircase_e.json", "--twice"], ["goodsemi.metric", *LATTICE_ONLY]),
        (["is-symmetric", "staircase_s.json"], ["goodsemi.metric", *LATTICE_ONLY]),
        (["distance", "corner_s.json", "0,0", "3,1"], ["goodsemi.duality", *LATTICE_ONLY]),
        (["curve-gamma", "cusp.curve"], CURVE_ONLY),
        (["colon", "twobranch.curve", "K0", "E"], ["goodsemi.generate", "goodsemi.metric", "goodsemi.products"]),
        # the length is certified against the metric's relative distance
        (["length", "twobranch.curve", "R", "CR"], ["goodsemi.duality", "goodsemi.generate", "goodsemi.products"]),
        (["curve-gamma", "bad.curve"], CURVE_ONLY),
    ],
    ids=[
        "gamma-of",
        "validate-ambient",
        "curve-gamma",
        "canonical",
        "dual-twice",
        "is-symmetric",
        "distance",
        "curve-gamma-cusp",
        "colon-K0-E",
        "length-R-CR",
        "malformed",
    ],
)
def test_each_command_imports_only_what_it_runs(fixture_dir, tmp_path, src_env, argv, banned):
    for name in ("corner_s.json", "staircase_e.json", "staircase_s.json", "twobranch.curve", "cusp.curve"):
        shutil.copyfile(fixture_dir / name, tmp_path / name)
    (tmp_path / "bad.curve").write_text("branches: 2\nring: (t^2, t) ; (t^3)\n")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        cwd=tmp_path,
        env=src_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "goodsemi.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", *banned}
    if argv[0] == "gamma-of":
        assert {m for m in loaded if m.startswith("goodsemi")} == {
            "goodsemi",
            "goodsemi.cli",
            "goodsemi.errors",
            "goodsemi.ideals",
            "goodsemi.lattice",
        }


def test_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(COMMANDS) == 16
    for name, (_fn, help, *_args) in COMMANDS.items():
        assert re.search(rf"^    {re.escape(name)} +{re.escape(help)}$", out, re.M), name


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_command_help_matches_the_full_parser(name, capsys):
    # main builds only the named subparser; the full parser must print the
    # same help and the same usage errors, the command's own (a missing
    # argument) and the top parser's (an unknown option)
    positionals = ["x" for flags, _ in COMMANDS[name][2:] if not flags[0].startswith("-")]
    seen = []
    for argv, code in (([name, "-h"], 0), ([name], 2), ([name, *positionals, "--no-such-option"], 2)):
        outputs = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        seen.append(outputs[0])
    assert seen[0].out.startswith(f"usage: goodsemi {name} [-h]")
    assert seen[1].err.startswith(f"usage: goodsemi {name} [-h]")
    assert seen[2].err.endswith("goodsemi: error: unrecognized arguments: --no-such-option\n")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument command: invalid choice: 'nope' (choose from 'validate'," in err
    assert err.startswith("usage: goodsemi [-h]")
