"""The benchmark's workloads: seeded inputs, fixed query lists, checks.

Every query is a callable returning ``(failures, size)``: a list of named
failures (empty when the answer is right) and a dict describing the
query's size.  Answers are checked against ``golden.json`` (sha256 of the
canonical text) and against invariants that hold for every seed.

Seeds never change an answer on the ring side: curves are transformed
only by maps that preserve value sets (a per-branch rescaling t -> c_i t
and invertible recombinations of the ring's and each module's
generators).  On the lattice side the seed picks two products from a
fixed catalogue and the shifts alpha of the dualized ideals; those
answers are checked in closed form (K - (alpha + S) = K - alpha, ...).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

from goodsemi import duality, ideals, metric
from goodsemi.ringbridge import curves

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("ring-value", "ring-colon", "lattice", "cli")

RING_VALUE_RINGS = {
    "ring-3br": "branches: 3\nring: (t, t, 0) ; (0, t, t) ; (t^2, 0, t^3)\n",
    "ring-34-26": "branches: 2\nring: (t^4, t^3) ; (t^6 + t^7, t^5)\n",
    "ring-44-26": "branches: 2\nring: (t^5, t^3) ; (t^7, t^4)\n",
    "ring-14-12": "branches: 2\nring: (t^3, t^2) ; (t^4, t^5)\n",
}
COLON_RINGS = {
    "ring-6-6": "branches: 2\nring: (t^2, t^3) ; (t^3, t^2)\n",
    "ring-5-3": "branches: 2\nring: (t^2, t) ; (t^3, 0)\n",
    "ring-2-2": "branches: 2\nring: (t, t) ; (t^2, -t^2)\n",
    "ring-16": "branches: 1\nring: (t^4) ; (t^6 + t^7)\n",
    "ring-14-12": RING_VALUE_RINGS["ring-14-12"],
}
TWOBRANCH_MODULES = ("R", "E", "F", "K0", "CR", "CF", "Rbar", "C")
COLON_RIGHT = ("R", "E", "F", "K0", "CR", "CF")
# every (larger, smaller) pair of twobranch modules with smaller ⊆ larger
NESTED = (
    "R>F R>CR R>CF R>C F>CF K0>R K0>F K0>CR K0>CF K0>C CR>F CR>CF CR>C "
    "Rbar>R Rbar>E Rbar>F Rbar>K0 Rbar>CR Rbar>CF Rbar>C C>F C>CR C>CF"
).split()

# lattice corpus: fixed frames, each with the kind of ideal it dualizes,
# and products of alike size (about 0.08 s of queries each) the seed picks
# two of
LATTICE_FRAMES = {
    "ns-31-37-41": "alpha+K0",
    "ring-34-26": "K0-(alpha+S)",
    "ring-44-26": "alpha+K0",
    "p-31-37-41x5-7": "K0-(alpha+S)",
    "p-7-9-11x5-7x4-9": "alpha+S",
}
PRODUCT_CATALOGUE = {
    "q-11-13-17x3-5": ("ns-11-13-17", "ns-3-5"),
    "q-13-15-19x3-4": ("ns-13-15-19", "ns-3-4"),
    "q-9-11-13x4-5": ("ns-9-11-13", "ns-4-5"),
}

# cli: (query id, argv, expected exit code); files live in the work dir
CLI_CALLS = (
    ("validate-ambient", ["validate", "staircase_e.json", "--ambient", "staircase_s.json"], 1),
    ("canonical", ["canonical", "corner_s.json"], 0),
    ("dual-twice", ["dual", "staircase_s.json", "staircase_e.json", "--twice"], 1),
    ("is-symmetric", ["is-symmetric", "staircase_s.json"], 1),
    ("distance", ["distance", "corner_s.json", "0,0", "3,1"], 0),
    ("gamma-of", ["gamma-of", "staircase_e.json"], 0),
    ("curve-gamma-E", ["curve-gamma", "twobranch.curve", "--module", "E"], 0),
    ("curve-gamma-cusp", ["curve-gamma", "cusp.curve"], 0),
    ("colon-K0-E", ["colon", "twobranch.curve", "K0", "E"], 0),
    ("length-R-CR", ["length", "twobranch.curve", "R", "CR"], 0),
    ("malformed", ["curve-gamma", "bad.curve"], 2),
)
MALFORMED = (
    "branches: 2\nring: (t^2, t) ; (t^3)\n",
    "branches: two\nring: (t^2, t)\n",
    "branches: 2\nring: (t^2 +, t) ; (t^3, 0)\n",
)


# ------------------------------------------------------------------ goldens


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Compares answers with stored goldens, or records them."""

    def __init__(self, record: bool = False, corrupt: str | None = None):
        self.record = record
        self.recorded: dict[str, str] = {}
        self.goldens = {} if record else json.loads(GOLDEN_PATH.read_text())
        if corrupt is not None:
            self.goldens[corrupt] = digest("corrupted golden")

    def golden(self, qid: str, text: str) -> list[str]:
        if self.record:
            self.recorded[qid] = digest(text)
            return []
        want = self.goldens.get(qid)
        if want is None:
            return [f"{qid}: no golden answer stored"]
        return [] if digest(text) == want else [f"{qid}: answer differs from golden"]


def _expect(cond: bool, qid: str, what: str) -> list[str]:
    return [] if cond else [f"{qid}: {what}"]


# ----------------------------------------------------------- seeded curves

SCALES = (Fraction(2, 3), Fraction(3, 2))


def _scale(vec, c):
    return tuple(tuple((e, a * c[i] ** e) for e, a in poly) for i, poly in enumerate(vec))


def _axpy(u, v, a):
    out = []
    for pu, pv in zip(u, v):
        acc = dict(pu)
        for e, c in pv:
            acc[e] = acc.get(e, Fraction(0)) + a * c
        out.append(tuple(sorted((e, c) for e, c in acc.items() if c)))
    return tuple(out)


def _recombine(gens, rng):
    # unit upper bidiagonal map g_j -> g_j ± g_{j+1}: invertible over Q, so
    # the generated algebra/module is unchanged.  The order of the
    # generators is kept: permuting them changes the cost by up to 1.8x.
    return tuple(_axpy(g, gens[j + 1], rng.choice((1, -1))) if j + 1 < len(gens) else g
                 for j, g in enumerate(gens))


def transform_curve(text: str, rng: random.Random) -> curves.CurveSpec:
    """Parse a curve and apply a seeded value-set-preserving change.

    One magnitude r in {2/3, 3/2} with a random sign per branch keeps the
    coefficient sizes alike across seeds, so the seed moves inputs but not
    the amount of work.
    """
    spec = curves.parse_curve(text)
    r = rng.choice(SCALES)
    c = [r * rng.choice((1, -1)) for _ in range(spec.s)]
    ring = _recombine([_scale(g, c) for g in spec.ring], rng)
    mods = tuple((n, _recombine([_scale(g, c) for g in gens], rng)) for n, gens in spec.modules)
    return curves.CurveSpec(spec.s, spec.truncation, ring, mods)


# ------------------------------------------------------------- ring-value


def _value_query(ck, qid, spec, module):
    def run():
        G = curves.value_ideal(spec, module)
        fails = ck.golden(qid, ideals.to_json(G))
        rep = ideals.validate(G)
        fails += _expect(rep.e1_ok and rep.e2_ok, qid, "value set not certified by validate")
        return fails, {"gamma": list(G.gamma), "frame": len(G.frame)}

    return qid, run


def ring_value(ck, rng, workdir):
    queries = []
    for name, text in RING_VALUE_RINGS.items():
        queries.append(_value_query(ck, f"value:{name}", transform_curve(text, rng), "R"))
    cusp = transform_curve((FIXTURES / "cusp.curve").read_text(), rng)
    queries.append(_value_query(ck, "value:cusp", cusp, "R"))
    two = transform_curve((FIXTURES / "twobranch.curve").read_text(), rng)
    for m in TWOBRANCH_MODULES:
        queries.append(_value_query(ck, f"value:twobranch:{m}", two, m))
    return queries


# ------------------------------------------------------------- ring-colon


def _colon_query(ck, qid, spec, K, E):
    def run():
        G = curves.colon_value_ideal(spec, K, E)
        fails = ck.golden(qid, ideals.to_json(G))
        lattice = duality.difference(curves.value_ideal(spec, K), curves.value_ideal(spec, E))
        fails += _expect(G == lattice, qid, "colon differs from the lattice difference")
        return fails, {"gamma": list(G.gamma), "frame": len(G.frame)}

    return qid, run


def _length_query(ck, qid, spec, big, small):
    def run():
        ell = curves.length_quotient(spec, big, small)
        fails = ck.golden(qid, str(ell))
        d = metric.relative_distance(curves.value_ideal(spec, small), curves.value_ideal(spec, big))
        fails += _expect(ell == d, qid, f"length {ell} differs from relative distance {d}")
        return fails, {"length": ell}

    return qid, run


def _conductor_query(ck, qid, spec):
    def run():
        gamma, basis = curves.conductor_of(spec)
        fails = ck.golden(qid, str(list(gamma)))
        fails += _expect(gamma == curves.value_ideal(spec).conductor, qid, "conductor mismatch")
        return fails, {"gamma": list(gamma), "dim": basis.dim, "N": basis.N}

    return qid, run


def ring_colon(ck, rng, workdir):
    two = transform_curve((FIXTURES / "twobranch.curve").read_text(), rng)
    queries = [_colon_query(ck, f"colon:twobranch:K0:{x}", two, "K0", x) for x in COLON_RIGHT]
    for pair in NESTED:
        big, small = pair.split(">")
        queries.append(_length_query(ck, f"length:twobranch:{big}:{small}", two, big, small))
    queries.append(_conductor_query(ck, "conductor:twobranch", two))
    for name, text in COLON_RINGS.items():
        spec = transform_curve(text, rng)
        queries.append(_conductor_query(ck, f"conductor:{name}", spec))
        queries.append(_colon_query(ck, f"colon:{name}:R:C", spec, "R", "C"))
        queries.append(_length_query(ck, f"length:{name}:Rbar:R", spec, "Rbar", "R"))
    return queries


# ---------------------------------------------------------------- lattice


def _frame_text(name: str) -> str:
    return (FIXTURES / "frames" / f"{name}.json").read_text()


def _lattice_queries(ck, name, s, kind, state, alpha_rng):
    """The per-frame query list; ``state`` carries E, S, K between them.

    ``kind`` names the ideal that is dualized twice.  It is fixed per frame,
    because the kinds differ in cost by up to 1.5x.  The seed orders the
    shift alpha's fixed coordinates (1, 2, 3), which barely moves the cost.
    """
    st = state.setdefault(name, {})

    def load():
        E = ideals.from_json(st["text"])
        st["E"] = E
        fails = ck.golden(f"load:{name}", ideals.to_json(E))
        return fails, {"s": E.s, "gamma": list(E.gamma), "frame": len(E.frame)}

    def certify():
        E = st["E"]
        axioms = ideals.validate(E)
        full = ideals.validate(E, E)
        st["S"] = ideals.GoodSemigroup(E)
        return _expect(axioms.ok and full.ok, f"certify:{name}", "not a good semigroup"), {
            "box": [g + 1 for g in E.gamma]
        }

    def canonical():
        K = duality.canonical_normalized(st["S"])
        st["K"] = K
        fails = ck.golden(f"canonical:{name}", ideals.to_json(K))
        fails += _expect(ideals.is_subset(st["E"], K), f"canonical:{name}", "S is not inside K0")
        return fails, {"frame": len(K.frame)}

    def symmetric():
        return ck.golden(f"symmetric:{name}", str(duality.is_symmetric(st["S"]))), {}

    alpha = tuple(alpha_rng.sample((1, 2, 3), s))

    def dual_twice():
        qid = f"dual:{name}"
        S, K = st["S"], st["K"]
        CK = duality.CanonicalIdeal.normalized(S)
        if kind == "alpha+S":
            I, want = S.ideal.shift(alpha), K.shift(tuple(-a for a in alpha))
        elif kind == "alpha+K0":
            I, want = K.shift(alpha), S.ideal.shift(tuple(-a for a in alpha))
        else:
            I, want = duality.difference(K, S.ideal.shift(alpha)), S.ideal.shift(alpha)
        once = duality.dualize(CK, I)
        twice = duality.dualize(CK, once)
        fails = _expect(once == want, qid, f"dual of {kind} is wrong")
        fails += _expect(twice == I, qid, f"dual applied twice does not return {kind}")
        return fails, {"kind": kind, "alpha": list(alpha), "frame": len(I.frame)}

    def difference():
        D = duality.difference(st["K"], st["E"])
        fails = ck.golden(f"difference:{name}", ideals.to_json(D))
        fails += _expect(D == st["K"], f"difference:{name}", "K0 - S differs from K0")
        return fails, {"frame": len(D.frame)}

    def distances():
        E, K = st["E"], st["K"]
        d = metric.distance_between(E, tuple(0 for _ in E.gamma), E.gamma)
        rel = metric.relative_distance(E, K)
        return ck.golden(f"metric:{name}", f"{d} {rel}"), {"distance": d, "relative": rel}

    def product_canonical():
        dec = ideals.decompose(st["S"])
        P = duality.product_canonical(dec)
        fails = _expect(P == st["K"], f"decompose:{name}", "product_canonical differs from K0")
        return fails, {"blocks": len(dec.partition)}

    def sum_query():
        E, K = st["E"], st["K"]
        X = ideals.sum_ideals(K, E.shift(alpha))
        fails = _expect(X == K.shift(alpha), f"sum:{name}", "K0 + (alpha + S) differs from alpha + K0")
        return fails, {"alpha": list(alpha)}

    queries = [
        (f"load:{name}", load),
        (f"certify:{name}", certify),
        (f"canonical:{name}", canonical),
        (f"symmetric:{name}", symmetric),
        (f"dual:{name}", dual_twice),
        (f"difference:{name}", difference),
        (f"metric:{name}", distances),
    ]
    if name.startswith(("p-", "q-")):
        queries.append((f"decompose:{name}", product_canonical))
    if s <= 2:
        queries.append((f"sum:{name}", sum_query))
    return queries


def lattice(ck, rng, workdir):
    state: dict = {}
    picked = sorted(PRODUCT_CATALOGUE) if ck.record else sorted(rng.sample(sorted(PRODUCT_CATALOGUE), 2))
    queries = []
    for name, kind in LATTICE_FRAMES.items():
        text = _frame_text(name)
        state[name] = {"text": text}
        queries += _lattice_queries(ck, name, len(json.loads(text)["mu"]), kind, state, rng)
    for name in picked:
        a, b = PRODUCT_CATALOGUE[name]
        texts = (_frame_text(a), _frame_text(b))

        def product(name=name, texts=texts):
            factors = [ideals.GoodSemigroup(ideals.from_json(t)) for t in texts]
            P = ideals.product_semigroups(*factors)
            text = ideals.to_json(P)
            state[name]["text"] = text
            return ck.golden(f"product:{name}", text), {"gamma": list(P.gamma)}

        queries.append((f"product:{name}", product))
        queries += _lattice_queries(ck, name, 2, "alpha+K0", state, rng)
    return queries


# -------------------------------------------------------------------- cli


def prepare_cli_files(rng, workdir: Path) -> None:
    """Write the seed-transformed curve files and fixture copies."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in ("corner_s.json", "staircase_e.json", "staircase_s.json"):
        shutil.copyfile(FIXTURES / name, workdir / name)
    for name in ("twobranch.curve", "cusp.curve"):
        spec = transform_curve((FIXTURES / name).read_text(), rng)
        (workdir / name).write_text(curves.dumps_curve(spec))
    (workdir / "bad.curve").write_text(rng.choice(MALFORMED))


def check_cli(ck, qid, expected_rc, rc, stdout) -> list[str]:
    fails = _expect(rc == expected_rc, qid, f"exit code {rc}, expected {expected_rc}")
    return fails + ck.golden(qid, f"{rc}\n{stdout}")


BUILDERS = {"ring-value": ring_value, "ring-colon": ring_colon, "lattice": lattice}


def probe(workdir: Path, shim_call) -> None:
    """A fixed, small call into every traced layer (about 0.5 s).

    Traced runs add it to every workload's pass, so each run reports a
    measured value for every layer, including layers its workload does
    not reach.  ``shim_call(argv)`` runs one traced CLI command.
    """
    spec = curves.parse_curve(COLON_RINGS["ring-6-6"])
    curves.conductor_of(spec)
    curves.length_quotient(spec, "Rbar", "R")
    E = ideals.from_json((FIXTURES / "corner_s.json").read_text())
    S = ideals.GoodSemigroup(E)
    CK = duality.CanonicalIdeal.normalized(S)
    duality.dualize(CK, duality.dualize(CK, E.shift((1, 0))))
    ideals.sum_ideals(CK.ideal, E)
    metric.relative_distance(E, CK.ideal)
    factors = [ideals.GoodSemigroup(ideals.from_json(_frame_text(n))) for n in ("ns-3-4", "ns-3-5")]
    duality.product_canonical(ideals.decompose(ideals.product_semigroups(*factors)))
    workdir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(FIXTURES / "staircase_e.json", workdir / "probe_e.json")
    shim_call(["gamma-of", "probe_e.json"])


# ------------------------------------------------------ fixture generation


def write_frame_fixtures() -> None:
    """Regenerate fixtures/frames/*.json (run once; the files are committed)."""
    from goodsemi import generate

    out = FIXTURES / "frames"
    out.mkdir(parents=True, exist_ok=True)

    def ns(name):
        return generate.numerical_semigroup(*map(int, name.split("-")[1:]))

    def save(name, frame):
        (out / f"{name}.json").write_text(ideals.to_json(frame))

    names = {"ns-31-37-41", "ns-5-7", "ns-7-9-11", "ns-4-9"}
    for pair in PRODUCT_CATALOGUE.values():
        names.update(pair)
    for name in sorted(names):
        save(name, ns(name).ideal)
    for ring in ("ring-34-26", "ring-44-26"):
        save(ring, curves.value_ideal(curves.parse_curve(RING_VALUE_RINGS[ring])))
    save("p-31-37-41x5-7", ideals.product_semigroups(ns("ns-31-37-41"), ns("ns-5-7")).ideal)
    save(
        "p-7-9-11x5-7x4-9",
        ideals.product_semigroups(ns("ns-7-9-11"), ns("ns-5-7"), ns("ns-4-9")).ideal,
    )

