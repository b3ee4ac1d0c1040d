"""Differential digest: seeded frame arithmetic pinned byte for byte.

Each group hashes the canonical text of many seeded results.  The
digests were recorded from the earlier array implementation of the
frame bitmaps, so any change of layout must reproduce every byte: the
frame JSON, the order of each witness list and every verdict.  The
``generate`` group, recorded before the generators' repair loop was
rewritten to scan normalized frames, pins what the generators draw.
The ``colon`` group, recorded before the ring bridge's colons were
rewritten by the residue pairing, pins their value sets.
"""

import hashlib
import random

import pytest

import oracles
from conftest import load_text
from goodsemi import (
    CanonicalIdeal,
    IdealFrame,
    decompose,
    difference,
    distance_between,
    dualize,
    product_canonical,
    product_semigroups,
    sum_ideals,
    to_json,
    validate,
)
from goodsemi.generate import random_good_ideal, random_good_semigroup, random_pair
from goodsemi.ringbridge import colon_value_ideal, parse_curve

DIGESTS = {
    "sum": "c9fc9187efe1f00b029d902ddd7d538c54fc2d772f217aa53836e9213bd4d526",
    "difference": "39797e760b5cc6c900be65f96b658e32728f765495a5cbb763d30da2d9d0205b",
    "validate": "7ea450a8d6970bf08bab208cd6f8bc51d6ced81034e6af95d744f1a747c7ef61",
    "dualize": "fe6b4938d0998a43b24d0d8a3ec3d719e4c094e04176f2875d4cb027af127d0f",
    "canonical": "387afe808750f083239d1989c80818e100f37b26fe278725f0d65ec7775e5434",
    "product_canonical": "a24c1d19fde34cd105bec1bbe488d7cfc9304ad0112d75f70b9f3cb12820cdaf",
    "metric": "b55496b5185b690b3b4fe677b2bebde0b5893ae9cd05143d6774124c56889ba0",
    "generate": "e1b87465fcaaba8fd4b5113e7a7017be2d6317da229dc768ba7c16412810d760",
    "colon": "56d5cbce2ee75990db0115127303ccda2584ac29eafcd73e9ab84e899cb2c3e4",
}


def _raw_frame(rng, s):
    """Random points over [mu, mu + B] holding both corners; closed under
    componentwise min about half of the time."""
    B = tuple(rng.randint(0, 3 if s <= 2 else 2) for _ in range(s))
    mu = tuple(rng.randint(-3, 2) for _ in range(s))
    pts = {(0,) * s, B}
    for _ in range(rng.randint(0, 8)):
        pts.add(tuple(rng.randint(0, b) for b in B))
    while rng.random() < 0.5:
        extra = {oracles.cmin(p, q) for p in pts for q in pts} - pts
        if not extra:
            break
        pts |= extra
    return IdealFrame(s, mu, oracles.add(B, mu), {oracles.add(p, mu) for p in pts})


def _report(rep) -> str:
    return "\n".join(
        [rep.summary(), repr(rep.e1_failures), repr(rep.e2_failures), repr(rep.additivity_failures)]
    )


def _texts():
    out = {name: [] for name in DIGESTS}
    rng = random.Random(20261101)
    for _ in range(160):
        s = rng.randint(1, 4)
        E, F = _raw_frame(rng, s), _raw_frame(rng, s)
        out["sum"].append(to_json(sum_ideals(E, F)))
        out["validate"].append(_report(validate(E)))
        out["validate"].append(_report(validate(E, F)))
        if E.is_e1() and F.is_e1():
            out["difference"].append(to_json(difference(E, F)))
    for _ in range(40):
        s = rng.randint(1, 4)
        S, E = random_pair(rng, s, max_gamma=5 if s <= 2 else 3)
        K = CanonicalIdeal.normalized(S)
        out["canonical"].append(to_json(K.ideal))
        out["dualize"].append(to_json(dualize(K, E)))
        out["dualize"].append(to_json(dualize(K, dualize(K, E))))
        out["metric"].append(str(distance_between(E, E.mu, E.conductor)))
        out["metric"].append(str(distance_between(K.ideal, K.ideal.mu, K.ideal.conductor)))
    for _ in range(24):
        parts = [random_good_semigroup(rng, rng.randint(1, 2), 5) for _ in range(rng.randint(2, 3))]
        P = product_semigroups(*parts)
        dec = decompose(P)
        out["product_canonical"].append(repr(dec.partition) + "\n" + to_json(product_canonical(dec)))
    rng = random.Random(20261020)  # its own draws, so the groups above keep theirs
    for i in range(100):
        s = rng.randint(1, 4)
        S = random_good_semigroup(rng, s, 7 if s <= 2 else 4, local=bool(i % 2))
        out["generate"].append(to_json(S.ideal))
        out["generate"].append(to_json(random_good_ideal(rng, S, i % 5)))
    # every ordered colon among twobranch's nine modules, and among the
    # built-ins R, m, Rbar and C on two more curves
    for name in ("twobranch.curve", "cusp.curve", "not_good_difference.curve"):
        spec = parse_curve(load_text(name))
        names = ["R", "m", "Rbar", "C", *spec.module_names()]
        out["colon"] += [to_json(colon_value_ideal(spec, F, E)) for F in names for E in names]
    return out


@pytest.fixture(scope="module")
def texts():
    return _texts()


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_differential_digest(texts, group):
    assert len(texts[group]) >= 20, len(texts[group])
    got = hashlib.sha256("\x00".join(texts[group]).encode()).hexdigest()
    assert got == DIGESTS[group]
