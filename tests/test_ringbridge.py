import math
import re
from fractions import Fraction

import pytest

import oracles
from test_bench_smoke import workloads
from goodsemi import (
    DimensionMismatch,
    FrameError,
    InclusionError,
    NotCertifiedError,
    ParseError,
    TruncationError,
    difference,
    relative_distance,
)
from goodsemi.ideals import Box, IdealFrame
from goodsemi.ringbridge import (
    ModuleBasis,
    curves,
    colon_solution_basis,
    modules,
    SeriesVector,
    colon_value_ideal,
    conductor_of,
    dumps_curve,
    length_quotient,
    module_generators,
    parse_curve,
    span_basis,
    span_module,
    value_ideal,
    value_semigroup_ideal,
)

CUSP = "branches: 1\nring: (t^2) ; (t^3)\n"
THREE_BRANCH = "branches: 3\nring: (t, t, 0) ; (0, t, t) ; (t^2, 0, t^3)\n"


# -------------------------------------------------------------- linear algebra


def _rand_row(rng, s, N, scale=1):
    """A random integer row of length s*N with no zero entry, every entry
    a multiple of ``scale``."""
    return {rng.randrange(s * N): scale * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(0, 6))}


def _dense(row, size):
    return [row.get(k, 0) for k in range(size)]


def _reduced(basis, row):
    """The integer row reduced against the basis: empty iff it lies in
    the span."""
    v = dict(row)
    basis._fully_reduce(v)
    return v


def _monic_rows(basis):
    """The rows of a basis, each divided by its pivot entry, as dense lists."""
    size = basis.s * basis.N
    return [
        [Fraction(basis.rows[p].get(k, 0), basis.rows[p][p]) for k in range(size)]
        for p in sorted(basis.rows)
    ]


def test_module_basis_rank_matches_dense_rref(rng):
    s, N = 2, 6
    for trial in range(5):
        vecs = [_rand_row(rng, s, N) for _ in range(6)]
        basis = ModuleBasis(s, N)
        for v in vecs:
            basis._insert(dict(v))
        rank, _ = oracles.rref([_dense(v, s * N) for v in vecs])
        assert basis.dim == rank
        combo = {}
        for v in vecs:
            f = rng.randint(-2, 2)
            for k, c in v.items():
                combo[k] = combo.get(k, 0) + f * c
        combo = {k: c for k, c in combo.items() if c}
        assert not _reduced(basis, combo)
        assert not basis._insert(combo)


def test_module_basis_keeps_reduced_echelon_invariants(rng):
    # rows with a common factor must come out primitive
    vecs = [_rand_row(rng, 2, 5, scale=rng.randint(1, 4)) for _ in range(7)]
    basis = ModuleBasis(2, 5)
    for v in vecs:
        basis._insert(dict(v))
    for piv, row in basis.rows.items():
        assert min(row) == piv
        assert all(type(c) is int for c in row.values())
        assert math.gcd(*row.values()) == 1
        assert row[piv] > 0
        for other_piv, other in basis.rows.items():
            if other_piv != piv:
                assert piv not in other
    # divided by its pivot entry, each row is the matching row of the rref
    rank, red = oracles.rref([_dense(v, 10) for v in vecs])
    assert basis.dim == rank
    assert _monic_rows(basis) == red


def _scaled_terms(vec, c=1):
    """integer_terms of the {exp: coeff}-per-branch vector scaled by c."""
    return curves.integer_terms([sorted((e, c * Fraction(x)) for e, x in d.items()) for d in vec])


def test_span_basis_ignores_rational_scaling_of_generators():
    N = 10
    ring = [
        ({2: Fraction(1, 2), 3: Fraction(2, 3)}, {1: 1}),
        ({3: 1}, {2: Fraction(-3, 4), 5: 2}),
    ]
    g = ({1: Fraction(5, 6), 2: 1}, {0: Fraction(-1, 3)})
    base = span_basis([_scaled_terms(r) for r in ring], [_scaled_terms(g)], N)
    # a rescaling by c > 0 gives the same terms, by c < 0 their negatives
    for v in ring + [g]:
        terms = _scaled_terms(v)
        for c in (Fraction(2, 3), Fraction(-3, 2), Fraction(-5, 7), Fraction(9, 2)):
            sign = 1 if c > 0 else -1
            assert _scaled_terms(v, c) == tuple(tuple((e, sign * x) for e, x in p) for p in terms)
    scaled_ring = [_scaled_terms(r, c) for r, c in zip(ring, (Fraction(-5, 7), Fraction(9, 2)))]
    for c in (Fraction(2, 3), Fraction(-3, 2)):
        assert span_basis([_scaled_terms(r) for r in ring], [_scaled_terms(g, c)], N).rows == base.rows
        assert span_basis(scaled_ring, [_scaled_terms(g, c)], N).rows == base.rows
    rows = oracles.span_rows(ring, [g], 2, N)
    assert _monic_rows(base) == rows


def _rand_terms(rng, s, lo, hi, least=0):
    """A random integer polynomial vector as {exp: coeff} per branch, with
    at least ``least`` terms on each."""
    return tuple(
        {rng.randint(lo, hi): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(least, 2))}
        for _ in range(s)
    )


def _terms(vec):
    """{exp: coeff} per branch as integer terms."""
    return tuple(tuple(sorted(d.items())) for d in vec)


def _pairing(z, zN, y, yN, c):
    """⟨z, y⟩ = Σ_i Σ_(e<c_i) z_(i,e)·y_(i,c_i-1-e) for flat rows of orders zN and yN."""
    return sum(x * y.get((q // zN) * yN + c[q // zN] - 1 - q % zN, 0) for q, x in z.items() if q % zN < c[q // zN])


def test_residue_dual_is_the_complement_under_the_residue_pairing(rng):
    # on random spans holding t^k for c_i <= k: the dual holds the same
    # monomials, each of its other rows lies below c and pairs to zero with
    # every row of the span, and those rows number Σc_i minus the span's
    # rows below c, the dimension of the complement
    for trial in range(40):
        s = rng.randint(1, 3)
        c = tuple(rng.randint(0, 5) for _ in range(s))
        M_order, N = max(c) + rng.randint(1, 3), max(c) + rng.randint(1, 3)
        M = ModuleBasis(s, M_order)
        for i in range(s):
            for e in range(c[i], M_order):
                M._insert({i * M_order + e: 1})
        for _ in range(rng.randint(0, 8)):
            M._insert(_rand_row(rng, s, M_order))
        D = modules.residue_dual(M, c, (0,) * s, N)
        below = [row for p, row in D.rows.items() if p % N < c[p // N]]
        assert {p: row for p, row in D.rows.items() if p % N >= c[p // N]} == {
            p: {p: 1} for i in range(s) for p in range(i * N + c[i], (i + 1) * N)
        }
        assert all(q % N < c[q // N] for z in below for q in z)
        spanned = [row for p, row in M.rows.items() if p % M_order < c[p // M_order]]
        assert len(below) + len(spanned) == sum(c)
        assert all(_pairing(z, N, y, M_order, c) == 0 for z in below for y in spanned)


def _moved(rows, s, n, shift):
    """Dense rows of length s*n moved up by ``shift`` per branch, cut at n."""
    out = []
    for row in rows:
        v = [Fraction(0)] * (s * n)
        for i in range(s):
            for e in range(n - shift[i]):
                v[i * n + e + shift[i]] = row[i * n + e]
        out.append(v)
    return out


def test_colon_solution_basis_matches_dense_oracle(rng):
    # the basis of t^σ·(F : E), σ = c - gamma_F, is the kernel of
    # y ↦ (t^b·y·g_1, ..., t^b·y·g_k) modulo t^(σ + b)·F, b >= -σ clearing
    # poles: its dimension is sN - (rank[A; W^k] - k·dim W), A the rows of
    # the products for y = t^var, and each returned y maps into W^k
    nontrivial = 0
    for trial in range(30):
        s = rng.randint(1, 2)
        # t^3, t^4 and t^5 on each branch put t^3·Rbar in R, and then a
        # generator of order o on every branch puts t^(o + 3)·Rbar in its module
        mono = [tuple({e: 1} if b == i else {} for b in range(s)) for i in range(s) for e in (3, 4, 5)]
        ring = [_rand_terms(rng, s, 1, 4, least=1) for _ in range(2)] + mono
        F_gens = [_rand_terms(rng, s, 0, 3, least=1) for _ in range(rng.randint(1, 2))]
        E_gens = [_rand_terms(rng, s, 0, 3, least=1) for _ in range(rng.randint(1, 2))]
        gamma_F, gamma_E = (tuple(min(g[0][i]) + 3 for i in range(s)) for g in (F_gens, E_gens))
        mu_F, mu_E = (tuple(min(min(g[i]) for g in gens) for i in range(s)) for gens in (F_gens, E_gens))
        c = tuple(g - m + x for g, m, x in zip(gamma_F, mu_F, gamma_E))
        sigma = tuple(x - g for x, g in zip(c, gamma_F))
        N = max(d + g - m for d, g, m in zip(sigma, gamma_F, mu_E)) + 1 + rng.randint(0, 2)
        T = [_terms(g) for g in ring]
        F = span_basis(T, [_terms(g) for g in F_gens], max(gamma_F) + 1)
        got = colon_solution_basis(T, F, [_terms(g) for g in E_gens], gamma_F, c, (0,) * s, N)
        # solved from F's span two orders higher, the basis is the same row for row
        F_up = span_basis(T, [_terms(g) for g in F_gens], max(gamma_F) + 3)
        assert colon_solution_basis(T, F_up, [_terms(g) for g in E_gens], gamma_F, c, (0,) * s, N).rows == got.rows

        b = tuple(max(0, -d) for d in sigma)
        L = max(d + x + g for d, x, g in zip(sigma, b, gamma_F)) + 1
        w_dim, W = oracles.rref(_moved(oracles.span_rows(ring, F_gens, s, L), s, L, [d + x for d, x in zip(sigma, b)]))
        E_dense = [oracles.dense_vec(g, s, L) for g in E_gens]
        size, wide, k = s * N, s * L, len(E_dense)

        def products(y):
            ys = [([Fraction(0)] * b[i] + list(y[i * N:(i + 1) * N]) + [Fraction(0)] * L)[:L] for i in range(s)]
            return [oracles.flatten(oracles.vec_mul_mod(ys, g, L)) for g in E_dense]

        A = [sum(products([Fraction(q == var) for q in range(size)]), []) for var in range(size)]
        blocks = [[0] * (j * wide) + w + [0] * ((k - 1 - j) * wide) for j in range(k) for w in W]
        rank = oracles.rref(A + blocks)[0] - k * w_dim
        assert got.dim == size - rank
        rows = [[got.rows[p].get(q, 0) for q in range(size)] for p in sorted(got.rows)]
        assert oracles.rref(rows)[0] == got.dim
        for y in rows:
            for prod in products(y):
                assert oracles.rref(W + [prod])[0] == w_dim
        nontrivial += 0 < got.dim < size

        # read shifted down by a, the least order on each branch, the basis
        # is that of t^(-a) times the one above; a step past a is refused
        a = tuple(min(q % N for row in got.rows.values() for q in row if q // N == i) for i in range(s))
        n = N - max(a)
        want = ModuleBasis(s, n)
        for row in got.rows.values():
            want._insert({(q // N) * n + q % N - a[q // N]: x for q, x in row.items() if q % N - a[q // N] < n})
        assert colon_solution_basis(T, F, [_terms(g) for g in E_gens], gamma_F, c, a, n).rows == want.rows
        for i in (i for i in range(s) if a[i] < c[i]):
            up = tuple(x + (j == i) for j, x in enumerate(a))
            with pytest.raises(NotCertifiedError, match=f"on branch {i}, below its bound {a[i] + 1}$"):
                colon_solution_basis(T, F, [_terms(g) for g in E_gens], gamma_F, c, up, n)
    assert nontrivial >= 20


def test_span_closes_under_ring_action(rng, curve_spec):
    N = 12
    basis = span_basis(
        [curves.integer_terms(g) for g in curve_spec.ring],
        [curves.integer_terms(g) for g in module_generators(curve_spec, "E")],
        N,
    )
    # each row times each ring generator, multiplied over Fractions, lies
    # in the row space: the rank does not grow
    size = 2 * N
    dense = [_dense(r, size) for r in basis.rows.values()]
    for r in basis.rows.values():
        x = SeriesVector.from_flat(2, N, {k: Fraction(c) for k, c in r.items()})
        for g in curve_spec.ring:
            prod = (x * SeriesVector.from_polys(g, N)).to_flat()
            assert oracles.rref(dense + [_dense(prod, size)])[0] == basis.dim
    # dimension agrees with a dense worklist closure done from scratch
    rows = oracles.span_rows(
        _as_dicts(curve_spec.ring),
        _as_dicts(module_generators(curve_spec, "E")),
        2, N,
    )
    assert basis.dim == len(rows)


def _as_dicts(gens):
    return [tuple(dict(p) for p in g) for g in gens]


@pytest.mark.parametrize(
    "text, module, N, hi",
    [
        (None, "E", 12, (6, 6)),
        (None, "K0", 12, (6, 6)),
        (None, "CF", 12, (6, 6)),
        (THREE_BRANCH, "R", 8, (6, 6, 6)),
    ],
    ids=["E", "K0", "CF", "three-branch"],
)
def test_value_set_matches_dimension_drop_oracle(curve_spec, text, module, N, hi):
    spec = curve_spec if text is None else parse_curve(text)
    basis = span_module(spec, module, N)
    G = value_semigroup_ideal(basis, hi)
    rows = oracles.span_rows(
        _as_dicts(spec.ring), _as_dicts(module_generators(spec, module)),
        spec.s, N,
    )
    for alpha in oracles.box((0,) * spec.s, hi):
        assert (alpha in G) == oracles.in_value_set(rows, spec.s, N, alpha)


def _random_scan_case(rng, s):
    """A ring with a conductor on each branch (t^c and t^(c+1) there, so
    at most c(c-1)) and random generators tying the branches together, a
    random two-generator module, a truncation N and scan corners that are
    not all equal."""
    ring = []
    for i in range(s):
        c = rng.randint(4, 5)
        ring += [tuple({c + d: 1} if k == i else {} for k in range(s)) for d in (0, 1)]
    ring += [_rand_terms(rng, s, 2, 6, least=1) for _ in range(rng.randint(1, 2))]
    module = [_rand_terms(rng, s, 0, 4, least=1) for _ in range(2)]
    N = rng.randint(10, 13) if s < 3 else rng.randint(7, 8)
    hi = (N - 2 - rng.randint(0, 2),)
    while len(hi) < s:
        hi += (rng.choice([h for h in range(N - 4, N - 1) if h not in hi]),)
    return ring, module, N, hi


def test_scan_matches_the_dimension_drop_oracle_on_random_modules(rng):
    # corners differ per axis, so a scan that mixes up two axes, files a
    # row one order too high or writes a run one cell short shows up
    # a corner that is not a value (below the conductor) is refused by name
    cells = refused = 0
    for s in (1, 2, 3):
        scanned = 0
        for _ in range(40):
            ring, module, N, hi = _random_scan_case(rng, s)
            rows = oracles.span_rows(ring, module, s, N)
            basis = span_basis(list(map(_terms, ring)), list(map(_terms, module)), N)
            if not oracles.in_value_set(rows, s, N, hi):
                with pytest.raises(FrameError, match=rf"corner {re.escape(str(hi))} is not a value of the module"):
                    value_semigroup_ideal(basis, hi)
                refused += 1
                continue
            G = value_semigroup_ideal(basis, hi)
            for alpha in oracles.box((0,) * s, hi):
                assert (alpha in G) == oracles.in_value_set(rows, s, N, alpha), (ring, module, N, hi, alpha)
                cells += 1
            scanned += 1
            if scanned == 4:
                break
        assert scanned == 4, f"only {scanned} of 40 draws on {s} branches had a corner to scan"
    assert cells > 500 and refused


def _separable_case(rng, s):
    """A basis whose rows each lie on one branch: per branch, 2-3 random
    polynomials led by a coefficient ±2 or ±3 (like 2t^3 - t^5), inserted
    through ModuleBasis._insert.  Returns the basis and the polynomials
    as flat rows."""
    N = rng.randint(9, 12) if s < 3 else rng.randint(7, 8)
    basis, polys = ModuleBasis(s, N), []
    for i in range(s):
        for _ in range(rng.randint(2, 3)):
            lead = rng.randint(0, N - 2)
            v = {i * N + lead: rng.choice((-3, -2, 2, 3))}
            for e in rng.sample(range(lead + 1, N), min(2, N - 1 - lead)):
                v[i * N + e] = rng.choice((-3, -2, -1, 1, 2, 3))
            polys.append(v)
            basis._insert(dict(v))
    return basis, polys


def test_scan_of_a_separable_basis_reads_its_pivots(rng):
    # the pivot read against the dimension-drop oracle: every cell, the
    # frame against the trim of the same cells (so gamma is the least
    # exact bound), and a corner off the pivots refused by name
    cases = refused = longer = 0
    for s in (1, 2, 3):
        for _ in range(5):
            basis, polys = _separable_case(rng, s)
            N = basis.N
            assert all(max(row) // N == p // N for p, row in basis.rows.items())
            _, rows = oracles.rref([_dense(v, s * N) for v in polys])
            pivots = [sorted(p % N for p in basis.rows if p // N == i and p % N <= N - 2) for i in range(s)]
            if not all(pivots):
                continue
            hi = tuple(rng.choice(p) for p in pivots)
            if s > 1 and len(set(hi)) == 1:
                continue
            G = value_semigroup_ideal(basis, hi)
            bits = 0
            for k, alpha in enumerate(oracles.box((0,) * s, hi)):
                member = oracles.in_value_set(rows, s, N, alpha)
                assert (alpha in G) == member, (s, N, polys, hi, alpha)
                bits |= member << k
            shape = tuple(h + 1 for h in hi)
            assert G == IdealFrame._from_box(Box((0,) * s, shape, bits)), (s, N, polys, hi)
            cases += 1
            longer += sum(len(row) > 1 for row in basis.rows.values())
            i = rng.randrange(s)
            gaps = [e for e in range(N - 1) if e not in pivots[i]]
            if gaps:
                off = hi[:i] + (rng.choice(gaps),) + hi[i + 1 :]
                assert not oracles.in_value_set(rows, s, N, off)
                with pytest.raises(FrameError, match=rf"corner {re.escape(str(off))} is not a value of the module"):
                    value_semigroup_ideal(basis, off)
                refused += 1
    assert cases >= 10 and refused >= 5 and longer, (cases, refused, longer)


def test_scan_refuses_a_corner_of_the_wrong_length_or_sign(curve_spec):
    basis = span_module(curve_spec, "E", 12)
    for hi in ((6,), (6, 6, 6)):
        with pytest.raises(DimensionMismatch, match=rf"has {len(hi)} coordinates for 2 branches"):
            value_semigroup_ideal(basis, hi)
    with pytest.raises(FrameError, match=r"corner \(-1, 3\) has a negative coordinate"):
        value_semigroup_ideal(basis, (-1, 3))
    # a corner coordinate that is not an integer is refused by name, and a
    # bool is not read as 1
    for bad in (8.0, "3", True):
        with pytest.raises(FrameError, match=rf"non-integer coordinate {re.escape(repr(bad))}"):
            value_semigroup_ideal(basis, (6, bad))


def test_value_ideal_inserts_no_row_while_scanning(monkeypatch, curve_spec):
    # the scan echelons its rows by forward elimination alone: a reduced
    # basis, rebuilt through ModuleBasis._insert, is never needed
    inserts, scanning = [0, 0], [False]
    real_insert, real_scan = ModuleBasis._insert, curves.value_semigroup_ideal

    def insert(self, v):
        inserts[scanning[0]] += 1
        return real_insert(self, v)

    def scan(basis, hi):
        scanning[0] = True
        try:
            return real_scan(basis, hi)
        finally:
            scanning[0] = False

    monkeypatch.setattr(ModuleBasis, "_insert", insert)
    monkeypatch.setattr(curves, "value_semigroup_ideal", scan)
    for spec, module in ((curve_spec, "E"), (curve_spec, "R"), (parse_curve(THREE_BRANCH), "R")):
        value_ideal(spec, module)
    assert inserts[0] > 0 and inserts[1] == 0


@pytest.mark.parametrize("poles", [(0,), (1,), (3,)])
def test_colon_by_one_returns_the_module_itself(poles):
    # F = (2 + 3t)·k[[t^2, t^3]] has a primitive row with pivot entry 2,
    # so the complement must divide by pivot entries: solved with
    # c = gamma_F + poles, the basis of t^poles·(F : R) is t^poles·F as a
    # subspace, not only as a value set
    N = 12
    ring = [(((2, 1),),), (((3, 1),),)]
    F = span_basis(ring, [(((0, 2), (1, 3)),)], N)
    assert F.rows[0] == {0: 2, 1: 3}
    want = ModuleBasis(1, N)
    for row in F.rows.values():
        want._insert({p + poles[0]: c for p, c in row.items() if p + poles[0] < N})
    for e in range(2 + poles[0], N):
        want._insert({e: 1})
    got = colon_solution_basis(ring, F, [(((0, 1),),)], (2,), (2 + poles[0],), (0,), N)
    assert got.rows == want.rows


def test_span_refuses_a_ring_generator_with_fewer_branches_than_the_module():
    # a one-branch ring used to fail with a bare IndexError on a two-branch module
    with pytest.raises(DimensionMismatch, match=re.escape("ring generator (((1, 1),),) has 1 branches, not 2")):
        span_basis([(((1, 1),),)], [(((0, 1),), ((0, 1),))], 5)


def test_span_refuses_a_module_generator_with_fewer_branches_than_the_ring():
    # a two-branch ring and a one-branch module used to give a one-branch span
    with pytest.raises(DimensionMismatch, match="has 2 branches, not 1"):
        span_basis([(((1, 1),), ((1, 1),))], [(((0, 1),),)], 5)
    with pytest.raises(DimensionMismatch, match=re.escape("module generator (((0, 1),),) has 1 branches, not 2")):
        span_basis([], [(((0, 1),), ()), (((0, 1),),)], 5)


def test_colon_refuses_a_generator_of_E_with_another_branch_count():
    # its second branch used to be dropped without a word
    N = 12
    ring = [(((2, 1),),), (((3, 1),),)]
    F = span_basis(ring, [(((0, 1),),)], N)
    with pytest.raises(DimensionMismatch, match=re.escape("generator of E (((0, 1),), ((0, 1),)) has 2 branches, not 1")):
        colon_solution_basis(ring, F, [(((0, 1),), ((0, 1),))], (2,), (2,), (0,), N)


@pytest.mark.parametrize("name", ["gamma_F", "c", "a"])
def test_colon_refuses_a_bound_without_one_coordinate_per_branch(name):
    # a short one would raise a bare IndexError, a long one read a third branch
    ring = [(((1, 1),), ((1, 1),))]
    F = span_basis(ring, [(((0, 1),), ()), ((), ((0, 1),))], 12)
    bounds = {"gamma_F": (0, 0), "c": (1, 1), "a": (0, 0)}
    for bad in ((0,), (0, 0, 0)):
        args = {**bounds, name: bad}
        with pytest.raises(DimensionMismatch, match=re.escape(f"{name} {bad} has {len(bad)} coordinates, not the 2")):
            colon_solution_basis(ring, F, [(((0, 1),), ((0, 1),))], args["gamma_F"], args["c"], args["a"], 12)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IdealFrame(0, (), (), [()]), "branch count must be >= 1"),
        (lambda: IdealFrame(2, (0,), (1, 1), [(0, 0)]), "mu/gamma must have 2 coordinates"),
        (lambda: IdealFrame(2, (0, 0), (1,), [(0, 0)]), "mu/gamma must have 2 coordinates"),
        (lambda: IdealFrame(2, (0, 0), (1, 1), []), "frame must be nonempty"),
        (lambda: IdealFrame(2, (0, 0), (1, 1), [(0, 0), (1,)]), "frame point (1,) has wrong dimension"),
        (lambda: IdealFrame(2, (0, 0), (1, 1), [(0, 0), (2, 1)]), "frame point (2, 1) outside [(0, 0), (1, 1)]"),
        (lambda: span_basis([(((1, 1),),)], [], 8), "a module needs at least one generator"),
        (lambda: value_semigroup_ideal(ModuleBasis(2, 10), (3, 3)), "the zero module has no value semigroup ideal"),
        (
            lambda: colon_solution_basis([], ModuleBasis(1, 5), [(((0, 1),),)], (6,), (6,), (0,), 5),
            "a span of order 5 does not reach the conductor (6,) of its residue dual",
        ),
        (
            # on the cusp, R : R with the bound c = 1 below the conductor 2
            # of D·R = t^2·(ω : R): unchecked, it solved to t·Rbar
            lambda: colon_solution_basis(
                [(((2, 1),),), (((3, 1),),)], span_basis([(((2, 1),),), (((3, 1),),)], [(((0, 1),),)], 6),
                [(((0, 1),),)], (2,), (1,), (0,), 6,
            ),
            "the product of E and the dual of F misses t^1 on branch 0: conductor bound (1,) is not valid at truncation 2",
        ),
    ],
    ids=["s-zero", "short-mu", "short-gamma", "empty", "point-dimension", "point-outside",
         "span-no-generator", "scan-zero-module", "colon-truncation", "colon-product-conductor"],
)
def test_frame_and_module_inputs_are_refused_by_name(build, message):
    with pytest.raises((FrameError, TruncationError), match=re.escape(message)):
        build()


def test_colon_refuses_a_solution_space_not_closed_under_the_ring():
    # F, spanned by 1, t^3 and t^5, ..., t^11, holds every monomial from
    # its conductor 5 on but is no module of k[[t^2, t^3]]: t^2·1 is
    # missing.  So F : 1, which is F itself, is not closed either
    N = 12
    ring = [(((2, 1),),), (((3, 1),),)]
    F = ModuleBasis(1, N)
    for e in (0, 3, *range(5, N)):
        F._insert({e: 1})
    with pytest.raises(NotCertifiedError, match="not closed under the ring action"):
        colon_solution_basis(ring, F, [(((0, 1),),)], (5,), (5,), (0,), N)


def test_value_set_oracle_on_one_branch():
    spec = parse_curve(CUSP)
    N = 10
    rows = oracles.span_rows(
        _as_dicts(spec.ring), [({0: 1},)], 1, N
    )
    basis = span_module(spec, "R", N)
    G = value_semigroup_ideal(basis, (8,))
    for alpha in oracles.box((0,), (8,)):
        assert (alpha in G) == oracles.in_value_set(rows, 1, N, alpha)


def test_truncation_guard_on_scan_box():
    basis = ModuleBasis(1, 6)
    basis._insert({0: 1})
    with pytest.raises(TruncationError, match="scan box"):
        value_semigroup_ideal(basis, (5,))


# ------------------------------------------------------------- value ideals


def test_value_ideal_of_ring(curve_spec):
    G = value_ideal(curve_spec, "R")
    assert G.frame_sorted == ((0, 0), (3, 1))
    assert G.gamma == (3, 1)


def test_value_ideals_of_named_modules(curve_spec):
    GE = value_ideal(curve_spec, "E")
    assert GE.frame_sorted == ((2, 1), (2, 2), (3, 1), (5, 2))
    assert GE.gamma == (5, 2)
    GF = value_ideal(curve_spec, "F")
    assert GF.frame_sorted == ((3, 1), (4, 2))
    GK = value_ideal(curve_spec, "K0")
    assert GK.frame_sorted == (
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 1)
    )
    assert value_ideal(curve_spec, "CR").frame_sorted == ((3, 1),)
    assert value_ideal(curve_spec, "CF").frame_sorted == ((4, 2),)
    assert value_ideal(curve_spec, "Rbar").frame_sorted == ((0, 0),)


def test_value_ideal_of_cusp():
    spec = parse_curve(CUSP)
    G = value_ideal(spec, "R")
    assert G.frame_sorted == ((0,), (2,))
    assert G.gamma == (2,)


def test_unknown_module_name(curve_spec):
    with pytest.raises(FrameError, match="unknown module"):
        value_ideal(curve_spec, "nope")


def test_zero_module_is_rejected_before_the_bootstrap(curve_spec):
    spec = parse_curve(dumps_curve(curve_spec) + "module Z: (0, 0)\n")
    with pytest.raises(FrameError, match="module 'Z' is zero"):
        value_ideal(spec, "Z")


def test_ring_constant_on_a_branch_has_no_conductor():
    spec = parse_curve("branches: 2\nring: (t, 0) ; (t^2, 0)\n")
    with pytest.raises(FrameError, match="constant on branch 1"):
        value_ideal(spec, "R")


def test_ring_exponents_with_common_divisor_have_no_conductor():
    spec = parse_curve("branches: 2\nring: (t^2, t) ; (t^4 + t^6, t^3)\n")
    with pytest.raises(FrameError, match="branch 0 is a multiple of 2"):
        value_ideal(spec, "R")


def test_bootstrap_failure_lists_the_truncations_tried():
    # both branches carry the same parametrization, so no truncation
    # shows a conductor although every precheck passes
    spec = parse_curve("branches: 2\nring: (t, t)\n")
    with pytest.raises(TruncationError, match="truncations 8, 16, 32, 64, 128, 256, 512;"):
        value_ideal(spec, "R")


def test_builtin_conductor_module(curve_spec):
    GC = value_ideal(curve_spec, "C")
    assert GC.frame_sorted == ((3, 1),)
    assert GC.mu == (3, 1)


# ----------------------------------------------------- colon vs. difference


def test_colon_agrees_with_combinatorial_difference(curve_spec):
    GK = value_ideal(curve_spec, "K0")
    for name in ("R", "E", "F", "CR"):
        got = colon_value_ideal(curve_spec, "K0", name)
        want = difference(GK, value_ideal(curve_spec, name))
        assert got == want, name


def test_colon_by_ring_is_identity(curve_spec):
    assert colon_value_ideal(curve_spec, "E", "R") == value_ideal(curve_spec, "E")


def test_colon_of_the_ring_by_its_conductor_is_the_normalization(curve_spec):
    """Γ(R : C) = ℕ^s, as R : C = Rbar.  Rbar·C = C ⊆ R gives Rbar ⊆ R : C.
    Conversely, let x·C ⊆ R.  C is an Rbar-module, so x·C is one too, and
    an Rbar-module M inside R lies in C = R : Rbar, as M·Rbar = M ⊆ R.  So
    x·C ⊆ C = t^γ·Rbar; in particular x·t^γ ∈ t^γ·Rbar, and t^γ is a
    nonzerodivisor, so x ∈ Rbar.  Checked on twobranch and the five rings
    of the ring-colon benchmark; the plane curves check it in
    ``test_plane_curves``."""
    specs = [curve_spec] + [parse_curve(text) for text in workloads.COLON_RINGS.values()]
    for spec in specs:
        zero = (0,) * spec.s
        assert colon_value_ideal(spec, "R", "C") == IdealFrame.from_points([zero], zero), dumps_curve(spec)


def test_colon_reaches_negative_values(curve_spec):
    D = colon_value_ideal(curve_spec, "K0", "E")
    assert D.mu == (-2, -1)
    assert D.frame_sorted == ((-2, -1), (-2, 0), (-1, -1), (1, 0))
    assert D.gamma == (1, 0)


POLE_CURVES = {
    "cusp": CUSP + "module M: (t^5)\nmodule N: (t^9) ; (t^10)\n",
    "ring-6-6": "branches: 2\nring: (t^2, t^3) ; (t^3, t^2)\n"
    "module M: (t^5, t^4)\nmodule N: (t^3, t^7) ; (t^8, t^2)\n",
}


@pytest.mark.parametrize("name", ["cusp", "ring-6-6", "twobranch"])
def test_default_pole_bound_is_proven_on_every_pair(name, curve_spec):
    # mu_E well above mu_K used to give a default pole window too small
    # for the answer (R : t^5 R on the cusp, Rbar : C on twobranch)
    spec = curve_spec if name == "twobranch" else parse_curve(POLE_CURVES[name])
    names = ["R", "Rbar", "C"] + spec.module_names()
    for K in names:
        GK = value_ideal(spec, K)
        for E in names:
            got = colon_value_ideal(spec, K, E)
            assert got == difference(GK, value_ideal(spec, E)), (K, E)


def test_truncation_too_small_is_detected():
    # a truncation at or below the conductor is one error, whether the
    # conductor lands on the scan box's edge (<2,3> at 4) or the box's
    # corner is no value (the other two)
    msg = "conductor not strictly inside the scan box at truncation "
    for text, corner in [
        ("branches: 1\ntruncation: 4\nring: (t^2) ; (t^3)\n", None),
        ("branches: 1\ntruncation: 4\nring: (t^3) ; (t^4)\n", "(2,)"),
        ("branches: 2\ntruncation: 8\nring: (t^4, t^3) ; (t^6 + t^7, t^5)\n", "(6, 6)"),
    ]:
        tail = r"\d+$" if corner is None else rf"\d+: scan box corner {re.escape(corner)} is not a value of the module$"
        with pytest.raises(TruncationError, match=msg + tail):
            value_ideal(parse_curve(text), "R")


# ------------------------------------------------------------------ lengths


def test_length_fixtures(curve_spec):
    assert length_quotient(curve_spec, "R", "CR") == 1
    assert length_quotient(curve_spec, "F", "CF") == 1
    assert length_quotient(curve_spec, "Rbar", "C") == 4


def test_length_equals_distance(curve_spec):
    # ring-side lengths match semigroup-side distances for nested modules
    GR = value_ideal(curve_spec, "R")
    GK = value_ideal(curve_spec, "K0")
    assert length_quotient(curve_spec, "K0", "R") == relative_distance(GR, GK)
    GRbar = value_ideal(curve_spec, "Rbar")
    assert length_quotient(curve_spec, "Rbar", "K0") == relative_distance(GK, GRbar)
    GF = value_ideal(curve_spec, "F")
    GCF = value_ideal(curve_spec, "CF")
    assert length_quotient(curve_spec, "F", "CF") == relative_distance(GCF, GF)


def test_module_nesting_is_checked_on_the_modules(curve_spec):
    # CR contains (t^3, 0) but no element of E has branch-1 order 3 with
    # branch-2 part zero, so the length computation must refuse the pair
    with pytest.raises(InclusionError):
        length_quotient(curve_spec, "E", "CR")


def test_length_rejects_non_nested(curve_spec):
    with pytest.raises(InclusionError, match="not contained"):
        length_quotient(curve_spec, "F", "E")


def test_conductor_of_ring(curve_spec):
    gamma, basis = conductor_of(curve_spec, "R")
    assert gamma == (3, 1)
    assert not _reduced(basis, {3: 1})
    assert _reduced(basis, {2: 1})


def test_conductor_of_cusp():
    spec = parse_curve(CUSP)
    gamma, _ = conductor_of(spec, "R")
    assert gamma == (2,)


def test_an_explicit_truncation_sets_only_the_commit_order(curve_spec):
    # colons, lengths and conductors are read at their own proven orders,
    # so a truncation: line far above them changes none of their answers
    spec = parse_curve("truncation: 30\n" + dumps_curve(curve_spec))
    for x in ("R", "E", "F", "K0", "CR", "CF"):
        assert colon_value_ideal(spec, "K0", x) == colon_value_ideal(curve_spec, "K0", x), x
    assert length_quotient(spec, "R", "CR") == length_quotient(curve_spec, "R", "CR")
    (gamma, basis), (want_gamma, want) = conductor_of(spec), conductor_of(curve_spec)
    assert gamma == want_gamma and basis.rows == want.rows
    assert basis.N == want.N == max(gamma) + 1


# ------------------------------------------------------------------ parsing


def test_parse_positions_are_reported():
    with pytest.raises(ParseError) as exc:
        parse_curve("branches: 2\nring: (t^2, oops)\n", filename="bad.curve")
    assert exc.value.line == 2
    assert exc.value.filename == "bad.curve"
    assert "bad.curve:2" in str(exc.value)


def test_parse_rejects_malformed_headers():
    with pytest.raises(ParseError, match="branches must be an integer"):
        parse_curve("branches: two\n")
    with pytest.raises(ParseError, match=">= 1"):
        parse_curve("branches: 0\n")
    with pytest.raises(ParseError, match="must come before"):
        parse_curve("ring: (t)\nbranches: 1\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_curve("branches: 1\nrang: (t)\n")
    with pytest.raises(ParseError, match="key: value"):
        parse_curve("branches: 1\njust words\n")
    with pytest.raises(ParseError, match="missing 'ring:'"):
        parse_curve("branches: 1\n")
    with pytest.raises(ParseError, match="missing 'branches:'"):
        parse_curve("# only a comment\n")
    with pytest.raises(ParseError, match="truncation must be >= 4"):
        parse_curve("branches: 1\ntruncation: 2\nring: (t)\n")


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError, match="duplicate 'ring:'"):
        parse_curve("branches: 1\nring: (t)\nring: (t^2)\n")
    with pytest.raises(ParseError, match="duplicate module"):
        parse_curve("branches: 1\nring: (t)\nmodule A: (t)\nmodule A: (t^2)\n")
    with pytest.raises(ParseError, match="bad module name"):
        parse_curve("branches: 1\nring: (t)\nmodule 2x: (t)\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ("branches: 1\nring: (t^2) ; (t^3)\nbranches: 2\n", "branches"),
        ("branches: 1\ntruncation: 8\nring: (t^2) ; (t^3)\ntruncation: 20\n", "truncation"),
    ],
)
def test_parse_rejects_a_repeated_header_line(text, key):
    # the last value used to win: a second 'branches:' gave s = 2 with
    # one-branch generators
    with pytest.raises(ParseError, match=f"duplicate '{key}:' line") as exc:
        parse_curve(text, filename="twice.curve")
    assert exc.value.line == text.count("\n")


def test_module_keyword_needs_whitespace_before_the_name():
    with pytest.raises(ParseError, match="unknown key 'moduleE'"):
        parse_curve("branches: 1\nring: (t^2) ; (t^3)\nmoduleE: (t)\n")
    for sep in (" ", "\t", "  \t "):
        spec = parse_curve(f"branches: 1\nring: (t^2) ; (t^3)\nmodule{sep}E: (t)\n")
        assert spec.module_names() == ["E"]


def test_parse_rejects_bad_vectors():
    with pytest.raises(ParseError, match="expected 2 branches, found 3"):
        parse_curve("branches: 2\nring: (t, t, t)\n")
    with pytest.raises(ParseError, match="parenthesized"):
        parse_curve("branches: 1\nring: t^2\n")
    with pytest.raises(ParseError, match="no generators"):
        parse_curve("branches: 1\nring:  \n")


def test_parse_rejects_bad_terms():
    with pytest.raises(ParseError, match="empty polynomial"):
        parse_curve("branches: 2\nring: (t^2, )\n")
    with pytest.raises(ParseError, match="empty term"):
        parse_curve("branches: 1\nring: (- -t)\n")
    with pytest.raises(ParseError, match="empty term"):
        parse_curve("branches: 1\nring: (t^2 -)\n")
    with pytest.raises(ParseError, match="cannot read term"):
        parse_curve("branches: 1\nring: (t^)\n")
    with pytest.raises(ParseError, match="'\\*' without"):
        parse_curve("branches: 1\nring: (3*)\n")


@pytest.mark.parametrize(
    "ring, col, term",
    [("(t^2) ; (1/0*t^3)", 16, "1/0*t^3"), ("(t^2) ; (t +  0/0)", 21, "0/0"), ("(3/ 0)", 8, "3/ 0")],
)
def test_parse_refuses_a_zero_denominator_naming_the_term(ring, col, term):
    # Fraction used to raise a bare ZeroDivisionError
    with pytest.raises(ParseError, match=re.escape(f"zero denominator in term {term!r}")) as exc:
        parse_curve(f"branches: 1\nring: {ring}\n", filename="z.curve")
    assert (exc.value.line, exc.value.col) == (2, col)


def test_parse_says_that_exponents_must_be_nonnegative():
    # 't^-1' used to read as the terms 't^' and '-1'
    for ring, col in (("(t^-1)", 8), ("(t^3 + t^ -2)", 14)):
        with pytest.raises(ParseError, match="exponents must be nonnegative integers") as exc:
            parse_curve(f"branches: 1\nring: {ring}\n")
        assert (exc.value.line, exc.value.col) == (2, col)


def test_parse_accepts_coefficients_and_signs():
    spec = parse_curve(
        "branches: 2\nring: (2t^3 - t, 1/2*t^2 + 1) ; (-t, 0)\n"
    )
    g1, g2 = spec.ring
    assert g1 == (
        ((1, Fraction(-1)), (3, Fraction(2))),
        ((0, Fraction(1)), (2, Fraction(1, 2))),
    )
    assert g2 == (((1, Fraction(-1)),), ())


def test_dumps_roundtrip(curve_spec):
    text = dumps_curve(curve_spec)
    again = parse_curve(text)
    assert again == curve_spec
    assert dumps_curve(again) == text


def test_dumps_roundtrip_with_fractions():
    spec = parse_curve(
        "branches: 2\ntruncation: 20\n"
        "ring: (1/3*t^2 - t^5, t) ; (0, 2)\n"
        "module M: (7*t, 1 + t)\n"
    )
    assert parse_curve(dumps_curve(spec)) == spec
    assert "1/3*t^2" in dumps_curve(spec)


def test_comments_and_blank_lines_ignored():
    spec = parse_curve(
        "# header\n\nbranches: 1  # trailing\n\nring: (t^2) ; (t^3)  # gens\n"
    )
    assert spec.s == 1 and len(spec.ring) == 2
